#include "src/harness/client_driver.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"

namespace orion {
namespace harness {

ClientDriver::ClientDriver(Simulator* sim, core::Scheduler* scheduler, core::ClientId id,
                           const ClientConfig& config, const gpusim::DeviceSpec& device,
                           DurationUs op_overhead_us, Rng rng)
    : sim_(sim),
      scheduler_(scheduler),
      id_(id),
      config_(config),
      op_overhead_us_(op_overhead_us),
      rng_(rng) {
  ORION_CHECK(sim_ != nullptr && scheduler_ != nullptr);
  ORION_CHECK_MSG(config_.arrivals != trace::ArrivalKind::kDiurnal,
                  "diurnal arrivals are a serving front-end shape, not a client's");
  arrivals_ = trace::MakeArrivals(config_.arrivals, config_.rps);
  template_ops_ = workloads::BuildRequestOps(device, config_.workload);
  if (config_.use_cuda_graphs) {
    // Capture runs of consecutive kernel launches into graph ops of at most
    // kGraphCaptureLimit kernels (frameworks capture per layer block).
    constexpr std::size_t kGraphCaptureLimit = 32;
    std::vector<runtime::Op> captured;
    std::size_t i = 0;
    while (i < template_ops_.size()) {
      if (template_ops_[i].type != runtime::OpType::kKernelLaunch) {
        captured.push_back(template_ops_[i]);
        ++i;
        continue;
      }
      runtime::Op graph;
      graph.type = runtime::OpType::kGraphLaunch;
      while (i < template_ops_.size() &&
             template_ops_[i].type == runtime::OpType::kKernelLaunch &&
             graph.graph_kernels.size() < kGraphCaptureLimit) {
        graph.graph_kernels.push_back(template_ops_[i].kernel);
        ++i;
      }
      captured.push_back(std::move(graph));
    }
    for (std::size_t j = 0; j < captured.size(); ++j) {
      captured[j].index_in_request = static_cast<std::uint32_t>(j);
      captured[j].end_of_request = j + 1 == captured.size();
    }
    template_ops_ = std::move(captured);
  }
  for (runtime::Op& op : template_ops_) {
    op.client_id = static_cast<std::uint64_t>(id_);
  }
}

std::string ClientDriver::name() const {
  return workloads::WorkloadName(config_.workload) + (config_.high_priority ? "/hp" : "/be");
}

void ClientDriver::Start() {
  if (arrivals_->closed_loop()) {
    pending_arrivals_.push_back(sim_->now());
    StartNextRequest();
    return;
  }
  // Randomise the phase of the first arrival so collocated clients do not
  // start in lockstep.
  sim_->ScheduleAfter(rng_.UniformDouble(0.0, arrivals_->NextInterarrival(rng_)),
                      [this]() { OnArrival(); });
}

void ClientDriver::Crash() {
  crashed_ = true;
  pending_arrivals_.clear();
}

void ClientDriver::Hang(DurationUs runaway_us) {
  ORION_CHECK(runaway_us > 0.0);
  const bool was_crashed = crashed_;
  Crash();
  if (was_crashed) {
    return;  // already dead: nothing left to hang on
  }
  // The runaway kernel: an id no offline profile contains, modelling a code
  // path profiling never exercised (the reason it can run away unnoticed).
  runtime::Op op;
  op.type = runtime::OpType::kKernelLaunch;
  op.kernel.kernel_id = 0xF417F417F417F417ull ^ static_cast<std::uint64_t>(id_);
  op.kernel.name = "runaway";
  op.kernel.duration_us = runaway_us;
  op.kernel.geometry = gpusim::LaunchGeometry{};
  op.kernel.compute_util = 0.5;
  op.kernel.membw_util = 0.5;
  op.client_id = static_cast<std::uint64_t>(id_);
  op.request_id = ++next_request_id_;
  op.end_of_request = true;
  core::SchedOp sched_op;
  sched_op.op = std::move(op);
  scheduler_->Enqueue(id_, std::move(sched_op));
}

void ClientDriver::ScheduleNextArrival() {
  sim_->ScheduleAfter(arrivals_->NextInterarrival(rng_), [this]() { OnArrival(); });
}

void ClientDriver::OnArrival() {
  if (crashed_) {
    return;  // dead process: the arrival chain ends here
  }
  pending_arrivals_.push_back(sim_->now());
  ScheduleNextArrival();
  if (!request_in_flight_) {
    StartNextRequest();
  }
}

void ClientDriver::StartNextRequest() {
  if (crashed_ || request_in_flight_ || pending_arrivals_.empty()) {
    return;
  }
  request_in_flight_ = true;
  current_arrival_ = pending_arrivals_.front();
  pending_arrivals_.pop_front();
  current_start_ = sim_->now();
  next_op_ = 0;
  ++next_request_id_;
  current_paging_us_ = 0.0;
  if (pager_ != nullptr && pager_->IsRegistered(id_)) {
    // Touch the working set before the request's first kernel; the fault
    // stall (if any) lands in the service-time component of latency. The
    // reported stall feeds the kPaging attribution phase.
    pager_->Access(static_cast<int>(id_), [this](DurationUs stall_us) {
      if (crashed_) {
        return;  // process died while its pages were in flight
      }
      current_paging_us_ = stall_us;
      SubmitNextOp();
    });
    return;
  }
  SubmitNextOp();
}

void ClientDriver::SubmitNextOp() {
  if (crashed_) {
    return;  // process died between ops of the request
  }
  ORION_CHECK(next_op_ < template_ops_.size());
  runtime::Op op = template_ops_[next_op_];
  op.request_id = next_request_id_;
  const bool last = op.end_of_request;
  const bool blocking = op.blocking;
  ++next_op_;

  core::SchedOp sched_op;
  sched_op.op = std::move(op);
  if (last) {
    sched_op.on_complete = [this]() { OnRequestComplete(); };
  } else if (blocking) {
    sched_op.on_complete = [this]() {
      sim_->ScheduleAfter(op_overhead_us_, [this]() { SubmitNextOp(); });
    };
  }
  scheduler_->Enqueue(id_, std::move(sched_op));
  if (!last && !blocking) {
    sim_->ScheduleAfter(op_overhead_us_, [this]() { SubmitNextOp(); });
  }
}

void ClientDriver::OnRequestComplete() {
  if (crashed_) {
    return;  // completion of work already on the device when the process died
  }
  const TimeUs now = sim_->now();
  ++completed_total_;
  if (now >= measure_from_) {
    latencies_.Add(now - current_arrival_);
    queueing_.Add(current_start_ - current_arrival_);
    service_.Add(now - current_start_);
    ++completed_measured_;
    const DurationUs e2e = now - current_arrival_;
    const bool miss = config_.slo_us > 0.0 && e2e > config_.slo_us;
    if (miss) {
      ++slo_misses_;
    }
    if (attribution_ != nullptr) {
      // Kernel-path decomposition: queue wait at the client, then the pager's
      // fault stall, then execution priced at the isolated profile — whatever
      // the post-queue, post-paging window holds beyond the isolated cost is
      // interference from collocated clients. The phases sum to e2e by
      // construction (the window split is exact), so the identity check here
      // only guards against FP drift.
      double phases[attribution::kNumPhases] = {};
      const DurationUs exec_window = (now - current_start_) - current_paging_us_;
      const DurationUs execute =
          std::min(std::max(isolated_request_us_, 0.0), std::max(exec_window, 0.0));
      phases[attribution::PhaseIndex(attribution::Phase::kQueue)] =
          current_start_ - current_arrival_;
      phases[attribution::PhaseIndex(attribution::Phase::kPaging)] = current_paging_us_;
      phases[attribution::PhaseIndex(attribution::Phase::kExecute)] = execute;
      phases[attribution::PhaseIndex(attribution::Phase::kInterference)] =
          std::max(exec_window, 0.0) - execute;
      double sum = 0.0;
      for (std::size_t i = 0; i < attribution::kNumPhases; ++i) {
        sum += phases[i];
      }
      ORION_CHECK_MSG(std::abs(sum - e2e) <= 1e-3 + 1e-6 * e2e,
                      "client ledger identity violated: phases sum " << sum
                          << "us vs e2e " << e2e << "us (client " << id_ << ")");
      attribution_->RecordE2e(phases, e2e, miss);
    }
  }
  request_in_flight_ = false;
  if (arrivals_->closed_loop()) {
    pending_arrivals_.push_back(now);
  }
  // A queued (or just-pushed) arrival starts immediately.
  sim_->ScheduleAfter(op_overhead_us_, [this]() { StartNextRequest(); });
}

}  // namespace harness
}  // namespace orion
