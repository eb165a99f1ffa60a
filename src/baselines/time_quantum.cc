#include "src/baselines/time_quantum.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace orion {
namespace baselines {

namespace {

// Thrash sampling cadence. Samples read pager counters only, so they never
// perturb the rest of the event stream.
constexpr DurationUs kSamplePeriodUs = MsToUs(20.0);
// Early release: an active client with nothing queued and nothing in flight
// for this long forfeits the rest of its quantum.
constexpr DurationUs kIdleReleaseUs = MsToUs(2.0);

}  // namespace

void TimeQuantumScheduler::Attach(Simulator* sim, runtime::GpuRuntime* rt,
                                  std::vector<core::SchedClientInfo> clients) {
  ORION_CHECK(sim != nullptr && rt != nullptr);
  sim_ = sim;
  rt_ = rt;
  for (const core::SchedClientInfo& info : clients) {
    ClientState state;
    state.id = info.id;
    // nvshare predates stream priorities: every tenant gets an equal stream.
    state.stream = rt_->CreateStream(gpusim::kPriorityDefault);
    clients_.push_back(std::move(state));
  }
  if (pager_ != nullptr && !sampler_started_) {
    sampler_started_ = true;
    sim_->ScheduleAfter(kSamplePeriodUs, [this]() { SampleThrash(); });
  }
}

void TimeQuantumScheduler::set_pager(memsub::UnifiedMemoryPager* pager) {
  pager_ = pager;
  if (sim_ != nullptr && pager_ != nullptr && !sampler_started_) {
    sampler_started_ = true;
    sim_->ScheduleAfter(kSamplePeriodUs, [this]() { SampleThrash(); });
  }
}

void TimeQuantumScheduler::Enqueue(core::ClientId client, core::SchedOp op) {
  ClientState* state = core::FindClient(clients_, client);
  ORION_CHECK_MSG(state != nullptr, "unknown client " << client);
  if (state->crashed) {
    return;  // dead process: ops vanish with it
  }
  if (!exclusive_) {
    Submit(*state, std::move(op));
    return;
  }
  if (active_ == client) {
    ++activity_seq_;
    Submit(*state, std::move(op));
    return;
  }
  state->queue.push_back(std::move(op));
  if (active_ == -1) {
    Activate();
  }
}

void TimeQuantumScheduler::Submit(ClientState& client, core::SchedOp op) {
  const bool end = op.op.end_of_request;
  auto on_complete = std::move(op.on_complete);
  runtime::GpuRuntime::CompletionCb done;
  if (end) {
    ++client.inflight_requests;
    done = [this, id = client.id, on_complete = std::move(on_complete)]() {
      if (on_complete) {
        on_complete();
      }
      ClientState* state = core::FindClient(clients_, id);
      ORION_CHECK(state != nullptr && state->inflight_requests > 0);
      --state->inflight_requests;
      ++activity_seq_;
      if (exclusive_ && active_ == id && state->inflight_requests == 0) {
        if (quantum_expired_) {
          MaybeRotate();
        } else if (state->queue.empty()) {
          ArmIdleCheck();
        }
      }
    };
  } else {
    done = std::move(on_complete);
  }
  client.open_request = !end;
  rt_->Submit(op.op, client.stream, std::move(done));
}

void TimeQuantumScheduler::SampleThrash() {
  ORION_CHECK(pager_ != nullptr);
  const std::size_t paged =
      pager_->totals().fault_bytes_h2d + pager_->totals().writeback_bytes_d2h;
  const double delta = static_cast<double>(paged - sampled_paging_bytes_);
  sampled_paging_bytes_ = paged;
  // Paging duty-cycle of the window: paged bytes over what the PCIe link
  // could have carried in the same span. The pager counts bytes when the
  // fault is *enqueued*, so a multi-GB burst lands in one sample; the
  // backlog bucket drains it at link speed across the following windows
  // (mirroring the copy engine actually transferring it), keeping the busy
  // signal saturated for the burst's real duration instead of spiking once.
  const double window_capacity = pager_->pcie_gbps() * 1e3 * kSamplePeriodUs;
  backlog_bytes_ += delta;
  const double consumed = std::min(backlog_bytes_, window_capacity);
  backlog_bytes_ -= consumed;
  const double busy = window_capacity > 0.0 ? consumed / window_capacity : 0.0;
  const bool thrashing = detector_.Observe(busy, pager_->oversubscribed());
  if (thrashing && !exclusive_) {
    EnterExclusive();
  } else if (!thrashing && exclusive_) {
    ExitExclusive();
  }
  sim_->ScheduleAfter(kSamplePeriodUs, [this]() { SampleThrash(); });
}

void TimeQuantumScheduler::EnterExclusive() {
  exclusive_ = true;
  exclusive_entered_at_ = sim_->now();
  ++exclusive_entries_;
  active_ = -1;
  quantum_expired_ = false;
  if (hub_ != nullptr) {
    hub_->metrics().GetCounter("tq.exclusive_entries")->Inc();
    hub_->metrics().GetGauge("tq.exclusive_mode")->Set(1.0);
    if (hub_->tracing()) {
      hub_->spans().Instant(hub_->spans().Track("nvshare-tq"), "enter_exclusive",
                            sim_->now());
    }
  }
  // In-flight work drains naturally; gating starts with the next Enqueue.
  // Queues are empty here (shared mode passed everything through), so the
  // first buffered op picks the first quantum owner.
}

void TimeQuantumScheduler::ExitExclusive() {
  exclusive_accum_us_ += sim_->now() - exclusive_entered_at_;
  exclusive_ = false;
  active_ = -1;
  quantum_expired_ = false;
  sim_->Cancel(quantum_event_);
  if (hub_ != nullptr) {
    hub_->metrics().GetGauge("tq.exclusive_mode")->Set(0.0);
  }
  for (ClientState& client : clients_) {
    FlushQueue(client);
  }
}

void TimeQuantumScheduler::Activate() {
  if (!exclusive_ || active_ != -1) {
    return;
  }
  const std::size_t n = clients_.size();
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t index = (rr_cursor_ + step) % n;
    ClientState& client = clients_[index];
    if (client.crashed || client.queue.empty()) {
      continue;
    }
    rr_cursor_ = (index + 1) % n;
    active_ = client.id;
    quantum_expired_ = false;
    ++quanta_granted_;
    // Anti-thrashing quantum: a multiple of the measured swap-in cost, so
    // the paging bill amortises over a long burst of uninterrupted work.
    const DurationUs quantum = memsub::QuantumFromSwapCost(
        pager_ != nullptr ? pager_->MeasuredSwapCostUs(client.id) : 0.0);
    sim_->Cancel(quantum_event_);
    quantum_event_ = sim_->ScheduleAfter(quantum, [this]() { OnQuantumExpired(); });
    if (hub_ != nullptr) {
      hub_->metrics().GetCounter("tq.quanta")->Inc();
    }
    FlushQueue(client);
    return;
  }
  // Nobody pending: the GPU idles until the next Enqueue.
}

void TimeQuantumScheduler::MaybeRotate() {
  if (!exclusive_ || active_ == -1) {
    return;
  }
  ClientState* state = core::FindClient(clients_, active_);
  ORION_CHECK(state != nullptr);
  if (state->inflight_requests > 0 || state->open_request) {
    return;  // never rotate mid-request; the end completion retries
  }
  sim_->Cancel(quantum_event_);
  active_ = -1;
  Activate();
}

void TimeQuantumScheduler::OnQuantumExpired() {
  quantum_expired_ = true;
  MaybeRotate();
}

void TimeQuantumScheduler::ArmIdleCheck() {
  // Early release: if the active client shows no progress (no enqueue, no
  // completion) for kIdleReleaseUs, it forfeits the rest of its quantum.
  sim_->ScheduleAfter(kIdleReleaseUs,
                      [this, seq = activity_seq_, id = active_]() {
                        if (!exclusive_ || active_ != id || activity_seq_ != seq) {
                          return;
                        }
                        ClientState* state = core::FindClient(clients_, id);
                        if (state == nullptr || !state->queue.empty() ||
                            state->inflight_requests > 0 || state->open_request) {
                          return;
                        }
                        // A fault stall is not idleness: the client is waiting
                        // for its working set, which is the very thing the
                        // quantum exists to amortise. Its fault completion
                        // resumes progress and re-arms the check.
                        if (pager_ != nullptr && pager_->HasPendingFaults(id)) {
                          return;
                        }
                        quantum_expired_ = true;
                        MaybeRotate();
                      });
}

void TimeQuantumScheduler::FlushQueue(ClientState& client) {
  while (!client.queue.empty()) {
    core::SchedOp op = std::move(client.queue.front());
    client.queue.pop_front();
    Submit(client, std::move(op));
  }
}

void TimeQuantumScheduler::OnClientCrash(core::ClientId client) {
  ClientState* state = core::FindClient(clients_, client);
  if (state == nullptr) {
    return;
  }
  state->crashed = true;
  state->queue.clear();
  rt_->memory().ReleaseClient(static_cast<std::uint64_t>(client));
  if (exclusive_ && active_ == client) {
    sim_->Cancel(quantum_event_);
    active_ = -1;
    Activate();
  }
}

DurationUs TimeQuantumScheduler::exclusive_us() const {
  const TimeUs now = sim_ != nullptr ? sim_->now() : exclusive_entered_at_;
  return exclusive_accum_us_ + (exclusive_ ? now - exclusive_entered_at_ : 0.0);
}

}  // namespace baselines
}  // namespace orion
