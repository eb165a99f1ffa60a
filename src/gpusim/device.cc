#include "src/gpusim/device.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "src/common/check.h"

namespace orion {
namespace gpusim {
namespace {

// Work below this threshold (in alone-time µs) counts as finished; absorbs
// floating-point residue from rate integration.
constexpr DurationUs kRemainingEpsilon = 1e-6;

// Fixed device-side overhead of a memset, on top of its bandwidth cost.
constexpr DurationUs kMemsetOverheadUs = 2.0;

// Block-turnover quantum: how long it takes for SM shares to shift after the
// allocation target changes. Running thread blocks are never preempted, but
// DNN kernels consist of many short blocks, so SMs drain to new owners at
// roughly this timescale.
constexpr DurationUs kRebalanceQuantumUs = 25.0;

// Tolerance for comparing fluid SM grants.
constexpr double kGrantEpsilon = 1e-9;

// Strength of the co-residency memory interference penalty (cache/row-buffer
// pollution between concurrent kernels). Calibrated against the paper's
// Table 2 BN2d+BN2d measurement (1.08x speedup instead of the ~1.25x a pure
// bandwidth-sharing model predicts).
constexpr double kCacheInterference = 0.2;

}  // namespace

Device::Device(Simulator* sim, DeviceSpec spec) : sim_(sim), spec_(std::move(spec)) {
  ORION_CHECK(sim_ != nullptr);
  ORION_CHECK(spec_.num_sms > 0);
  effective_sms_ = spec_.num_sms;
  last_update_ = sim_->now();
}

void Device::DegradeSms(int sms_lost) {
  ORION_CHECK(sms_lost >= 0);
  // Integrate progress at the old capacity before shrinking it.
  AdvanceTo(sim_->now());
  effective_sms_ = std::max(1, effective_sms_ - sms_lost);
  needs_full_pass_ = true;
  // Reschedule recomputes targets against the shrunken pool; kernels holding
  // more than their new target drain via the rebalance quantum (running
  // blocks are never preempted, they retire).
  Reschedule();
}

void Device::ScaleMembw(double factor) {
  ORION_CHECK(factor > 0.0);
  AdvanceTo(sim_->now());
  membw_factor_ *= factor;
  rates_valid_ = false;
  Reschedule();
}

StreamId Device::CreateStream(int priority) {
  Stream& stream = streams_.emplace_back();
  stream.priority = priority;
  stream.weight = std::pow(4.0, priority);
  return static_cast<StreamId>(streams_.size() - 1);
}

void Device::LaunchKernel(StreamId stream, const KernelDesc& kernel, CompletionCb done) {
  ORION_CHECK(stream >= 0 && stream < static_cast<int>(streams_.size()));
  ORION_CHECK_MSG(kernel.duration_us >= 0.0, "kernel with negative duration: " << kernel.name);
  ORION_CHECK_MSG(kernel.sm_needed > 0, "kernel without sm_needed: " << kernel.name);
  if (debug_oracle_) {
    ORION_CHECK_MSG(kernel.sm_needed == SmsNeeded(spec_, kernel.geometry),
                    "kernel " << kernel.name << " carries sm_needed " << kernel.sm_needed
                              << " but needs " << SmsNeeded(spec_, kernel.geometry)
                              << " SMs on " << spec_.name);
  }
  Op& op = streams_[static_cast<std::size_t>(stream)].queue.emplace_back();
  op.type = Op::Type::kKernel;
  op.kernel = kernel;
  op.done = std::move(done);
  op.seq = next_seq_++;
  // A kernel queued behind a busy stream head changes no rate, grant or
  // target, so only a kernel that started needs a pass.
  const std::size_t running = running_.size();
  ActivateStreamHead(stream);
  if (running_.size() != running) {
    Reschedule();
  }
}

void Device::EnqueueMemcpy(StreamId stream, std::size_t bytes, MemcpyKind kind,
                           CompletionCb done) {
  ORION_CHECK(stream >= 0 && stream < static_cast<int>(streams_.size()));
  Op& op = streams_[static_cast<std::size_t>(stream)].queue.emplace_back();
  op.type = Op::Type::kMemcpy;
  op.bytes = bytes;
  op.memcpy_kind = kind;
  op.done = std::move(done);
  op.seq = next_seq_++;
  ActivateStreamHead(stream);
}

void Device::EnqueueMemset(StreamId stream, std::size_t bytes, CompletionCb done) {
  ORION_CHECK(stream >= 0 && stream < static_cast<int>(streams_.size()));
  Op& op = streams_[static_cast<std::size_t>(stream)].queue.emplace_back();
  op.type = Op::Type::kMemset;
  op.bytes = bytes;
  op.done = std::move(done);
  op.seq = next_seq_++;
  ActivateStreamHead(stream);
}

void Device::RecordEvent(StreamId stream, GpuEvent* event, CompletionCb done) {
  ORION_CHECK(stream >= 0 && stream < static_cast<int>(streams_.size()));
  ORION_CHECK(event != nullptr);
  event->done = false;
  Op& op = streams_[static_cast<std::size_t>(stream)].queue.emplace_back();
  op.type = Op::Type::kEvent;
  op.event = event;
  op.done = std::move(done);
  op.seq = next_seq_++;
  ActivateStreamHead(stream);
}

void Device::EnqueueExternal(StreamId stream, ExternalBody body, CompletionCb done) {
  ORION_CHECK(stream >= 0 && stream < static_cast<int>(streams_.size()));
  ORION_CHECK(body != nullptr);
  Stream& s = streams_[static_cast<std::size_t>(stream)];
  s.externals.push_back(std::move(body));
  Op& op = s.queue.emplace_back();
  op.type = Op::Type::kExternal;
  op.done = std::move(done);
  op.seq = next_seq_++;
  ActivateStreamHead(stream);
}

void Device::AttachHostLink(HostLinkModel* host_link, int gpu_index) {
  ORION_CHECK(!copy_active_ && copy_queue_.empty());
  host_link_ = host_link;
  gpu_index_ = gpu_index;
}

void Device::SynchronizeDevice(CompletionCb done) {
  ORION_CHECK(done != nullptr);
  sync_waiters_.push_back(std::move(done));
  CheckDeviceSync();
}

double Device::GrantedTotal() const {
  double total = 0.0;
  for (const RunningKernel& rk : running_) {
    total += rk.granted;
  }
  return total;
}

int Device::FreeSms() const {
  return static_cast<int>(std::floor(effective_sms_ - GrantedTotal() + kGrantEpsilon));
}

int Device::BusySms() const { return effective_sms_ - FreeSms(); }

bool Device::AnyKernelRunning() const { return !running_.empty(); }

int Device::RunningKernelCount() const { return static_cast<int>(running_.size()); }

int Device::StreamBusySms(StreamId stream) const {
  double total = 0.0;
  for (const RunningKernel& rk : running_) {
    if (rk.stream == stream) {
      total += rk.granted;
    }
  }
  return static_cast<int>(total + 0.5);
}

bool Device::StreamIdle(StreamId stream) const {
  ORION_CHECK(stream >= 0 && stream < static_cast<int>(streams_.size()));
  const Stream& s = streams_[static_cast<std::size_t>(stream)];
  return s.queue.empty() && !s.head_active;
}

DurationUs Device::StreamExecutedUs(StreamId stream) {
  ORION_CHECK(stream >= 0 && stream < static_cast<int>(streams_.size()));
  AdvanceTo(sim_->now());
  DurationUs executed = 0.0;
  for (const RunningKernel& rk : running_) {
    if (rk.stream == stream) {
      executed += rk.desc.duration_us - rk.remaining;
    }
  }
  return executed;
}

void Device::ActivateStreamHead(StreamId stream_id) {
  Stream& stream = streams_[static_cast<std::size_t>(stream_id)];
  // Events (and only events) resolve immediately upon reaching the head, so
  // several can retire back-to-back; hence the loop.
  while (!stream.head_active && !stream.queue.empty()) {
    Op& front = stream.queue.front();
    switch (front.type) {
      case Op::Type::kEvent: {
        front.event->done = true;
        front.event->completed_at = sim_->now();
        DeliverCallback(std::move(front.done));
        stream.queue.pop_front();
        continue;  // next op may also be startable
      }
      case Op::Type::kKernel: {
        RunningKernel rk;
        rk.stream = stream_id;
        rk.remaining = front.kernel.duration_us;
        // duration_us is the run-alone wall time and already includes wave
        // execution of grids larger than the device, so the progress model
        // caps the SM demand at device size: a kernel granted every SM it
        // can use runs at full rate.
        const int raw_sm_needed = front.kernel.sm_needed;
        // Effective SM demand models occupancy pressure, not grid size: a
        // compute-bound kernel's blocks hold most of each SM's register file
        // and issue slots (~75-90%), while a memory-bound kernel only needs
        // enough resident warps to keep DRAM saturated (~25%) — its blocks
        // co-reside with another kernel's at negligible cost. This is the
        // physical headroom behind the paper's Table 2 result (Conv2d+BN2d
        // overlap at 1.41x) and Orion's opposite-profile collocation rule.
        const double c = front.kernel.compute_util;
        const double m = front.kernel.membw_util;
        const double intensity = c / (c + m + 1e-9);
        const double demand_frac = 0.25 + 0.65 * intensity;
        const int capped = std::min(raw_sm_needed, effective_sms_);
        rk.sm_needed = std::max(1, static_cast<int>(capped * demand_frac + 0.5));
        rk.granted = 0;
        // Wave count: grids larger than the device execute in multiple
        // waves, so their blocks are proportionally shorter than the kernel.
        const double waves =
            std::max(1.0, static_cast<double>(raw_sm_needed) / effective_sms_);
        rk.block_duration = std::max(1.0, front.kernel.duration_us / waves);
        rk.started_at = sim_->now();
        rk.seq = front.seq;
        rk.desc = front.kernel;
        stream.head_done = std::move(front.done);
        stream.queue.pop_front();
        stream.head_active = true;
        // Appended with no SMs: existing indices and the rate cache hold.
        running_.push_back(std::move(rk));
        needs_full_pass_ = true;
        return;  // SM grant happens in Reschedule()
      }
      case Op::Type::kExternal: {
        ExternalBody body = std::move(stream.externals.front());
        stream.externals.pop_front();
        stream.head_done = std::move(front.done);
        stream.queue.pop_front();
        stream.head_active = true;
        body([this, stream_id]() {
          FinishOp(stream_id);
          Reschedule();
        });
        return;
      }
      case Op::Type::kMemcpy: {
        PendingCopy copy;
        copy.stream = stream_id;
        copy.bytes = front.bytes;
        copy.priority = stream.priority;
        copy.kind = front.memcpy_kind;
        copy.seq = front.seq;
        stream.head_done = std::move(front.done);
        stream.queue.pop_front();
        stream.head_active = true;
        copy_queue_.push_back(std::move(copy));
        StartNextCopy();
        return;
      }
      case Op::Type::kMemset: {
        const DurationUs duration =
            kMemsetOverheadUs + static_cast<double>(front.bytes) /
                                    (spec_.peak_membw_gbps * membw_factor_ * 1e3);
        stream.head_done = std::move(front.done);
        stream.queue.pop_front();
        stream.head_active = true;
        sim_->ScheduleAfter(duration, [this, stream_id]() {
          FinishOp(stream_id);
          Reschedule();
        });
        return;
      }
    }
  }
}

void Device::FinishOp(StreamId stream_id) {
  Stream& stream = streams_[static_cast<std::size_t>(stream_id)];
  ORION_CHECK(stream.head_active);
  stream.head_active = false;
  DeliverCallback(std::move(stream.head_done));
  ActivateStreamHead(stream_id);
  CheckDeviceSync();
}

void Device::StartNextCopy() {
  if (copy_active_ || copy_queue_.empty()) {
    return;
  }
  copy_active_ = true;
  std::size_t next = 0;
  if (pcie_priority_) {
    // Pick the highest-priority pending copy; FIFO within a priority level.
    for (std::size_t i = 1; i < copy_queue_.size(); ++i) {
      const PendingCopy& c = copy_queue_[i];
      const PendingCopy& best = copy_queue_[next];
      if (c.priority > best.priority || (c.priority == best.priority && c.seq < best.seq)) {
        next = i;
      }
    }
    // Bring it to the front; the copies it passes keep their order.
    for (std::size_t i = next; i > 0; --i) {
      std::swap(copy_queue_[i], copy_queue_[i - 1]);
    }
  }
  PendingCopy copy = copy_queue_.front();
  copy_queue_.pop_front();

  // Chunked transfer (priority mode): large copies release the engine every
  // kCopyChunkBytes so higher-priority copies wait one chunk at most.
  constexpr std::size_t kCopyChunkBytes = 2 * 1000 * 1000;
  const std::size_t chunk =
      pcie_priority_ ? std::min(copy.bytes, kCopyChunkBytes) : copy.bytes;
  const DurationUs setup = copy.started ? 0.0 : spec_.pcie_latency_us;
  const bool via_fabric = host_link_ != nullptr && copy.kind != MemcpyKind::kDeviceToDevice;
  const bool to_device = copy.kind == MemcpyKind::kHostToDevice;
  copy.bytes -= chunk;
  copy.started = true;

  auto on_chunk_done = [this, copy]() {
    copy_active_ = false;
    if (copy.bytes > 0) {
      // Re-queue the remainder; a higher-priority copy may now cut in.
      copy_queue_.push_back(copy);
    } else {
      ++memcpys_completed_;
      FinishOp(copy.stream);
    }
    StartNextCopy();
    Reschedule();
  };

  if (via_fabric) {
    // Wire time (including link latency and any contention from other
    // traffic on the node) comes from the shared fabric; the engine still
    // serialises one chunk at a time.
    host_link_->StartHostCopy(gpu_index_, chunk, to_device, std::move(on_chunk_done));
    return;
  }
  const DurationUs duration = setup + static_cast<double>(chunk) / (spec_.pcie_gbps * 1e3);
  copy_event_ = sim_->ScheduleAfter(duration, std::move(on_chunk_done));
}

void Device::ComputeRates(std::vector<KernelRate>* rates) const {
  rates->clear();
  // Aggregate demand on each device-wide resource (scaled by SM share).
  double compute = 0.0;
  double membw = 0.0;
  for (std::size_t i = 0; i < running_.size(); ++i) {
    const RunningKernel& rk = running_[i];
    if (rk.sm_needed <= 0 || rk.granted <= kGrantEpsilon) {
      continue;
    }
    const double share = std::min(1.0, rk.granted / rk.sm_needed);
    compute += rk.desc.compute_util * share;
    // Utilizations are fractions of the healthy peak; degraded bandwidth
    // makes the same traffic a larger fraction of what is left.
    membw += rk.desc.membw_util * share / membw_factor_;
    rates->push_back(KernelRate{i, share});
  }
  const double slowdown = std::max({1.0, compute, membw});
  for (auto& [index, share] : *rates) {
    const RunningKernel* rk = &running_[index];
    // Co-residency penalty: other resident kernels' memory traffic pollutes
    // the caches and row buffers this kernel depends on, costing it
    // throughput even when aggregate bandwidth demand is below peak. The
    // paper measures this effect in Table 2 (BN2d+BN2d speeds up only 1.08x
    // despite 80% aggregate SM headroom); kCacheInterference is calibrated
    // against that row.
    // Own traffic is scaled like the sum it came from, so a lone kernel's
    // foreign traffic is exactly 0 on a degraded device too.
    const double own_membw = rk->desc.membw_util * share / membw_factor_;
    const double foreign_membw = membw - own_membw;
    const double penalty = 1.0 + kCacheInterference * foreign_membw;
    share = share / (slowdown * penalty);  // share now holds the rate
  }
}

const std::vector<Device::KernelRate>& Device::Rates() {
  if (!rates_valid_) {
    ComputeRates(&rates_);
    rates_valid_ = true;
  } else if (debug_oracle_) {
    ComputeRates(&oracle_rates_);
    ORION_CHECK_MSG(oracle_rates_.size() == rates_.size(), "stale rate cache: kernel count");
    for (std::size_t i = 0; i < rates_.size(); ++i) {
      ORION_CHECK_MSG(oracle_rates_[i].index == rates_[i].index &&
                          std::bit_cast<std::uint64_t>(oracle_rates_[i].rate) ==
                              std::bit_cast<std::uint64_t>(rates_[i].rate),
                      "stale rate cache at kernel " << rates_[i].index);
    }
  }
  return rates_;
}

void Device::AdvanceTo(TimeUs now) {
  const DurationUs dt = now - last_update_;
  if (dt <= 0.0) {
    last_update_ = now;
    return;
  }
  double delivered_compute = 0.0;
  double delivered_membw = 0.0;
  for (const auto& [index, rate] : Rates()) {
    RunningKernel& rk = running_[index];
    rk.remaining = std::max(0.0, rk.remaining - rate * dt);
    delivered_compute += rk.desc.compute_util * rate;
    delivered_membw += rk.desc.membw_util * rate;
  }
  const double sm_busy = std::min(1.0, GrantedTotal() / effective_sms_);
  utilization_.Record(last_update_, now, std::min(1.0, delivered_compute),
                      std::min(1.0, delivered_membw), sm_busy);
  last_update_ = now;
}

void Device::CompleteFinishedKernels() {
  // Index-based: FinishOp may start the stream's next kernel, which appends
  // to running_ (it holds no SMs, so this loop skips it).
  for (std::size_t i = 0; i < running_.size();) {
    if (running_[i].remaining <= kRemainingEpsilon && running_[i].granted > kGrantEpsilon) {
      RunningKernel rk = std::move(running_[i]);
      running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(i));
      rates_valid_ = false;
      needs_full_pass_ = true;
      ++kernels_completed_;
      if (trace_sink_) {
        KernelExecRecord record;
        record.kernel_id = rk.desc.kernel_id;
        record.name = rk.desc.name;
        record.stream = rk.stream;
        record.start = rk.started_at;
        record.end = sim_->now();
        record.sm_needed = rk.sm_needed;
        trace_sink_(record);
      }
      FinishOp(rk.stream);
    } else {
      ++i;
    }
  }
}

void Device::ComputeTargets() {
  // Weighted max-min (water-filling) allocation: each kernel's target is
  // proportional to weight * demand, capped at its demand, with freed
  // capacity redistributed. Stream priority sets the weight (4x per level):
  // hardware block dispatch strongly favours high-priority streams, but
  // low-priority blocks still trickle in between memory stalls, so priority
  // biases rather than starves — which is why the paper still needs the
  // DUR_THRESHOLD throttle on top of priorities (§5.1.2).
  std::vector<RunningKernel>& kernels = running_;
  for (RunningKernel& rk : kernels) {
    rk.target = 0.0;
  }
  double remaining = static_cast<double>(effective_sms_);
  std::vector<std::uint8_t>& capped = capped_scratch_;
  capped.assign(kernels.size(), 0);
  for (std::size_t round = 0; round < kernels.size() && remaining > kGrantEpsilon; ++round) {
    double weighted_demand = 0.0;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      if (!capped[i]) {
        const double weight = streams_[static_cast<std::size_t>(kernels[i].stream)].weight;
        weighted_demand += weight * kernels[i].sm_needed;
      }
    }
    if (weighted_demand <= kGrantEpsilon) {
      break;
    }
    const double fill = remaining / weighted_demand;
    bool any_capped = false;
    double used = 0.0;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      if (capped[i]) {
        continue;
      }
      const double weight = streams_[static_cast<std::size_t>(kernels[i].stream)].weight;
      const double share = fill * weight * kernels[i].sm_needed;
      const double demand = static_cast<double>(kernels[i].sm_needed);
      if (share >= demand) {
        kernels[i].target = demand;
        used += demand;
        capped[i] = 1;
        any_capped = true;
      } else {
        kernels[i].target = share;  // provisional; refined if others cap out
        used += share;
      }
    }
    if (!any_capped) {
      break;  // allocation is final
    }
    // Remove the capped kernels' demand and re-fill the rest from scratch.
    remaining = static_cast<double>(effective_sms_);
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      if (capped[i]) {
        remaining -= kernels[i].target;
      } else {
        kernels[i].target = 0.0;
      }
    }
    remaining = std::max(0.0, remaining);
  }
}

void Device::MaybeScheduleRebalance() {
  if (rebalance_pending_) {
    return;
  }
  rebalance_pending_ = true;
  sim_->ScheduleAfter(kRebalanceQuantumUs, [this]() {
    rebalance_pending_ = false;
    AdvanceTo(sim_->now());
    ComputeTargets();
    for (RunningKernel& rk : running_) {
      if (rk.granted > rk.target + kGrantEpsilon) {
        // Blocks retire every block_duration on average, so over one quantum
        // a kernel can release at most this many of its SMs. Long-block
        // kernels (e.g. single-wave training convs) therefore hold their SMs
        // for most of their lifetime — the non-preemption pain that Orion's
        // DUR_THRESHOLD throttle exists to bound (§5.1.1).
        const double releasable = rk.granted * kRebalanceQuantumUs / rk.block_duration;
        rk.granted = std::max(rk.target, rk.granted - releasable);
      }
    }
    rates_valid_ = false;
    needs_full_pass_ = true;
    // Freed SMs are re-granted (and further shrink ticks scheduled) by the
    // normal path.
    Reschedule();
  });
}

bool Device::CleanState() const {
  if (needs_full_pass_) {
    return false;
  }
  // Targets are those of the last full pass (same running set and SM pool),
  // so the grant loop would only retire a finished kernel or grant free SMs
  // to an under-target one.
  const double free = static_cast<double>(effective_sms_) - GrantedTotal();
  for (const RunningKernel& rk : running_) {
    if (rk.granted > kGrantEpsilon && rk.remaining <= kRemainingEpsilon) {
      return false;
    }
    if (free > kGrantEpsilon && rk.granted + kGrantEpsilon < rk.target) {
      return false;
    }
  }
  return true;
}

void Device::CheckCleanStateOracle() {
  ++debug_oracle_checks_;
  // The full pass would retire nothing...
  for (const RunningKernel& rk : running_) {
    ORION_CHECK_MSG(!(rk.granted > kGrantEpsilon && rk.remaining <= kRemainingEpsilon),
                    "clean path skipped a finished kernel");
  }
  // ...recompute the same targets...
  oracle_targets_.clear();
  for (const RunningKernel& rk : running_) {
    oracle_targets_.push_back(rk.target);
  }
  ComputeTargets();
  for (std::size_t i = 0; i < running_.size(); ++i) {
    ORION_CHECK_MSG(std::bit_cast<std::uint64_t>(oracle_targets_[i]) ==
                        std::bit_cast<std::uint64_t>(running_[i].target),
                    "stale allocation target at kernel " << i);
  }
  // ...grant nothing, and find any grant/target mismatch already covered
  // by a pending rebalance tick.
  const double free = static_cast<double>(effective_sms_) - GrantedTotal();
  for (const RunningKernel& rk : running_) {
    ORION_CHECK_MSG(!(free > kGrantEpsilon && rk.granted + kGrantEpsilon < rk.target),
                    "clean path skipped a grant");
    ORION_CHECK_MSG(rebalance_pending_ ||
                        !(rk.granted > rk.target + 1e-6 || rk.granted + 1e-6 < rk.target),
                    "clean path skipped a rebalance");
  }
}

void Device::Reschedule() {
  if (in_reschedule_) {
    return;
  }
  in_reschedule_ = true;
  AdvanceTo(sim_->now());

  if (CleanState()) {
    // Nothing retires, re-targets or grows: only the completion time moves.
    if (debug_oracle_) {
      CheckCleanStateOracle();
    }
  } else {
    // Retiring kernels frees SMs; freed SMs may start pending kernels whose
    // duration is zero-ish, which retire immediately — hence the loop.
    for (int iteration = 0; iteration < 1024; ++iteration) {
      CompleteFinishedKernels();
      ComputeTargets();
      // The targets now cover every started kernel; grants below belong to
      // this pass.
      needs_full_pass_ = false;

      // Growth is immediate: under-target kernels absorb free SMs in
      // (priority, submission) order. Shrinking waits for the rebalance
      // quantum — granted SMs are never revoked instantly (no preemption of
      // running blocks).
      std::vector<std::size_t>& wanting = wanting_scratch_;
      wanting.clear();
      for (std::size_t i = 0; i < running_.size(); ++i) {
        if (running_[i].granted + kGrantEpsilon < running_[i].target) {
          wanting.push_back(i);
        }
      }
      std::sort(wanting.begin(), wanting.end(), [this](std::size_t a, std::size_t b) {
        const RunningKernel& ka = running_[a];
        const RunningKernel& kb = running_[b];
        const int pa = streams_[static_cast<std::size_t>(ka.stream)].priority;
        const int pb = streams_[static_cast<std::size_t>(kb.stream)].priority;
        if (pa != pb) {
          return pa > pb;
        }
        return ka.seq < kb.seq;
      });
      double free = static_cast<double>(effective_sms_) - GrantedTotal();
      for (std::size_t i : wanting) {
        if (free <= kGrantEpsilon) {
          break;
        }
        RunningKernel& rk = running_[i];
        const double grant = std::min(free, rk.target - rk.granted);
        rk.granted += grant;
        free -= grant;
        rates_valid_ = false;
      }

      // If nothing granted is already finished, the state is stable.
      bool any_finished = false;
      for (const RunningKernel& rk : running_) {
        if (rk.granted > kGrantEpsilon && rk.remaining <= kRemainingEpsilon) {
          any_finished = true;
          break;
        }
      }
      if (!any_finished) {
        break;
      }
    }

    // Any kernel still holding more than its target (or starved below it
    // with no free capacity) needs a rebalance one block-turnover quantum
    // from now.
    for (const RunningKernel& rk : running_) {
      if (rk.granted > rk.target + 1e-6 || rk.granted + 1e-6 < rk.target) {
        MaybeScheduleRebalance();
        break;
      }
    }
  }

  // Re-time the next completion. It moves even when no grant changed: the
  // remaining work was integrated up to now, and now + remaining / rate is
  // not bitwise the previous completion time.
  DurationUs next_completion = std::numeric_limits<DurationUs>::infinity();
  for (const auto& [index, rate] : Rates()) {
    if (rate > 0.0) {
      next_completion = std::min(next_completion, running_[index].remaining / rate);
    }
  }
  if (!std::isfinite(next_completion)) {
    sim_->Cancel(completion_event_);
    completion_event_ = EventHandle();
  } else if (!sim_->Retime(completion_event_, next_completion)) {
    sim_->Cancel(completion_event_);
    completion_event_ = sim_->ScheduleAfter(next_completion, [this]() { Reschedule(); });
  }
  in_reschedule_ = false;
}

void Device::CheckDeviceSync() {
  if (sync_waiters_.empty()) {
    return;
  }
  if (!running_.empty() || copy_active_ || !copy_queue_.empty()) {
    return;
  }
  for (const Stream& stream : streams_) {
    if (!stream.queue.empty() || stream.head_active) {
      return;
    }
  }
  std::vector<CompletionCb> waiters;
  waiters.swap(sync_waiters_);
  for (CompletionCb& waiter : waiters) {
    DeliverCallback(std::move(waiter));
  }
}

void Device::DeliverCallback(CompletionCb&& cb) {
  if (cb) {
    sim_->ScheduleAfter(0.0, std::move(cb));
  }
}

}  // namespace gpusim
}  // namespace orion
