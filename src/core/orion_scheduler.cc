#include "src/core/orion_scheduler.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace orion {
namespace core {

OrionScheduler::OrionScheduler(OrionOptions options) : options_(options) {}

void OrionScheduler::set_telemetry(telemetry::Hub* hub) {
  ORION_CHECK_MSG(sim_ == nullptr, "set_telemetry must be called before Attach");
  hub_ = hub;
}

void OrionScheduler::BindCounters() {
  telemetry::MetricRegistry& reg = hub_ != nullptr ? hub_->metrics() : local_metrics_;
  be_kernels_submitted_ = reg.GetCounter("orion.be_kernels_submitted");
  be_throttle_skips_ = reg.GetCounter("orion.be_throttle_skips");
  be_profile_skips_ = reg.GetCounter("orion.be_profile_skips");
  be_polls_ = reg.GetCounter("orion.be_polls");
  clients_quarantined_ = reg.GetCounter("orion.clients_quarantined");
  runaway_quarantines_ = reg.GetCounter("orion.runaway_quarantines");
  be_ops_dropped_ = reg.GetCounter("orion.be_ops_dropped");
  be_bytes_released_ = reg.GetCounter("orion.be_bytes_released");
  if (hub_ != nullptr && hub_->tracing()) {
    trace_track_ = hub_->spans().Track("orion-sched");
  }
}

void OrionScheduler::MarkQuarantine(ClientId client, const char* reason) {
  if (trace_track_ < 0) {
    return;
  }
  hub_->spans().Instant(trace_track_, reason, sim_->now(),
                        {{"client", std::to_string(client)}});
}

void OrionScheduler::Attach(Simulator* sim, runtime::GpuRuntime* rt,
                            std::vector<SchedClientInfo> clients) {
  ORION_CHECK(sim != nullptr && rt != nullptr);
  sim_ = sim;
  rt_ = rt;
  BindCounters();
  const int hp_priority =
      options_.use_stream_priorities ? gpusim::kPriorityHigh : gpusim::kPriorityDefault;
  int hp_count = 0;
  for (const SchedClientInfo& client : clients) {
    if (client.high_priority) {
      ++hp_count;
      hp_client_ = client.id;
      hp_profile_ = client.profile;
      hp_stream_ = rt_->CreateStream(hp_priority);
      ORION_CHECK_MSG(client.profile != nullptr, "Orion requires an offline profile (§5.2)");
      hp_target_latency_ = client.profile->request_latency_us;
    } else {
      BeClient be;
      be.id = client.id;
      be.profile = client.profile;
      be.stream = rt_->CreateStream(gpusim::kPriorityDefault);
      be.collocated_us = (hub_ != nullptr ? hub_->metrics() : local_metrics_)
                             .GetCounter("orion.collocated_be_us", {{"client", client.name}});
      be_clients_.push_back(std::move(be));
    }
  }
  ORION_CHECK_MSG(hp_count == 1, "Orion expects exactly one high-priority client, got "
                                     << hp_count);
  sm_threshold_ =
      options_.sm_threshold > 0 ? options_.sm_threshold : rt_->device().spec().num_sms;
}

void OrionScheduler::Enqueue(ClientId client, SchedOp op) {
  if (client == hp_client_) {
    SubmitHp(std::move(op));
    // The polling loop considers a best-effort op in the same iteration it
    // submits a high-priority op (Listing 1 lines 7-21).
    PollBestEffort();
    return;
  }
  BeClient* be = FindClient(be_clients_, client);
  ORION_CHECK_MSG(be != nullptr, "enqueue from unknown client " << client);
  if (be->quarantined) {
    // Straggler op from a crashed/hung process: drop it.
    be_ops_dropped_->Inc();
    return;
  }
  be->queue.push_back(std::move(op));
  PollBestEffort();
}

bool OrionScheduler::client_quarantined(ClientId client) const {
  const BeClient* be = FindClient(be_clients_, client);
  return be != nullptr && be->quarantined;
}

void OrionScheduler::OnClientCrash(ClientId client) {
  BeClient* be = FindClient(be_clients_, client);
  if (be == nullptr || be->quarantined) {
    // hp crash or unknown client: nothing is buffered for hp (ops submit
    // immediately), so there is no queue to quarantine here.
    return;
  }
  be->quarantined = true;
  be_ops_dropped_->Inc(static_cast<double>(be->queue.size()));
  be->queue.clear();
  // Recredit the dead client's expected outstanding time so the
  // DUR_THRESHOLD throttle does not stay charged for kernels whose
  // completions will still fire but whose client is gone. Resident kernels
  // run out on the device — there is no preemption to reclaim them early —
  // so the be_submitted_ event still resolves and the throttle cannot
  // deadlock.
  be_duration_ = std::max(0.0, be_duration_ - be->outstanding_us);
  be->outstanding_us = 0.0;
  be->outstanding_trusted_us = 0.0;
  const std::size_t before = rt_->memory().used();
  rt_->memory().ReleaseClient(static_cast<std::uint64_t>(client));
  be_bytes_released_->Inc(static_cast<double>(before - rt_->memory().used()));
  clients_quarantined_->Inc();
  MarkQuarantine(client, "quarantine");
  // Surviving best-effort clients may take the recredited budget now.
  PollBestEffort();
}

void OrionScheduler::OnDeviceDegraded() {
  const int effective = rt_->device().effective_sms();
  if (options_.sm_threshold > 0) {
    // An explicitly tuned threshold scales with the surviving fraction of
    // the device: it was chosen relative to full capacity.
    const double fraction =
        static_cast<double>(effective) / static_cast<double>(rt_->device().spec().num_sms);
    sm_threshold_ = std::max(
        1, static_cast<int>(static_cast<double>(options_.sm_threshold) * fraction));
  } else {
    sm_threshold_ = effective;
  }
  if (trace_track_ >= 0) {
    hub_->spans().Instant(trace_track_, "sm-retune", sim_->now(),
                          {{"sm_threshold", std::to_string(sm_threshold_)}});
  }
}

void OrionScheduler::SubmitHp(SchedOp op) {
  if (IsComputeOp(op.op)) {
    hp_running_profiles_.push_back(
        ViewOf(op.op, hp_profile_, options_.conservative_profile_miss).profile);
    auto on_complete = std::move(op.on_complete);
    rt_->Submit(op.op, hp_stream_, [this, on_complete = std::move(on_complete)]() {
      ORION_CHECK(!hp_running_profiles_.empty());
      hp_running_profiles_.pop_front();
      if (on_complete) {
        on_complete();
      }
      // A high-priority completion may open a collocation window.
      PollBestEffort();
    });
    return;
  }
  // Memory ops go straight to the device (§5.1.3); blocking semantics are
  // enforced by the client driver via on_complete.
  rt_->Submit(op.op, hp_stream_, std::move(op.on_complete));
}

bool OrionScheduler::ScheduleBe(const KernelView& view) const {
  // Listing 1, schedule_be(): suitable when no hp task is running...
  if (hp_running_profiles_.empty()) {
    return true;
  }
  // ...or when it is small enough and has the opposite resource profile.
  // (For a captured CUDA graph the checks apply to the whole graph — the
  // granularity loss discussed in §7.)
  if (options_.use_sm_check && view.sm_needed >= sm_threshold_) {
    return false;
  }
  if (options_.use_profile_check) {
    if (!gpusim::HaveDifferentProfiles(hp_running_profiles_.front(), view.profile)) {
      return false;
    }
  }
  return true;
}

void OrionScheduler::PollBestEffort() {
  if (be_clients_.empty()) {
    return;
  }
  be_polls_->Inc();
  KernelView view;  // of the head `admit` accepted; `submit` consumes it
  DrainRoundRobin(
      be_clients_, &rr_cursor_, rt_,
      [this, &view](const BeClient& be, const runtime::Op& op) {
        // DUR_THRESHOLD throttle (Listing 1 lines 12-16): once the expected
        // outstanding best-effort time exceeds the budget, nothing more is
        // submitted until the CUDA event says everything drained. Checked
        // first: it resets the budget or arms the watchdog.
        if (options_.use_dur_throttle && hp_target_latency_ > 0.0 &&
            be_duration_ > options_.dur_threshold_frac * hp_target_latency_) {
          // (be_submitted_ can only be null here after a runaway quarantine
          // reset the throttle; treat that as drained.)
          if (be_submitted_ == nullptr || be_submitted_->done) {
            be_duration_ = 0.0;
          } else {
            be_throttle_skips_->Inc();
            ArmWatchdog();
            return false;
          }
        }
        view = ViewOf(op, be.profile, options_.conservative_profile_miss);
        if (!ScheduleBe(view)) {
          be_profile_skips_->Inc();
          return false;
        }
        return true;
      },
      [this, &view](BeClient& be, SchedOp op) { SubmitBe(be, std::move(op), view); });
}

void OrionScheduler::SubmitBe(BeClient& be, SchedOp op, const KernelView& view) {
  be_kernels_submitted_->Inc();
  const double expected = view.duration_us;
  const double trusted = view.profiled ? expected : 0.0;
  if (!hp_running_profiles_.empty()) {
    // Submitted alongside outstanding hp work: this is the dispatch decision
    // the hp tenant's kInterference phase traces back to.
    be.collocated_us->Inc(expected);
  }
  be_duration_ += expected;
  be.outstanding_us += expected;
  be.outstanding_trusted_us += trusted;
  auto on_complete = std::move(op.on_complete);
  rt_->Submit(op.op, be.stream,
              [this, client = be.id, expected, trusted,
               on_complete = std::move(on_complete)]() {
    if (BeClient* b = FindClient(be_clients_, client)) {
      b->outstanding_us = std::max(0.0, b->outstanding_us - expected);
      b->outstanding_trusted_us = std::max(0.0, b->outstanding_trusted_us - trusted);
    }
    if (on_complete) {
      on_complete();
    }
    // Completion may clear the throttle (the recorded event flips to done).
    PollBestEffort();
  });
  // Track progress of the best-effort stream without blocking: record a CUDA
  // event after the kernel and poll it with cudaEventQuery (§5.1.2). Events
  // the device already resolved are dropped first.
  while (!be_events_.empty() && be_events_.front()->done) {
    spare_events_.push_back(std::move(be_events_.front()));
    be_events_.pop_front();
  }
  if (spare_events_.empty()) {
    spare_events_.push_back(std::make_unique<gpusim::GpuEvent>());
  }
  be_submitted_ = be_events_.emplace_back(std::move(spare_events_.back())).get();
  spare_events_.pop_back();
  ++be_submitted_seq_;
  be_submitted_client_ = be.id;
  rt_->RecordEvent(be.stream, be_submitted_, nullptr);
}

void OrionScheduler::ArmWatchdog() {
  if (options_.runaway_timeout_factor <= 0.0 || watchdog_armed_ ||
      be_submitted_ == nullptr || hp_target_latency_ <= 0.0) {
    return;
  }
  watchdog_armed_ = true;
  const DurationUs budget = options_.dur_threshold_frac * hp_target_latency_;
  // Patience scales with the profile-backed work the suspect legitimately
  // has in flight — a big profiled kernel is slow, not hung. Profile-miss
  // work contributes nothing, so a runaway kernel only ever gets the DUR
  // budget's worth of grace regardless of its descriptor.
  const BeClient* suspect = FindClient(be_clients_, be_submitted_client_);
  const DurationUs trusted = suspect != nullptr ? suspect->outstanding_trusted_us : 0.0;
  sim_->ScheduleAfter(options_.runaway_timeout_factor * std::max(budget, trusted),
                      [this, seq = be_submitted_seq_, budget]() {
    watchdog_armed_ = false;
    if (seq != be_submitted_seq_ || be_submitted_ == nullptr || be_submitted_->done) {
      return;  // drained (or the stream moved on): not a hang
    }
    // Conviction needs evidence of execution, not just of waiting: a kernel
    // starved of SMs (behind a resident runaway, or an hp backlog) has
    // executed ~nothing, and a profiled kernel completes — resolving the
    // event — before it can execute past its own trusted expectation. Only
    // untrusted work that has burned through more device time than the
    // suspect's entire trusted outstanding sum (floored at the DUR budget)
    // is a runaway. Anything else: re-arm and keep waiting.
    if (const BeClient* be = FindClient(be_clients_, be_submitted_client_)) {
      const DurationUs executed = rt_->device().StreamExecutedUs(be->stream);
      if (executed <= std::max(budget, be->outstanding_trusted_us)) {
        ArmWatchdog();
        return;
      }
    }
    // The best-effort stream sat on the same unresolved event for many DUR
    // budgets: the last submitter is hung on a runaway kernel. Quarantine it
    // and reset the throttle so surviving best-effort clients stop waiting
    // on an event that may never resolve in useful time. The runaway kernel
    // itself runs out on the device (no preemption).
    runaway_quarantines_->Inc();
    MarkQuarantine(be_submitted_client_, "runaway-quarantine");
    const ClientId owner = be_submitted_client_;
    be_submitted_ = nullptr;
    be_submitted_client_ = -1;
    be_duration_ = 0.0;
    if (owner >= 0) {
      OnClientCrash(owner);  // quarantines + polls
    } else {
      PollBestEffort();
    }
  });
}

}  // namespace core
}  // namespace orion
