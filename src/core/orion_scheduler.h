// The Orion scheduler (§5.1 of the paper, Listing 1).
//
// Policy, translated from the paper's polling loop into event-driven form
// (wake-ups on op enqueue and kernel completion):
//   * High-priority ops are submitted immediately on a dedicated
//     high-priority stream.
//   * A best-effort kernel is submitted only when
//       - no high-priority kernel is outstanding on the GPU, or
//       - it needs fewer than SM_THRESHOLD SMs AND its compute/memory profile
//         differs from the currently executing high-priority kernel's
//         (opposite-profile collocation, §3.2), and
//       - the expected total duration of outstanding best-effort kernels is
//         below DUR_THRESHOLD (a fraction of the high-priority job's
//         run-alone request latency), checked via a CUDA event query on the
//         best-effort stream (§5.1.2) — the throttle that substitutes for
//         kernel preemption on closed GPUs.
//   * Unknown-profile kernels collocate with anything (§5.2).
//   * Memory ops are submitted directly (§5.1.3).
//   * Multiple best-effort clients are served round-robin, one GPU stream
//     each.
//
// Every policy ingredient is independently switchable so the Fig. 14
// breakdown is a first-class experiment.
#ifndef SRC_CORE_ORION_SCHEDULER_H_
#define SRC_CORE_ORION_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/op_view.h"
#include "src/core/scheduler.h"
#include "src/gpusim/kernel.h"
#include "src/telemetry/telemetry.h"

namespace orion {
namespace core {

struct OrionOptions {
  // DUR_THRESHOLD as a fraction of the high-priority run-alone request
  // latency. Paper default: 2.5% (§5.1.1).
  double dur_threshold_frac = 0.025;
  // SM_THRESHOLD in SMs; <= 0 means "total SMs on the device" (the default
  // in §5.1.1).
  int sm_threshold = 0;

  // Fig. 14 ablation switches.
  bool use_stream_priorities = true;
  bool use_profile_check = true;  // opposite compute/memory profile rule
  bool use_sm_check = true;       // SM_THRESHOLD rule
  bool use_dur_throttle = true;   // DUR_THRESHOLD rule

  // --- Graceful degradation (src/fault). ---
  // Treat kernels missing from a client's profile as memory-bound instead of
  // trusting their descriptors (stale/poisoned-profile fallback): an
  // unrecognised best-effort kernel then never collocates with memory-bound
  // hp work. Off by default — the fault-free profiles are complete.
  bool conservative_profile_miss = false;
  // Runaway-kernel watchdog: if the best-effort stream's completion event
  // stays unresolved for runaway_timeout_factor × DUR_THRESHOLD µs while the
  // throttle is blocked on it, the client that submitted last is declared
  // hung and quarantined, and the throttle resets so surviving best-effort
  // clients are not starved behind the dead event. <= 0 disables (default):
  // DUR_THRESHOLD sizes the budget so legitimate work drains well inside a
  // few budgets; the factor should be much larger than 1.
  double runaway_timeout_factor = 0.0;
};

class OrionScheduler : public Scheduler {
 public:
  explicit OrionScheduler(OrionOptions options = {});

  void Attach(Simulator* sim, runtime::GpuRuntime* rt,
              std::vector<SchedClientInfo> clients) override;
  void Enqueue(ClientId client, SchedOp op) override;
  // Drops the crashed client's queued ops, removes its contribution from the
  // DUR_THRESHOLD accounting, and releases its device memory. Later enqueues
  // from the client are dropped. Never stalls hp work or surviving be
  // clients; resident kernels of the dead client run out on the device
  // (there is no preemption to reclaim them early).
  void OnClientCrash(ClientId client) override;
  // Re-resolves SM_THRESHOLD against the shrunken SM pool.
  void OnDeviceDegraded() override;

  const OrionOptions& options() const { return options_; }
  // Effective SM_THRESHOLD after resolution against the device.
  int sm_threshold() const { return sm_threshold_; }

  // Telemetry (src/telemetry): decision statistics live in the hub's metric
  // registry as "orion.*" counters (a private registry when no hub is
  // installed) and, with tracing enabled, gating decisions and quarantines
  // become instant events on an "orion-sched" track. Call before Attach.
  void set_telemetry(telemetry::Hub* hub) override;

  // Statistics for the overhead/ablation benches. These read the registry
  // counters — the registry is the single source of truth, not a mirror.
  std::size_t be_kernels_submitted() const { return CounterCount(be_kernels_submitted_); }
  std::size_t be_throttle_skips() const { return CounterCount(be_throttle_skips_); }
  std::size_t be_profile_skips() const { return CounterCount(be_profile_skips_); }

  // --- Fault statistics. ---
  std::size_t clients_quarantined() const { return CounterCount(clients_quarantined_); }
  std::size_t runaway_quarantines() const { return CounterCount(runaway_quarantines_); }
  std::size_t be_ops_dropped() const { return CounterCount(be_ops_dropped_); }
  std::size_t be_bytes_released() const { return CounterCount(be_bytes_released_); }
  bool client_quarantined(ClientId client) const;

 private:
  struct BeClient {
    ClientId id = 0;
    gpusim::StreamId stream = gpusim::kInvalidStream;
    const profiler::WorkloadProfile* profile = nullptr;
    // Dispatch record for latency attribution: expected µs of this client's
    // kernels submitted while high-priority work was outstanding — the
    // scheduler's own account of how much best-effort time it chose to
    // overlap with the hp tenant (the "who to blame" input for the
    // kInterference phase). Labelled per client in the hub registry.
    telemetry::Counter* collocated_us = nullptr;
    common::Ring<SchedOp> queue;
    bool quarantined = false;
    // Expected µs of this client's submitted-but-not-completed kernels; the
    // slice of be_duration_ recredited if the client crashes mid-flight.
    double outstanding_us = 0.0;
    // The profile-backed slice of outstanding_us. Profile-miss ops fall back
    // to descriptor numbers for throttle accounting, but those numbers are
    // not *trusted*: the runaway watchdog scales its deadline with this sum
    // only, so an unprofiled kernel that overstays the DUR budget is a
    // conviction candidate no matter what its descriptor claimed.
    double outstanding_trusted_us = 0.0;
  };

  // Attempts to submit best-effort work; called on every wake-up.
  void PollBestEffort();
  // Listing 1's schedule_be(): is the (kernel or graph) op behind `view`
  // suitable now?
  bool ScheduleBe(const KernelView& view) const;
  void SubmitHp(SchedOp op);
  void SubmitBe(BeClient& be, SchedOp op, const KernelView& view);
  // Arms the runaway watchdog while the throttle is blocked on be_submitted_.
  void ArmWatchdog();

  OrionOptions options_;
  Simulator* sim_ = nullptr;
  runtime::GpuRuntime* rt_ = nullptr;

  // High-priority client state.
  ClientId hp_client_ = -1;
  gpusim::StreamId hp_stream_ = gpusim::kInvalidStream;
  const profiler::WorkloadProfile* hp_profile_ = nullptr;
  DurationUs hp_target_latency_ = 0.0;
  // Profiles of submitted-but-not-completed hp kernels, FIFO; front =
  // currently executing. Empty when no hp kernel is outstanding.
  common::Ring<gpusim::ResourceProfile> hp_running_profiles_;

  // Best-effort state.
  std::vector<BeClient> be_clients_;
  std::size_t rr_cursor_ = 0;
  double be_duration_ = 0.0;  // expected µs of outstanding be kernels (Listing 1)
  // Events recorded after best-effort kernels, oldest first. Each lives in
  // its own allocation, so its address stays put while the device holds it;
  // resolved events are popped from the front before each record and kept
  // in spare_events_ for reuse.
  common::Ring<std::unique_ptr<gpusim::GpuEvent>> be_events_;
  std::vector<std::unique_ptr<gpusim::GpuEvent>> spare_events_;
  gpusim::GpuEvent* be_submitted_ = nullptr;  // event after last be kernel
  std::uint64_t be_submitted_seq_ = 0;  // bumped per record: the watchdog's identity
  ClientId be_submitted_client_ = -1;   // who recorded be_submitted_
  bool watchdog_armed_ = false;

  int sm_threshold_ = 0;

  // Telemetry. Counters are bound in Attach against the hub registry (or the
  // private fallback when no hub is installed); null before Attach.
  static std::size_t CounterCount(const telemetry::Counter* c) {
    return c ? static_cast<std::size_t>(c->AsCount()) : 0;
  }
  void BindCounters();
  void MarkQuarantine(ClientId client, const char* reason);

  telemetry::Hub* hub_ = nullptr;
  telemetry::MetricRegistry local_metrics_;
  telemetry::TrackId trace_track_ = -1;
  telemetry::Counter* be_kernels_submitted_ = nullptr;
  telemetry::Counter* be_throttle_skips_ = nullptr;
  telemetry::Counter* be_profile_skips_ = nullptr;
  telemetry::Counter* be_polls_ = nullptr;
  telemetry::Counter* clients_quarantined_ = nullptr;
  telemetry::Counter* runaway_quarantines_ = nullptr;
  telemetry::Counter* be_ops_dropped_ = nullptr;
  telemetry::Counter* be_bytes_released_ = nullptr;
};

}  // namespace core
}  // namespace orion

#endif  // SRC_CORE_ORION_SCHEDULER_H_
