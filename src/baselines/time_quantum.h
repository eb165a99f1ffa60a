// nvshare-style time-quantum scheduler baseline (ROADMAP "memory
// oversubscription + time-quantum sharing").
//
// nvshare shares one GPU between processes that each believe they own the
// full GPU memory; a unified-memory pager (src/memsub) keeps the illusion by
// paging over PCIe. Its scheduler has two regimes:
//
//   * SHARED — the default. Every client submits freely on its own stream
//     (MPS-like spatial sharing, no priorities); the pager absorbs memory
//     pressure. This is also the behaviour with no pager attached.
//   * EXCLUSIVE — entered when the thrash detector (src/memsub/thrash.h)
//     sees sustained paging traffic while memory is oversubscribed. One
//     client at a time owns the GPU for a quantum sized from the measured
//     swap cost (long enough to amortise paging its working set back in);
//     the others' ops buffer in software queues. Anti-thrashing heuristics:
//     quantum sizing from measured swap cost, rotation only at request
//     boundaries (never mid-request), and early release when the active
//     client goes idle, so an idle tenant cannot hold the GPU hostage.
//
// Priority-agnostic by design: nvshare predates priority hints, so the
// high-priority client waits its turn like everyone else — exactly the
// isolation gap the oversubscription study measures against Orion.
#ifndef SRC_BASELINES_TIME_QUANTUM_H_
#define SRC_BASELINES_TIME_QUANTUM_H_

#include <deque>
#include <vector>

#include "src/core/scheduler.h"
#include "src/memsub/pager.h"
#include "src/memsub/thrash.h"

namespace orion {
namespace baselines {

class TimeQuantumScheduler : public core::Scheduler {
 public:
  // Binds the unified-memory pager whose fault telemetry drives the thrash
  // detector and quantum sizing. May be called before or after Attach (the
  // harness binds it post-attach so the pager's stream does not perturb
  // scheduler stream ids); without a pager the scheduler stays in SHARED
  // mode forever.
  void set_pager(memsub::UnifiedMemoryPager* pager);

  std::string name() const override { return "nvshare-tq"; }
  void Attach(Simulator* sim, runtime::GpuRuntime* rt,
              std::vector<core::SchedClientInfo> clients) override;
  void Enqueue(core::ClientId client, core::SchedOp op) override;
  void set_telemetry(telemetry::Hub* hub) override { hub_ = hub; }
  void OnClientCrash(core::ClientId client) override;

  // --- Introspection (tests / benches). ---
  std::size_t exclusive_entries() const { return exclusive_entries_; }
  std::size_t quanta_granted() const { return quanta_granted_; }
  // Per-client quanta received since entering exclusive mode (fairness).
  std::size_t client_quanta(core::ClientId client) const;
  DurationUs exclusive_us() const;

 private:
  struct ClientState {
    core::ClientId id = 0;
    gpusim::StreamId stream = gpusim::kInvalidStream;
    std::deque<core::SchedOp> queue;  // buffered while not active (exclusive)
    int inflight_requests = 0;        // end-of-request ops submitted, not done
    // A request's ops were submitted but its end-of-request op was not yet:
    // rotation waits for the boundary (never preempt mid-request).
    bool open_request = false;
    bool crashed = false;
    std::size_t quanta = 0;
  };

  void Submit(ClientState& client, core::SchedOp op);
  void SampleThrash();
  void EnterExclusive();
  void ExitExclusive();
  // Hands the GPU to the next pending client (round-robin after `after`).
  void Activate();
  // Rotates away from the active client if its quantum expired or it idled.
  void MaybeRotate();
  void OnQuantumExpired();
  void ArmIdleCheck();
  void FlushQueue(ClientState& client);

  memsub::UnifiedMemoryPager* pager_ = nullptr;
  telemetry::Hub* hub_ = nullptr;
  Simulator* sim_ = nullptr;
  runtime::GpuRuntime* rt_ = nullptr;
  std::vector<ClientState> clients_;

  memsub::ThrashDetector detector_;
  bool sampler_started_ = false;
  std::size_t sampled_paging_bytes_ = 0;  // pager byte counter at last sample
  double backlog_bytes_ = 0.0;            // enqueued paging bytes not yet drained

  bool exclusive_ = false;
  core::ClientId active_ = -1;
  bool quantum_expired_ = false;
  std::size_t rr_cursor_ = 0;
  EventHandle quantum_event_;
  std::uint64_t activity_seq_ = 0;  // bumped on active-client progress

  std::size_t exclusive_entries_ = 0;
  std::size_t quanta_granted_ = 0;
  DurationUs exclusive_accum_us_ = 0.0;
  TimeUs exclusive_entered_at_ = 0.0;
};

}  // namespace baselines
}  // namespace orion

#endif  // SRC_BASELINES_TIME_QUANTUM_H_
