// Ring collectives over the interconnect fabric.
//
// Implements the communication pattern of distributed data-parallel training,
// the gradient all-reduce, as a sequence of link transfers on a Fabric: the
// classic ring algorithm — reduce-scatter then all-gather. The payload is cut
// into N chunks; in each of the 2*(N-1) steps every GPU sends one chunk
// (~bytes/N) to its ring successor, so each ring-adjacent link direction
// carries exactly 2*(N-1)/N * bytes.
//
// Steps run in lockstep (a step starts when every GPU finished the previous
// one) — the bulk-synchronous shape of NCCL ring collectives without its
// intra-step pipelining; chunk-level overlap within a step is deliberately
// not modeled. Local reduction arithmetic is treated as free (it is orders
// of magnitude faster than the wire).
//
// Each GPU's sends can be bound to a communication stream on its simulated
// Device (BindCommStream): sends are then enqueued as stream ops, FIFO with
// other comm traffic on the GPU and visible to schedulers and device
// synchronisation, exactly like cudaMemcpyPeerAsync on a dedicated stream.
#ifndef SRC_COLLECTIVE_COLLECTIVE_H_
#define SRC_COLLECTIVE_COLLECTIVE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/common/time_types.h"
#include "src/gpusim/device.h"
#include "src/interconnect/fabric.h"
#include "src/sim/simulator.h"
#include "src/telemetry/telemetry.h"

namespace orion {
namespace collective {

// Fault-detection policy (src/fault). A ring step that does not complete
// within the timeout is inspected: if every ring member is still alive on the
// fabric the stall is treated as a flap/congestion and waited out with
// patience doubling per consecutive timeout (NCCL-style "communicator is
// slow, not dead"); if a member fell off the fabric, its in-flight sends are
// cancelled and the collective restarts from step 0 on the surviving ring.
// The default timeout of 0 disables detection entirely — collectives then
// stall forever on a dead link, the pre-fault-subsystem behaviour.
struct CollectiveOptions {
  DurationUs step_timeout_us = 0.0;  // 0 = detection off
};

// After this many consecutive timeouts with all members alive, a collective
// stops re-arming and waits for the fabric (bounds timer events on a stall
// the plan never heals).
inline constexpr int kMaxStepTimeouts = 4;

class CollectiveEngine {
 public:
  using Callback = std::function<void()>;

  CollectiveEngine(Simulator* sim, interconnect::Fabric* fabric);
  CollectiveEngine(const CollectiveEngine&) = delete;
  CollectiveEngine& operator=(const CollectiveEngine&) = delete;

  // Routes GPU `gpu`'s collective sends through `stream` on `device` (an
  // external op per send). Unbound GPUs issue directly on the fabric.
  void BindCommStream(int gpu, gpusim::Device* device, gpusim::StreamId stream);

  // Fault-detection policy; set before starting collectives.
  void set_options(const CollectiveOptions& options) { options_ = options; }
  const CollectiveOptions& options() const { return options_; }

  // Telemetry (src/telemetry): statistics become "collective.*" registry
  // counters/gauges and, with tracing on, every collective is an async span
  // on a "collective" track with instants for step timeouts and ring
  // re-formations. Call before starting collectives.
  void set_telemetry(telemetry::Hub* hub);
  // Invoked after each ring re-formation with the surviving ring (fires
  // before the restarted collective issues any sends, so listeners can
  // snapshot fabric byte counters).
  using ReformListener = std::function<void(const std::vector<int>& new_ring)>;
  void set_reform_listener(ReformListener listener) { reform_listener_ = std::move(listener); }

  // `ring` lists distinct GPU ids in ring order (use
  // NodeTopology::PreferredRing to maximise NVLink adjacency). `bytes` is
  // the payload per GPU (the gradient buffer size). `done` fires via a
  // simulator event when the all-reduce completes on every GPU. A 1-GPU ring
  // or empty payload completes immediately.
  void AllReduce(const std::vector<int>& ring, std::size_t bytes, Callback done);

  std::size_t collectives_completed() const {
    return static_cast<std::size_t>(collectives_completed_->AsCount());
  }

  // --- Fault statistics. ---
  // Ring restarts after a member death.
  std::size_t reformations() const { return static_cast<std::size_t>(reformations_->AsCount()); }
  // Step timeouts that fired (flap waits and death detections both count).
  std::size_t step_timeouts() const { return static_cast<std::size_t>(step_timeouts_->AsCount()); }
  // Stalls where re-arming stopped after kMaxStepTimeouts.
  std::size_t timeout_giveups() const {
    return static_cast<std::size_t>(timeout_giveups_->AsCount());
  }
  // GPUs declared dead; excluded from every subsequently started collective.
  const std::set<int>& dead_gpus() const { return dead_gpus_; }

 private:
  struct CommChannel {
    gpusim::Device* device = nullptr;
    gpusim::StreamId stream = gpusim::kInvalidStream;
  };

  struct RingOp {
    std::vector<int> ring;
    // Chunk sizes by chunk index (payload split N ways, remainder spread
    // over the leading chunks so the sizes sum exactly to the payload).
    std::vector<std::size_t> chunk_bytes;
    std::size_t payload_bytes = 0;  // original payload (re-chunked on restart)
    int step = 0;
    int total_steps = 0;
    int pending_in_step = 0;
    // Bumped on ring re-formation: completions and queued comm-stream sends
    // from the abandoned attempt see a stale epoch and become no-ops.
    std::uint64_t epoch = 0;
    int timeouts = 0;  // consecutive timeouts on the current step
    // Fabric ids of this step's sends that reached the wire (cancelled on
    // re-formation so stalled bytes do not block comm streams forever).
    std::vector<interconnect::TransferId> inflight;
    EventHandle timeout_event;
    Callback done;
    std::uint64_t span_id = 0;  // async trace-span id (0 = tracing off)
  };

  void RunStep(const std::shared_ptr<RingOp>& op);
  void FinishCollective(const std::shared_ptr<RingOp>& op);
  // Issues one GPU-to-GPU send, through the comm stream when bound. The send
  // is tagged with the op's current epoch: if the ring re-forms before the
  // send starts streaming, it is skipped (queued sends) or cancelled
  // (in-flight sends) instead of running for the abandoned attempt.
  void IssueSend(const std::shared_ptr<RingOp>& op, int src, int dst,
                 std::size_t bytes, Callback done);
  // (Re)computes chunk sizes and the step count for the op's current ring.
  void PlanSteps(const std::shared_ptr<RingOp>& op);
  void ArmTimeout(const std::shared_ptr<RingOp>& op);
  void OnStepTimeout(const std::shared_ptr<RingOp>& op);

  // Binds the statistics instruments against the hub registry (private
  // fallback registry when no hub is installed).
  void BindInstruments();

  Simulator* sim_;
  interconnect::Fabric* fabric_;
  std::map<int, CommChannel> channels_;
  CollectiveOptions options_;
  ReformListener reform_listener_;
  std::set<int> dead_gpus_;

  telemetry::Hub* hub_ = nullptr;
  telemetry::MetricRegistry local_metrics_;
  telemetry::TrackId trace_track_ = -1;
  std::uint64_t next_span_id_ = 1;  // async span ids for collectives
  telemetry::Counter* collectives_completed_ = nullptr;
  telemetry::Gauge* collectives_inflight_ = nullptr;
  telemetry::Counter* reformations_ = nullptr;
  telemetry::Counter* step_timeouts_ = nullptr;
  telemetry::Counter* timeout_giveups_ = nullptr;
  telemetry::Counter* payload_bytes_total_ = nullptr;
};

}  // namespace collective
}  // namespace orion

#endif  // SRC_COLLECTIVE_COLLECTIVE_H_
