// Discrete-event transfer engine over a NodeTopology.
//
// Fluid-flow model of concurrent link transfers, the interconnect analogue of
// the Device's SM model: every transfer in flight progresses simultaneously,
// and each link direction divides its bandwidth EQUALLY among the transfers
// currently crossing it (PCIe and NVLink arbitrate round-robin at packet
// granularity, which a fluid equal split approximates). A transfer's rate is
// the minimum share along its route; when membership on any link changes the
// affected rates are recomputed and the next completion event is rescheduled,
// so completion times are exact under the model and bit-deterministic.
//
// Rebalance is incremental. Under equal split, a transfer's rate depends only
// on the member count and fault factor of the link directions it crosses, so
// an enqueue/complete/fault touching direction d can change the rate of
// exactly the transfers crossing d. The fabric keeps a per-direction member
// index; mutations mark their directions dirty and RefreshRates() re-solves
// only the members of dirty directions — the whole-fabric recompute survives
// as a debug-mode oracle (set_debug_oracle) that re-derives every rate from
// scratch and checks exact equality. A warm fabric starts, integrates and
// retires a transfer without allocating (given a callback std::function keeps
// inline): transfers live in a reusable slab with inline routes (Path), and
// `active_` preserves activation order, so byte accrual and completion
// callbacks happen in the same order (and with the same floating-point
// results) as the original list-walk implementation.
//
// Deliberately NOT modeled: work-conserving redistribution of a bottlenecked
// transfer's unused share on its other links (max-min fairness across the
// fabric), per-message protocol overheads beyond a fixed per-transfer setup
// latency, and root-complex bandwidth limits (each PCIe link is the
// bottleneck, matching hosts whose root ports are not oversubscribed).
//
// Fabric implements gpusim::HostLinkModel: a Device attached via
// Device::AttachHostLink routes its host<->device copy chunks through the
// fabric's PCIe links, where they contend with peer-to-peer and collective
// traffic.
#ifndef SRC_INTERCONNECT_FABRIC_H_
#define SRC_INTERCONNECT_FABRIC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/time_types.h"
#include "src/gpusim/host_link.h"
#include "src/interconnect/topology.h"
#include "src/sim/simulator.h"
#include "src/telemetry/telemetry.h"

namespace orion {
namespace interconnect {

// Identifies one in-flight transfer (returned by Fabric::StartTransfer, used
// by CancelTransfer). Ids are never reused.
using TransferId = std::uint64_t;

class Fabric : public gpusim::HostLinkModel {
 public:
  using Callback = std::function<void()>;

  Fabric(Simulator* sim, NodeTopology topology);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  const NodeTopology& topology() const { return topology_; }

  // Telemetry (src/telemetry): transfer statistics become "fabric.*" registry
  // counters and, with tracing on, every transfer (host copies included) is
  // an async span on the `track` track named "src->dst" with its byte count.
  // Transfer ids are per fabric, so fabrics sharing a hub need distinct
  // tracks. Call before starting transfers.
  void set_telemetry(telemetry::Hub* hub, const std::string& track = "fabric");

  // Starts an asynchronous transfer of `bytes` from node `src` to node `dst`
  // (kHostNode for host memory). `done` fires via a simulator event once the
  // payload has fully crossed every link of the route. Transfers first spend
  // the route's summed link latency in a setup phase that consumes no
  // bandwidth, then stream bytes at the fair-share rate. Returns an id usable
  // with CancelTransfer while the transfer is in flight.
  TransferId StartTransfer(int src, int dst, std::size_t bytes, Callback done);

  // gpusim::HostLinkModel — copy-engine chunks from an attached Device.
  void StartHostCopy(int gpu, std::size_t bytes, bool to_device,
                     std::function<void()> done) override;

  // Transfers currently in flight (setup phase included).
  int ActiveTransfers() const;
  // Cumulative payload bytes that have crossed `link` in the given direction
  // since construction. (A double: bytes accrue fluidly.)
  double BytesMoved(LinkId link, bool forward) const;
  std::size_t transfers_completed() const { return transfers_completed_; }
  std::size_t transfers_cancelled() const { return transfers_cancelled_; }

  // --- Fault injection (src/fault). ---
  // Scales one direction of a link to `factor` (0 <= factor; 1 = healthy,
  // 0 = down). Transfers crossing a dead direction stall in place — they
  // keep their route and resume when the factor comes back, so a flap costs
  // only the outage interval. Affected rates are recomputed immediately.
  void SetLinkFactor(LinkId link, bool forward, double factor);
  // The GPU fell off the bus: both directions of every link touching it go
  // down for good (FaultKind::kGpuDown).
  void DisconnectGpu(int gpu);
  // A GPU is alive while at least one direction of at least one of its links
  // carries bandwidth. DisconnectGpu zeroes every link of the GPU, so this is
  // how the collective engine distinguishes a dead peer from a flap.
  bool GpuAlive(int gpu) const;
  // Aborts an in-flight transfer (streaming or still in setup): remaining
  // bytes are dropped, bytes already moved stay counted, and the completion
  // callback still fires (via a zero-delay event; after the setup latency if
  // the transfer had not started streaming). Returns false if the id is not
  // in flight.
  bool CancelTransfer(TransferId id);

  // --- Debug oracle. ---
  // When on, every incremental rebalance is cross-checked against a
  // whole-fabric from-scratch solve (the original solver); any divergence —
  // member counts or a single rate bit — is a fatal ORION_CHECK. Costs the
  // full O(transfers x route) recompute per mutation; meant for tests and
  // the fabric churn property suite, not production runs.
  void set_debug_oracle(bool on) { debug_oracle_ = on; }
  std::size_t debug_oracle_checks() const { return debug_oracle_checks_; }

 private:
  struct Transfer {
    TransferId id = 0;
    Path route;
    double remaining = 0.0;  // bytes
    double rate = 0.0;       // cached fair-share rate, bytes/us
    Callback done;
    bool cancelled_in_setup = false;
  };

  // Per link-direction rebalance index: how many route hops of streaming
  // transfers cross this direction (a transfer crossing twice counts twice,
  // matching the equal-split share it receives), and which slab slots they
  // are. `members` is unordered; duplicates mirror the hop multiplicity.
  struct DirState {
    int count = 0;
    std::vector<std::uint32_t> members;
    bool dirty = false;
  };

  static std::size_t DirIndex(const Hop& hop) {
    return static_cast<std::size_t>(hop.link) * 2 + (hop.forward ? 1 : 0);
  }

  std::uint32_t AllocTransferSlot();
  void ReleaseTransferSlot(std::uint32_t slot);

  // Dirty-direction propagation: mutations call AddToDirs/RemoveFromDirs/
  // MarkDirty, then RefreshRates re-solves exactly the members of dirty
  // directions.
  void AddToDirs(std::uint32_t slot);
  void RemoveFromDirs(std::uint32_t slot);
  void MarkDirty(std::size_t dir);
  void RefreshRates();
  double SolveRate(const Transfer& transfer) const;

  // Integrates all in-flight transfers' progress (and the per-link byte
  // counters) from last_update_ to now at the current cached rates.
  void AdvanceTo(TimeUs now);
  // Original whole-fabric solver, kept as the debug oracle: per-transfer
  // rates (activation order) from a from-scratch membership count.
  std::vector<double> OracleRates() const;
  void CheckOracle();
  // Retires finished transfers and (re)schedules the next completion event.
  // Completion callback of the `completion_event_` timer.
  void Update();
  // Retire sweep + completion-event reschedule; cached rates must be fresh.
  void RetireAndReschedule();
  void Activate(std::uint32_t slot);
  void FinishSetup(std::uint32_t slot);

  Simulator* sim_;
  NodeTopology topology_;
  std::vector<Transfer> slab_;                    // reusable transfer slots
  std::vector<std::uint32_t> free_transfer_slots_;
  std::vector<std::uint32_t> active_;  // streaming, in activation order
  std::vector<std::uint32_t> setup_;   // still in their latency phase
  std::vector<DirState> dirs_;         // indexed by DirIndex
  std::vector<std::size_t> dirty_dirs_;
  std::vector<double> bytes_moved_;  // indexed by DirIndex
  std::vector<double> link_factor_;  // indexed by DirIndex; 1.0 = healthy
  std::uint64_t next_seq_ = 0;
  TimeUs last_update_ = 0.0;
  EventHandle completion_event_;
  std::size_t transfers_completed_ = 0;
  std::size_t transfers_cancelled_ = 0;
  bool debug_oracle_ = false;
  std::size_t debug_oracle_checks_ = 0;

  telemetry::Hub* hub_ = nullptr;
  telemetry::TrackId trace_track_ = -1;
  telemetry::Counter* transfers_started_metric_ = nullptr;
  telemetry::Counter* bytes_requested_metric_ = nullptr;
};

}  // namespace interconnect
}  // namespace orion

#endif  // SRC_INTERCONNECT_FABRIC_H_
