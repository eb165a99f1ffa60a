// Fault plans: deterministic, timed fault injection for the simulation.
//
// A FaultPlan is a list of timed fault events — the failure-scenario analogue
// of a workload trace. Orion's paper assumes a healthy device and fresh
// profiles (§5.1.1, §7); production GPU sharing earns its keep when SMs
// retire (ECC), links flap, clients crash or hang, and profiles go stale.
// The plan is pure data built in code by the caller, the FaultInjector
// (fault_injector.h) schedules it on the discrete-event clock, and the
// attacked layers implement the graceful-degradation responses.
//
// Fault classes:
//   * kDeviceDegrade — a GPU loses `sms_lost` SMs and/or its memory
//     bandwidth drops to `membw_factor` of peak at `at_us`. The device
//     rebalances resident SM grants (never preempting running blocks) and
//     the Orion scheduler re-resolves SM_THRESHOLD.
//   * kLinkDegrade / kLinkDown — a fabric link direction's bandwidth drops
//     to `factor` (0 for kLinkDown) for `duration_us` (0 = permanent).
//     In-flight transfers re-rate or stall; the collective engine detects a
//     stalled ring step by timeout and waits out the flap.
//   * kGpuDown — every link touching `gpu` goes down (the GPU fell off the
//     bus). The collective engine re-forms its ring without the dead GPU and
//     surfaces the degraded world size.
//   * kClientCrash — the client process dies: the scheduler quarantines its
//     software queues and releases its device memory; resident kernels run
//     to completion (no preemption) but their completions are orphaned.
//   * kClientHang — the client submits a runaway kernel of `runaway_us` and
//     stops responding; the scheduler's watchdog must keep DUR_THRESHOLD
//     accounting from deadlocking schedule_be.
//   * kNodeDown — a whole server of the datacenter cluster dies at `at_us`
//     (kernel panic, PSU failure, maintenance gone wrong): every GPU on node
//     `node` goes with it, its NIC link drops, and the serving control plane
//     (src/datacenter) re-routes queued, in-flight and in-network requests to
//     surviving nodes. Ignored by single-node consumers.
//   * kProfilePoison — every registered workload profile is perturbed:
//     each kernel entry is dropped with probability `drop_fraction`
//     (scheduler sees a miss and falls back to the conservative memory-bound
//     classification) or its duration is multiplied by `perturb_factor`
//     (stale DUR_THRESHOLD accounting). Seeded, so poisoning is
//     deterministic.
#ifndef SRC_FAULT_FAULT_PLAN_H_
#define SRC_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <vector>

#include "src/common/time_types.h"

namespace orion {
namespace fault {

enum class FaultKind : std::uint8_t {
  kDeviceDegrade,
  kLinkDegrade,
  kLinkDown,
  kGpuDown,
  kClientCrash,
  kClientHang,
  kProfilePoison,
  kNodeDown,
};

// Stable name of a fault kind (the injector's trace markers use it).
const char* FaultKindName(FaultKind kind);

// Which direction(s) of a full-duplex link a link fault hits.
enum class LinkDir : std::uint8_t { kForward, kBackward, kBoth };

// One timed fault. Only the fields of the event's kind are meaningful; the
// rest keep their defaults.
struct FaultEvent {
  FaultKind kind = FaultKind::kDeviceDegrade;
  TimeUs at_us = 0.0;

  // kDeviceDegrade / kGpuDown: target GPU (index in the fabric topology; 0
  // for the single shared device of the collocation harness; on a serving
  // cluster the node-major global index, node * gpus_per_node + local).
  int gpu = 0;
  int sms_lost = 0;            // kDeviceDegrade
  double membw_factor = 1.0;   // kDeviceDegrade: remaining fraction of peak

  // kLinkDegrade / kLinkDown.
  int link = -1;               // interconnect::LinkId
  LinkDir dir = LinkDir::kBoth;
  double factor = 0.0;         // kLinkDegrade: remaining bandwidth fraction
  DurationUs duration_us = 0.0;  // > 0: restore to full speed after this long

  // kClientCrash / kClientHang.
  int client = -1;
  DurationUs runaway_us = 0.0;  // kClientHang: duration of the runaway kernel

  // kNodeDown: target datacenter node, 0..ClusterSpec::num_nodes-1.
  int node = -1;

  // kProfilePoison.
  double perturb_factor = 1.0;
  double drop_fraction = 0.0;
  std::uint64_t seed = 1;
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
};

}  // namespace fault
}  // namespace orion

#endif  // SRC_FAULT_FAULT_PLAN_H_
