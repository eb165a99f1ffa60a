// Scheduler interface: the interception boundary.
//
// In the real system Orion is a dynamically-linked library whose wrappers
// intercept CUDA calls from each client and buffer them in per-client
// software queues (§5). Here the same boundary is the Scheduler::Enqueue
// call: client drivers hand every GPU op to the scheduler, which owns the
// software queues and decides when each op reaches the device. All baselines
// implement this same interface, so every collocation experiment differs
// only in policy.
#ifndef SRC_CORE_SCHEDULER_H_
#define SRC_CORE_SCHEDULER_H_

#include <string>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/ring.h"
#include "src/profiler/profiler.h"
#include "src/runtime/gpu_runtime.h"
#include "src/runtime/op.h"
#include "src/sim/simulator.h"

namespace orion {
namespace telemetry {
class Hub;
}  // namespace telemetry

namespace core {

using ClientId = int;

// What the scheduler knows about each attached client up front: its priority
// class and the offline profile of its workload (§5.2).
struct SchedClientInfo {
  ClientId id = 0;
  std::string name;
  bool high_priority = false;
  // Offline profile; owned by the harness, outlives the scheduler. May be
  // null for profile-agnostic baselines.
  const profiler::WorkloadProfile* profile = nullptr;
};

// A client op's completion hook. Client drivers capture only `this`; the
// policies wrap the hook with their own bookkeeping before submitting the
// op, and a 32-byte hook keeps the largest such wrapper (Orion's, 64 bytes)
// inside the simulator event's inline buffer, so a completion allocates
// nothing.
using OpCompletion = common::InlineFunction<void(), 16>;

// A client op plus its completion hook. The hook fires (in virtual time)
// when the op completes on the device; client drivers use it to measure
// request latency and to unblock after synchronous ops.
struct SchedOp {
  runtime::Op op;
  OpCompletion on_complete;
};

// The per-client state record of `clients` whose `id` is `id`, or null.
// Works on any vector of records with an `id` member, const or not.
template <typename Clients>
auto FindClient(Clients& clients, ClientId id) -> decltype(&clients[0]) {
  for (auto& client : clients) {
    if (client.id == id) {
      return &client;
    }
  }
  return nullptr;
}

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Host-side submission cost model: schedulers whose clients must share one
  // Python process (GPU Streams baseline) suffer GIL contention, inflating
  // per-op host overhead with the client count (§6.2.1).
  virtual double HostOverheadMultiplier(int num_clients) const {
    (void)num_clients;
    return 1.0;
  }

  // Binds the scheduler to the device runtime and the client set. Called
  // exactly once, before any Enqueue.
  virtual void Attach(Simulator* sim, runtime::GpuRuntime* rt,
                      std::vector<SchedClientInfo> clients) = 0;

  // Interception entry point: `client`'s framework issued a GPU op.
  virtual void Enqueue(ClientId client, SchedOp op) = 0;

  // Optional telemetry sink (src/telemetry): policies that keep decision
  // statistics publish them as registry counters and, when tracing is
  // enabled, emit span/instant events for their scheduling decisions. Call
  // before Attach. Default: no telemetry.
  virtual void set_telemetry(telemetry::Hub* hub) { (void)hub; }

  // --- Fault hooks (src/fault). Default: ignore. ---
  // `client`'s process died. Policies that buffer per-client queues should
  // drop its pending ops, stop issuing on its behalf, and release whatever
  // device memory it held, without disturbing the surviving clients.
  virtual void OnClientCrash(ClientId client) { (void)client; }
  // The device lost SMs or memory bandwidth (Device::DegradeSms /
  // ScaleMembw already applied). Policies whose thresholds derive from
  // device capacity should re-resolve them against the shrunken pool.
  virtual void OnDeviceDegraded() {}
};

}  // namespace core
}  // namespace orion

#endif  // SRC_CORE_SCHEDULER_H_
