// Multi-GPU experiment harness: DDP training over a link topology.
//
// Extends the single-device experiment harness to a node of N simulated
// GPUs: one GpuRuntime per topology GPU, all sharing one interconnect Fabric
// (every device's copy engine is attached to it, so host copies contend with
// collective traffic), and a CollectiveEngine issuing ring collectives on
// per-GPU communication streams. The DDP job runs lockstep data-parallel
// iterations from a DdpIterationPlan: paced kernel submission per GPU,
// bucketed gradient all-reduce overlapped with the backward pass, optimizer
// update gated on the last bucket. An optional bandwidth-hog client streams
// host->device copies on one GPU for the whole run, the collocated
// best-effort traffic of the ext_multi_gpu_ddp bench.
#ifndef SRC_HARNESS_MULTI_GPU_H_
#define SRC_HARNESS_MULTI_GPU_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/collective/collective.h"
#include "src/common/stats.h"
#include "src/fault/fault_plan.h"
#include "src/gpusim/device_spec.h"
#include "src/interconnect/topology.h"
#include "src/telemetry/telemetry.h"
#include "src/workloads/ddp.h"

namespace orion {
namespace harness {

// Best-effort client that saturates one GPU's PCIe host link with
// back-to-back 32 MiB H2D copies (e.g. a data-loading / swapping-heavy job).
struct BandwidthHogConfig {
  int gpu = 0;
};

struct MultiGpuConfig {
  gpusim::DeviceSpec device = gpusim::DeviceSpec::V100_16GB();
  interconnect::NodeTopology topology = interconnect::NodeTopology::PcieOnly(1);
  // The DDP job runs on GPUs [0, ddp.num_gpus); ring order is chosen by
  // topology.PreferredRing (NVLink-adjacent pairs first).
  workloads::DdpConfig ddp;
  int iterations = 10;
  DurationUs launch_overhead_us = 6.0;  // host cost per kernel launch
  std::optional<BandwidthHogConfig> hog;
  // Collective fault-detection policy (step timeouts, ring re-formation).
  // Defaults keep detection off — required for fault plans with link/GPU
  // faults that should be survived rather than waited out.
  collective::CollectiveOptions collective;
  // Fault scenario injected into the run (src/fault): link flaps/downs and
  // GPU deaths target the fabric, device degradation targets the GPU with
  // the event's index. Empty = fault-free.
  fault::FaultPlan fault_plan;

  // Optional telemetry sink (src/telemetry). When set, the collective
  // engine, fabric and fault injector publish their counters into the hub
  // registry and the run's results are mirrored as "ddp.*" metrics; with
  // tracing enabled every device's kernel records are collected (one track
  // per device) next to collective/fabric async spans and fault markers.
  telemetry::Hub* telemetry = nullptr;
};

struct LinkTraffic {
  std::string name;
  interconnect::LinkKind kind = interconnect::LinkKind::kPcie;
  double forward_bytes = 0.0;   // node_a -> node_b
  double backward_bytes = 0.0;  // node_b -> node_a
};

struct MultiGpuResult {
  int num_gpus = 0;
  std::vector<int> ring;  // ring order actually used
  std::size_t iterations = 0;
  std::size_t param_bytes = 0;
  std::size_t buckets_per_iteration = 0;
  DurationUs total_us = 0.0;          // start of iteration 0 to last update
  LatencyRecorder iteration_us;       // per-iteration wall time
  LatencyRecorder allreduce_us;       // per-bucket latency (issue -> done)
  DurationUs compute_alone_us = 0.0;  // fwd+bwd+update alone time, one GPU
  std::size_t hog_copies = 0;
  std::vector<LinkTraffic> link_traffic;

  // Fault outcome. On a fault-free run: completed, zero counters, and
  // final_world_size == num_gpus.
  bool completed = true;           // all iterations ran (false: stalled run)
  std::size_t faults_injected = 0;
  std::size_t ring_reformations = 0;
  std::size_t step_timeouts = 0;
  std::size_t timeout_giveups = 0;
  std::vector<int> dead_gpus;      // GPUs the collective engine expelled
  int final_world_size = 0;        // surviving DDP world size
};

MultiGpuResult RunDdpExperiment(const MultiGpuConfig& config);

}  // namespace harness
}  // namespace orion

#endif  // SRC_HARNESS_MULTI_GPU_H_
