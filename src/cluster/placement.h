// Cluster-manager co-design prototype (paper §7, Discussion).
//
// The paper proposes letting the cluster manager use each job's
// compute/memory kernel profiles to place jobs with complementary resource
// profiles on the same GPU(s). This module implements that idea at the
// cluster level:
//   * a JobSignature summarises a workload's offline profile into aggregate
//     compute/memory intensity plus its GPU-memory footprint,
//   * PairInterference predicts how much two jobs sharing a GPU will
//     contend (same-resource pressure scores high, complementary low),
//   * PlacementEngine assigns jobs to GPUs greedily, minimising predicted
//     interference subject to memory capacity and at most one
//     latency-critical (high-priority) job per GPU.
// The ext_cluster_placement bench validates predictions against full
// collocation simulations.
#ifndef SRC_CLUSTER_PLACEMENT_H_
#define SRC_CLUSTER_PLACEMENT_H_

#include <optional>
#include <string>
#include <vector>

#include "src/gpusim/device_spec.h"
#include "src/interconnect/topology.h"
#include "src/profiler/profiler.h"
#include "src/workloads/models.h"

namespace orion {
namespace cluster {

struct JobSignature {
  std::string name;
  workloads::WorkloadSpec workload;
  bool high_priority = false;
  // Multi-GPU (data-parallel) jobs occupy a slot and `state_bytes` on each
  // of `gpus_required` GPUs; the engine prefers link-adjacent GPU sets
  // (NVLink pairs) so the job's all-reduce ring avoids the PCIe root.
  int gpus_required = 1;

  // Time-weighted mean utilization over the job's kernels (offline profile).
  double compute_intensity = 0.0;
  double memory_intensity = 0.0;
  // Fraction of its kernel time spent in compute-bound kernels.
  double compute_bound_fraction = 0.0;

  std::size_t state_bytes = 0;
};

// Builds a signature from the offline profiling phase (§5.2).
JobSignature MakeSignature(const gpusim::DeviceSpec& device,
                           const workloads::WorkloadSpec& workload, bool high_priority);

// Predicted contention if `a` and `b` share one GPU. Higher is worse. The
// score is the pressure both jobs put on the same resource: two
// compute-heavy jobs or two memory-heavy jobs score high; a compute-heavy
// plus a memory-heavy job scores low (§3.2's collocation insight).
double PairInterference(const JobSignature& a, const JobSignature& b);

struct Placement {
  // gpu_jobs[g] lists indices into the input job vector; a multi-GPU job
  // appears under every GPU it occupies.
  std::vector<std::vector<std::size_t>> gpu_jobs;
  // job_gpus[j] lists the GPUs job j landed on (ascending; size 1 for
  // single-GPU jobs).
  std::vector<std::vector<int>> job_gpus;
  // Sum of PairInterference over all collocated pairs.
  double predicted_interference = 0.0;
};

struct PlacementOptions {
  int num_gpus = 1;
  gpusim::DeviceSpec device = gpusim::DeviceSpec::V100_16GB();  // memory_bytes caps each GPU
  // Node link topology, used to score candidate GPU sets for multi-GPU jobs
  // (fewer PCIe-crossing ring hops wins). Unset = all sets link-equivalent.
  // When set, its GPU count must equal num_gpus.
  std::optional<interconnect::NodeTopology> topology;
};

// Incremental placement: the serving tier adds and removes replicas one at
// a time against live GPU state rather than re-packing the whole cluster.
struct GpuResidents {
  bool alive = true;                // dead GPUs never receive placements
  std::vector<JobSignature> jobs;   // current residents
  std::size_t used_bytes = 0;
};

class PlacementEngine {
 public:
  // Returns std::nullopt when the jobs cannot be packed (memory or slot
  // limits). Deterministic for a given input order.
  static std::optional<Placement> Place(const std::vector<JobSignature>& jobs,
                                        const PlacementOptions& options);

  // Baseline for comparison: round-robin placement ignoring profiles.
  static std::optional<Placement> PlaceRoundRobin(const std::vector<JobSignature>& jobs,
                                                  const PlacementOptions& options);

  // Predicted interference of an existing placement (for scoring baselines).
  static double ScorePlacement(const std::vector<JobSignature>& jobs,
                               const Placement& placement);

  // Picks the alive GPU that can host `job` with the least added
  // PairInterference, subject to memory capacity, max_jobs_per_gpu, and the
  // one-latency-critical-job-per-GPU rule; an emptier GPU breaks ties, then
  // the lowest index. Returns std::nullopt when no GPU fits.
  static std::optional<int> BestGpuFor(const JobSignature& job,
                                       const std::vector<GpuResidents>& gpus,
                                       std::size_t gpu_memory_bytes, int max_jobs_per_gpu);
};

}  // namespace cluster
}  // namespace orion

#endif  // SRC_CLUSTER_PLACEMENT_H_
