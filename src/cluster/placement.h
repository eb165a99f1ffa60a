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
//   * BestGpuFor places one job at a time on the live GPU that adds the
//     least predicted interference, subject to memory capacity, a slot
//     limit and at most one latency-critical (high-priority) job per GPU.
// The serving and datacenter engines place every replica through it.
#ifndef SRC_CLUSTER_PLACEMENT_H_
#define SRC_CLUSTER_PLACEMENT_H_

#include <optional>
#include <string>
#include <vector>

#include "src/gpusim/device_spec.h"
#include "src/profiler/profiler.h"
#include "src/workloads/models.h"

namespace orion {
namespace cluster {

struct JobSignature {
  std::string name;
  workloads::WorkloadSpec workload;
  bool high_priority = false;

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

// Incremental placement: the serving tier adds and removes replicas one at
// a time against live GPU state rather than re-packing the whole cluster.
struct GpuResidents {
  bool alive = true;                // dead GPUs never receive placements
  std::vector<JobSignature> jobs;   // current residents
  std::size_t used_bytes = 0;
};

// Picks the alive GPU that can host `job` with the least added
// PairInterference, subject to memory capacity, max_jobs_per_gpu, and the
// one-latency-critical-job-per-GPU rule; an emptier GPU breaks ties, then
// the lowest index. Returns std::nullopt when no GPU fits.
std::optional<int> BestGpuFor(const JobSignature& job, const std::vector<GpuResidents>& gpus,
                              std::size_t gpu_memory_bytes, int max_jobs_per_gpu);

}  // namespace cluster
}  // namespace orion

#endif  // SRC_CLUSTER_PLACEMENT_H_
