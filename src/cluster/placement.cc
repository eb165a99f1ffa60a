#include "src/cluster/placement.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/check.h"

namespace orion {
namespace cluster {

JobSignature MakeSignature(const gpusim::DeviceSpec& device,
                           const workloads::WorkloadSpec& workload, bool high_priority) {
  JobSignature sig;
  sig.name = workloads::WorkloadName(workload);
  sig.workload = workload;
  sig.high_priority = high_priority;
  sig.state_bytes = workloads::ApproxModelStateBytes(workload);

  // Time-weighted aggregates over the kernel sequence: this is what the
  // offline profile provides without running any collocation.
  const auto kernels = workloads::BuildKernels(device, workload);
  double total_time = 0.0;
  double compute_weighted = 0.0;
  double memory_weighted = 0.0;
  double compute_bound_time = 0.0;
  for (const auto& kernel : kernels) {
    total_time += kernel.duration_us;
    compute_weighted += kernel.duration_us * kernel.compute_util;
    memory_weighted += kernel.duration_us * kernel.membw_util;
    if (gpusim::ClassifyKernel(kernel) == gpusim::ResourceProfile::kComputeBound) {
      compute_bound_time += kernel.duration_us;
    }
  }
  if (total_time > 0.0) {
    sig.compute_intensity = compute_weighted / total_time;
    sig.memory_intensity = memory_weighted / total_time;
    sig.compute_bound_fraction = compute_bound_time / total_time;
  }
  return sig;
}

double PairInterference(const JobSignature& a, const JobSignature& b) {
  // Same-resource pressure: the smaller of the two jobs' demands on each
  // resource is the contended share (the rest would fit anyway). Weight the
  // dominant-phase overlap as well: two jobs that are compute-bound most of
  // the time collide in time, not just in aggregate.
  const double compute_clash = std::min(a.compute_intensity, b.compute_intensity);
  const double memory_clash = std::min(a.memory_intensity, b.memory_intensity);
  const double phase_clash =
      std::min(a.compute_bound_fraction, b.compute_bound_fraction) +
      std::min(1.0 - a.compute_bound_fraction, 1.0 - b.compute_bound_fraction);
  return compute_clash + memory_clash + 0.5 * phase_clash;
}

std::optional<int> BestGpuFor(const JobSignature& job, const std::vector<GpuResidents>& gpus,
                              std::size_t gpu_memory_bytes, int max_jobs_per_gpu) {
  ORION_CHECK(max_jobs_per_gpu >= 1);
  std::optional<int> best;
  auto best_score = std::make_pair(std::numeric_limits<double>::infinity(),
                                   std::numeric_limits<std::size_t>::max());
  for (std::size_t g = 0; g < gpus.size(); ++g) {
    const GpuResidents& gpu = gpus[g];
    if (!gpu.alive || static_cast<int>(gpu.jobs.size()) >= max_jobs_per_gpu ||
        gpu.used_bytes + job.state_bytes > gpu_memory_bytes) {
      continue;
    }
    double added = 0.0;
    bool has_hp = false;
    for (const JobSignature& other : gpu.jobs) {
      added += PairInterference(job, other);
      has_hp = has_hp || other.high_priority;
    }
    if (job.high_priority && has_hp) {
      continue;  // one latency-critical job per GPU
    }
    const auto score = std::make_pair(added, gpu.jobs.size());
    if (score < best_score) {
      best_score = score;
      best = static_cast<int>(g);
    }
  }
  return best;
}

}  // namespace cluster
}  // namespace orion
