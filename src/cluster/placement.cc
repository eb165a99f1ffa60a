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

namespace {

// Jobs one GPU hosts at most in a batch placement (Place, PlaceRoundRobin).
constexpr int kMaxJobsPerGpu = 2;

// Visits the k-combinations of {0..n-1} in lexicographic order.
template <typename Fn>
void ForEachCombination(int n, int k, Fn visit) {
  std::vector<int> set(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    set[static_cast<std::size_t>(i)] = i;
  }
  while (true) {
    visit(set);
    int i = k - 1;
    while (i >= 0 && set[static_cast<std::size_t>(i)] == n - k + i) {
      --i;
    }
    if (i < 0) {
      return;
    }
    ++set[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < k; ++j) {
      set[static_cast<std::size_t>(j)] = set[static_cast<std::size_t>(j - 1)] + 1;
    }
  }
}

}  // namespace

std::optional<Placement> PlacementEngine::Place(const std::vector<JobSignature>& jobs,
                                                const PlacementOptions& options) {
  ORION_CHECK(options.num_gpus >= 1);
  if (options.topology.has_value()) {
    ORION_CHECK_MSG(options.topology->num_gpus() == options.num_gpus,
                    "topology GPU count does not match num_gpus");
  }
  const std::size_t capacity = options.device.memory_bytes;

  Placement placement;
  placement.gpu_jobs.assign(static_cast<std::size_t>(options.num_gpus), {});
  placement.job_gpus.assign(jobs.size(), {});
  std::vector<std::size_t> used_bytes(static_cast<std::size_t>(options.num_gpus), 0);
  std::vector<bool> has_hp(static_cast<std::size_t>(options.num_gpus), false);

  // Greedy in a stable order: latency-critical jobs first (they anchor
  // GPUs), then by memory footprint descending (hardest to pack first),
  // width as the final tie-break.
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (jobs[a].high_priority != jobs[b].high_priority) {
      return jobs[a].high_priority;
    }
    if (jobs[a].state_bytes != jobs[b].state_bytes) {
      return jobs[a].state_bytes > jobs[b].state_bytes;
    }
    return jobs[a].gpus_required > jobs[b].gpus_required;
  });

  for (const std::size_t job : order) {
    const JobSignature& sig = jobs[job];
    const int width = std::max(1, sig.gpus_required);
    if (width > options.num_gpus) {
      return std::nullopt;
    }

    // Best candidate set: fewest PCIe-crossing ring hops first (NVLink
    // pairs beat cross-pair sets), then least added interference with a
    // small emptier-is-better tie-break, then lexicographic GPU order.
    std::vector<int> best_set;
    auto best_score = std::make_pair(std::numeric_limits<int>::max(),
                                     std::numeric_limits<double>::infinity());
    ForEachCombination(options.num_gpus, width, [&](const std::vector<int>& set) {
      double added = 0.0;
      std::size_t occupants = 0;
      for (const int gpu : set) {
        const auto g = static_cast<std::size_t>(gpu);
        if (static_cast<int>(placement.gpu_jobs[g].size()) >= kMaxJobsPerGpu) {
          return;
        }
        if (used_bytes[g] + sig.state_bytes > capacity) {
          return;
        }
        if (sig.high_priority && has_hp[g]) {
          return;  // one latency-critical job per GPU
        }
        for (const std::size_t other : placement.gpu_jobs[g]) {
          added += PairInterference(sig, jobs[other]);
        }
        occupants += placement.gpu_jobs[g].size();
      }
      const int cross_hops =
          options.topology.has_value() && width > 1
              ? options.topology->CrossPcieHops(options.topology->PreferredRing(set))
              : 0;
      const auto score =
          std::make_pair(cross_hops, added + 1e-3 * static_cast<double>(occupants));
      if (score < best_score) {
        best_score = score;
        best_set = set;
      }
    });
    if (best_set.empty()) {
      return std::nullopt;  // infeasible under the given limits
    }
    for (const int gpu : best_set) {
      const auto g = static_cast<std::size_t>(gpu);
      for (const std::size_t other : placement.gpu_jobs[g]) {
        placement.predicted_interference += PairInterference(sig, jobs[other]);
      }
      placement.gpu_jobs[g].push_back(job);
      used_bytes[g] += sig.state_bytes;
      has_hp[g] = has_hp[g] || sig.high_priority;
    }
    placement.job_gpus[job] = best_set;
  }
  return placement;
}

std::optional<Placement> PlacementEngine::PlaceRoundRobin(const std::vector<JobSignature>& jobs,
                                                          const PlacementOptions& options) {
  ORION_CHECK(options.num_gpus >= 1);
  const std::size_t capacity = options.device.memory_bytes;
  Placement placement;
  placement.gpu_jobs.assign(static_cast<std::size_t>(options.num_gpus), {});
  placement.job_gpus.assign(jobs.size(), {});
  std::vector<std::size_t> used_bytes(static_cast<std::size_t>(options.num_gpus), 0);
  // Multi-GPU jobs take consecutive GPU indices from the rotating cursor,
  // link topology ignored (that is the point of the baseline).
  std::size_t cursor = 0;
  for (std::size_t job = 0; job < jobs.size(); ++job) {
    const int width = std::max(1, jobs[job].gpus_required);
    if (width > options.num_gpus) {
      return std::nullopt;
    }
    for (int i = 0; i < width; ++i) {
      const auto g = (cursor + static_cast<std::size_t>(i)) %
                     static_cast<std::size_t>(options.num_gpus);
      if (static_cast<int>(placement.gpu_jobs[g].size()) >= kMaxJobsPerGpu ||
          used_bytes[g] + jobs[job].state_bytes > capacity) {
        return std::nullopt;
      }
      placement.gpu_jobs[g].push_back(job);
      used_bytes[g] += jobs[job].state_bytes;
      placement.job_gpus[job].push_back(static_cast<int>(g));
    }
    std::sort(placement.job_gpus[job].begin(), placement.job_gpus[job].end());
    cursor = (cursor + static_cast<std::size_t>(width)) %
             static_cast<std::size_t>(options.num_gpus);
  }
  placement.predicted_interference = ScorePlacement(jobs, placement);
  return placement;
}

std::optional<int> PlacementEngine::BestGpuFor(const JobSignature& job,
                                               const std::vector<GpuResidents>& gpus,
                                               std::size_t gpu_memory_bytes,
                                               int max_jobs_per_gpu) {
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

double PlacementEngine::ScorePlacement(const std::vector<JobSignature>& jobs,
                                       const Placement& placement) {
  double total = 0.0;
  for (const auto& gpu : placement.gpu_jobs) {
    for (std::size_t i = 0; i < gpu.size(); ++i) {
      for (std::size_t j = i + 1; j < gpu.size(); ++j) {
        total += PairInterference(jobs[gpu[i]], jobs[gpu[j]]);
      }
    }
  }
  return total;
}

}  // namespace cluster
}  // namespace orion
