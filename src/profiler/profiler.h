// Offline workload profiler (§5.2 of the paper).
//
// Before collocation, Orion profiles each DNN workload alone on a dedicated
// (simulated) GPU — the stand-in for the paper's Nsight Compute + Nsight
// Systems runs. The profiler:
//   * replays `measured_requests` requests (default 10, like the paper's
//     first-10-minibatches methodology) through the device with realistic
//     host-side launch pacing,
//   * records each kernel's measured execution time,
//   * classifies kernels as compute-/memory-bound/unknown via the roofline
//     (>60% rule) described in §5.2,
//   * computes sm_needed from the occupancy formula,
//   * measures the run-alone request latency used to set DUR_THRESHOLD.
//
// The result is a lookup table indexed by kernel id, exactly what the Orion
// scheduler loads at startup. Profiles can be saved to / loaded from files.
//
// Like the paper's offline profile files, each input is profiled once per
// process: SharedProfile memoizes on the full (DeviceSpec, WorkloadSpec,
// ProfileOptions) value and hands every caller the one shared profile;
// ProfileWorkload hands out a copy, which a caller may edit (fault injection
// poisons them) without touching others.
#ifndef SRC_PROFILER_PROFILER_H_
#define SRC_PROFILER_PROFILER_H_

#include <compare>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/time_types.h"
#include "src/gpusim/device_spec.h"
#include "src/gpusim/kernel.h"
#include "src/workloads/models.h"

namespace orion {
namespace profiler {

struct KernelProfile {
  std::uint64_t kernel_id = 0;
  std::string name;
  DurationUs duration_us = 0.0;  // measured run-alone execution time
  double compute_util = 0.0;
  double membw_util = 0.0;
  gpusim::ResourceProfile profile = gpusim::ResourceProfile::kUnknown;
  int sm_needed = 0;
};

struct WorkloadProfile {
  std::string workload_name;
  std::string device_name;
  std::vector<KernelProfile> kernels;  // request order
  DurationUs request_latency_us = 0.0;  // mean run-alone request latency

  // Aggregate utilization measured during the profiling run (Table 1).
  double avg_compute_util = 0.0;
  double avg_membw_util = 0.0;
  double avg_sm_busy = 0.0;

  const KernelProfile* Find(std::uint64_t kernel_id) const;
  void RebuildIndex();

 private:
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

struct ProfileOptions {
  int warmup_requests = 2;
  int measured_requests = 10;
  // Host-side per-op submission overhead (framework + wrapper cost).
  DurationUs launch_overhead_us = 6.0;

  auto operator<=>(const ProfileOptions&) const = default;
};

// Runs the offline profiling phase on a dedicated simulated device, once per
// distinct input per process (thread-safe), and returns the memoized
// profile itself: shared by every caller, immutable, valid until exit.
const WorkloadProfile& SharedProfile(const gpusim::DeviceSpec& device,
                                     const workloads::WorkloadSpec& spec,
                                     const ProfileOptions& options = {});

// A copy of SharedProfile(...), for callers that edit their profile.
WorkloadProfile ProfileWorkload(const gpusim::DeviceSpec& device,
                                const workloads::WorkloadSpec& spec,
                                const ProfileOptions& options = {});

// Text (key=value / CSV hybrid) serialisation, the analogue of the profile
// files Orion generates per model. LoadProfile returns std::nullopt on a
// malformed file (truncated, non-numeric field, out-of-range kernel class)
// and sets `error` to a message that names the offending line.
void SaveProfile(const WorkloadProfile& profile, std::ostream& os);
std::optional<WorkloadProfile> LoadProfile(std::istream& is, std::string* error);

}  // namespace profiler
}  // namespace orion

#endif  // SRC_PROFILER_PROFILER_H_
