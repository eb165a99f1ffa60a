#include "src/workloads/cost_model.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace orion {
namespace workloads {

gpusim::KernelDesc BuildKernel(const gpusim::DeviceSpec& spec, const KernelWork& work,
                               std::uint64_t kernel_id) {
  ORION_CHECK_MSG(work.flops >= 0.0 && work.bytes >= 0.0,
                  "negative work in kernel " << work.name);

  gpusim::KernelDesc desc;
  desc.kernel_id = kernel_id;
  desc.name = work.name;
  desc.geometry = work.geometry;
  desc.phase = work.phase;

  const int sm_needed = gpusim::SmsNeeded(spec, work.geometry);
  desc.sm_needed = sm_needed;
  const double sm_frac = std::min(1.0, static_cast<double>(sm_needed) / spec.num_sms);

  const double peak_flops = spec.peak_fp32_tflops * 1e12;     // FLOP/s
  const double peak_bw = spec.peak_membw_gbps * 1e9;          // B/s
  const double compute_rate = peak_flops * work.compute_eff * sm_frac;
  const double mem_rate = peak_bw * work.mem_eff * (0.25 + 0.75 * sm_frac);

  const double t_compute_s = compute_rate > 0.0 ? work.flops / compute_rate : 0.0;
  const double t_memory_s = mem_rate > 0.0 ? work.bytes / mem_rate : 0.0;
  DurationUs duration = std::max(t_compute_s, t_memory_s) * 1e6 + kKernelFixedOverheadUs;
  duration = std::max(duration, kMinKernelDurationUs);
  desc.duration_us = duration;

  const double duration_s = duration / 1e6;
  desc.compute_util = std::min(1.0, work.flops / (peak_flops * duration_s));
  desc.membw_util = std::min(1.0, work.bytes / (peak_bw * duration_s));

  desc.has_roofline = work.has_roofline;
  if (work.has_roofline) {
    // Nsight's roofline verdict: whichever wall the kernel sits against.
    desc.roofline_class = t_compute_s >= t_memory_s ? gpusim::ResourceProfile::kComputeBound
                                                    : gpusim::ResourceProfile::kMemoryBound;
    // Degenerate kernels dominated by fixed overhead are not meaningfully
    // bound by either resource; Nsight reports no roofline for them either.
    const double work_us = std::max(t_compute_s, t_memory_s) * 1e6;
    if (work_us < 0.5 * duration) {
      desc.has_roofline = false;
      desc.roofline_class = gpusim::ResourceProfile::kUnknown;
    }
  }
  return desc;
}

}  // namespace workloads
}  // namespace orion
