#include "src/workloads/ddp.h"

#include <algorithm>

#include "src/common/check.h"

namespace orion {
namespace workloads {

DdpIterationPlan PlanDdpIteration(const gpusim::DeviceSpec& device, const DdpConfig& config) {
  ORION_CHECK(config.num_gpus >= 1);

  const int global_batch = config.global_batch_size > 0
                               ? config.global_batch_size
                               : MakeWorkload(config.model, TaskType::kTraining).batch_size;
  ORION_CHECK_MSG(global_batch % config.num_gpus == 0,
                  "global batch " << global_batch << " does not divide across "
                                  << config.num_gpus << " GPUs");

  DdpIterationPlan plan;
  plan.per_gpu_workload =
      MakeWorkload(config.model, TaskType::kTraining, global_batch / config.num_gpus);
  plan.param_bytes = ApproxParameterBytes(plan.per_gpu_workload);

  for (gpusim::KernelDesc& kernel : BuildKernels(device, plan.per_gpu_workload)) {
    if (kernel.phase == gpusim::KernelPhase::kUpdate) {
      plan.update_kernels.push_back(std::move(kernel));
    } else {
      if (kernel.phase == gpusim::KernelPhase::kBackward) {
        plan.backward_us += kernel.duration_us;
      }
      plan.compute_kernels.push_back(std::move(kernel));
    }
  }
  for (const gpusim::KernelDesc& kernel : plan.compute_kernels) {
    plan.forward_backward_us += kernel.duration_us;
  }
  for (const gpusim::KernelDesc& kernel : plan.update_kernels) {
    plan.update_us += kernel.duration_us;
  }

  // Gradient buckets: full-size buckets plus a remainder, ready points
  // spread over backward time proportionally to cumulative gradient bytes.
  if (config.num_gpus > 1) {
    std::size_t remaining = plan.param_bytes;
    std::size_t accumulated = 0;
    while (remaining > 0) {
      GradientBucket bucket;
      bucket.bytes = std::min(remaining, kDdpBucketBytes);
      remaining -= bucket.bytes;
      accumulated += bucket.bytes;
      bucket.ready_fraction =
          static_cast<double>(accumulated) / static_cast<double>(plan.param_bytes);
      plan.buckets.push_back(bucket);
    }
  }
  return plan;
}

}  // namespace workloads
}  // namespace orion
