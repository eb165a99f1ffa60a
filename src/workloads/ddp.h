// Distributed data-parallel (DDP) training iteration model.
//
// Extends the single-GPU training workloads to N-GPU data parallelism, the
// workload class the paper's discussion (§7) points at for multi-GPU
// sharing. Each GPU runs the full model on 1/N of the global batch; after
// the backward pass produces gradients they are averaged across GPUs with a
// ring all-reduce sized by the model's parameter bytes. Following PyTorch
// DDP, gradients are grouped into fixed-size buckets that are all-reduced as
// soon as their gradients exist, overlapping communication with the rest of
// the backward pass; the optimizer update waits for the last bucket.
//
// This module only PLANS one iteration (per-GPU kernel sequence from the
// existing layer cost models, bucket sizes, readiness points); the multi-GPU
// harness (src/harness/multi_gpu.h) executes the plan on simulated devices
// and a link fabric.
#ifndef SRC_WORKLOADS_DDP_H_
#define SRC_WORKLOADS_DDP_H_

#include <cstddef>
#include <vector>

#include "src/gpusim/device_spec.h"
#include "src/gpusim/kernel.h"
#include "src/workloads/models.h"

namespace orion {
namespace workloads {

struct DdpConfig {
  ModelId model = ModelId::kResNet50;
  int num_gpus = 1;
  // Global (summed over GPUs) batch per iteration; 0 = the model's paper
  // default training batch. Must divide evenly across the GPUs.
  int global_batch_size = 0;
};

// Gradient bucket cap; 25 MB is the PyTorch DDP default.
inline constexpr std::size_t kDdpBucketBytes = std::size_t{25} << 20;

struct GradientBucket {
  std::size_t bytes = 0;
  // Fraction of the backward pass's compute (alone-time) after which this
  // bucket's gradients exist. Gradient volume is approximated as accruing
  // uniformly over backward time; buckets fill in reverse layer order, so
  // bucket k is ready once the first (cumulative bytes)/(param bytes) of the
  // backward pass has run.
  double ready_fraction = 1.0;
};

struct DdpIterationPlan {
  WorkloadSpec per_gpu_workload;
  // Forward + backward kernels of one GPU's iteration, execution order.
  std::vector<gpusim::KernelDesc> compute_kernels;
  // Optimizer-update kernels; in DDP these run only after the last gradient
  // bucket's all-reduce delivered the averaged gradients.
  std::vector<gpusim::KernelDesc> update_kernels;
  std::size_t param_bytes = 0;
  std::vector<GradientBucket> buckets;  // all-reduce issue order

  // Run-alone durations (no contention, no launch overhead), for scaling
  // estimates and test oracles.
  DurationUs forward_backward_us = 0.0;
  DurationUs backward_us = 0.0;
  DurationUs update_us = 0.0;
};

DdpIterationPlan PlanDdpIteration(const gpusim::DeviceSpec& device, const DdpConfig& config);

}  // namespace workloads
}  // namespace orion

#endif  // SRC_WORKLOADS_DDP_H_
