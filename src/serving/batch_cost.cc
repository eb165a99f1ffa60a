#include "src/serving/batch_cost.h"

#include <algorithm>

#include "src/common/check.h"

namespace orion {
namespace serving {

namespace {

// Process start + CUDA context creation before the weights stream in.
constexpr DurationUs kReplicaStartFixedUs = 50e3;  // 50 ms

}  // namespace

DurationUs SerialKernelsUs(const std::vector<gpusim::KernelDesc>& kernels,
                           DurationUs launch_overhead_us) {
  DurationUs total = 0.0;
  for (const gpusim::KernelDesc& kernel : kernels) {
    total += kernel.duration_us;
  }
  return total + launch_overhead_us * static_cast<double>(kernels.size());
}

BatchCostModel::BatchCostModel(const gpusim::DeviceSpec& device,
                               const workloads::WorkloadSpec& workload, bool high_priority,
                               DurationUs launch_overhead_us)
    : device_(device),
      workload_(workload),
      launch_overhead_us_(launch_overhead_us),
      signature_(cluster::MakeSignature(device, workload, high_priority)) {
  ORION_CHECK_MSG(workload.task == workloads::TaskType::kInference,
                  "serving replicas run inference workloads");
  ORION_CHECK(workload.batch_size >= 1);
}

DurationUs BatchCostModel::BatchServiceUs(int batch) const {
  ORION_CHECK(batch >= 1);
  const auto index = static_cast<std::size_t>(batch);
  if (index < cache_.size() && cache_[index] > 0.0) {
    return cache_[index];
  }
  workloads::WorkloadSpec batched = workload_;
  batched.batch_size = workload_.batch_size * batch;
  const DurationUs total =
      SerialKernelsUs(workloads::BuildKernels(device_, batched), launch_overhead_us_);
  if (index >= cache_.size()) {
    cache_.resize(index + 1, 0.0);
  }
  cache_[index] = total;
  return total;
}

DurationUs BatchCostModel::PerRequestUs(int batch) const {
  return BatchServiceUs(batch) / static_cast<double>(std::max(1, batch));
}

DurationUs BatchCostModel::ProvisionUs() const {
  const double bytes = static_cast<double>(state_bytes());
  const double pcie_bytes_per_us = device_.pcie_gbps * 1e9 / 1e6;
  return kReplicaStartFixedUs + bytes / pcie_bytes_per_us + device_.pcie_latency_us;
}

double InterferenceSlowdown(PriorityTier tier, double pressure) {
  ORION_CHECK(pressure >= 0.0);
  // Calibrated against the collocation benches: Orion keeps hp p99 within
  // ~15% of ideal for typical pairs (pressure ~1), while a be job collocated
  // against an hp job keeps roughly 70-85% of its dedicated throughput.
  const double alpha = tier == PriorityTier::kLatencyCritical ? 0.10 : 0.30;
  return 1.0 + alpha * pressure;
}

}  // namespace serving
}  // namespace orion
