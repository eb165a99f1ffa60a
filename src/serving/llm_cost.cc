#include "src/serving/llm_cost.h"

#include <algorithm>

#include "src/common/check.h"

namespace orion {
namespace serving {

LlmCostModel::LlmCostModel(const gpusim::DeviceSpec& device, const LlmServiceConfig& service,
                           DurationUs launch_overhead_us)
    : device_(device),
      service_(service),
      launch_overhead_us_(launch_overhead_us),
      kv_bytes_per_token_(workloads::LlmKvBytesPerToken(service.model)) {
  ORION_CHECK(service.prompt_tokens >= 1);
  ORION_CHECK(service.min_decode_tokens >= 0);
  ORION_CHECK(service.max_decode_tokens >= service.min_decode_tokens);
  ORION_CHECK(service.ttft_slo_us > 0.0 && service.tpot_slo_us > 0.0);
}

DurationUs LlmCostModel::KernelsUs(const std::vector<gpusim::KernelDesc>& kernels) const {
  DurationUs total = 0.0;
  for (const gpusim::KernelDesc& kernel : kernels) {
    total += kernel.duration_us;
  }
  return total + launch_overhead_us_ * static_cast<double>(kernels.size());
}

int LlmCostModel::ContextBucket(int context_tokens) const {
  return ((std::max(1, context_tokens) + kKvBlockTokens - 1) / kKvBlockTokens) * kKvBlockTokens;
}

DurationUs LlmCostModel::PrefillUs(int context_tokens) const {
  const int bucket = ContextBucket(context_tokens);
  const auto it = prefill_cache_.find(bucket);
  if (it != prefill_cache_.end()) {
    return it->second;
  }
  const DurationUs cost =
      KernelsUs(workloads::BuildLlmPrefillKernels(device_, service_.model, bucket));
  prefill_cache_.emplace(bucket, cost);
  return cost;
}

DurationUs LlmCostModel::DecodeStepUs(int batch, int context_tokens) const {
  ORION_CHECK(batch >= 1);
  const int bucket = ContextBucket(context_tokens);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(batch) << 32) | static_cast<std::uint64_t>(bucket);
  const auto it = step_cache_.find(key);
  if (it != step_cache_.end()) {
    return it->second;
  }
  const DurationUs cost =
      KernelsUs(workloads::BuildLlmDecodeStepKernels(device_, service_.model, batch, bucket));
  step_cache_.emplace(key, cost);
  return cost;
}

DurationUs LlmCostModel::TypicalStepUs(int batch) const {
  const int mid_context = service_.prompt_tokens + service_.max_decode_tokens / 2;
  return DecodeStepUs(std::max(1, batch), mid_context);
}

LlmBatchBreakdown LlmCostModel::RequestLevelBatchUs(const std::vector<Request>& batch) const {
  LlmBatchBreakdown out;
  int max_target = 0;
  for (const Request& request : batch) {
    out.prefill_us += PrefillUs(request.prompt_tokens);
    max_target = std::max(max_target, request.target_tokens);
  }
  out.total_us = out.prefill_us;
  // The whole batch steps together until the longest generation finishes:
  // prefill produced the first token, then max_target further decode steps
  // (target_tokens counts tokens AFTER the first); short sequences ride
  // along as dead rows. Context grows with the step.
  const int size = static_cast<int>(batch.size());
  for (int t = 1; t <= max_target; ++t) {
    long context_sum = 0;
    for (const Request& request : batch) {
      context_sum += request.prompt_tokens + std::min(t, request.target_tokens);
    }
    out.total_us += DecodeStepUs(size, static_cast<int>(context_sum / size));
  }
  return out;
}

}  // namespace serving
}  // namespace orion
