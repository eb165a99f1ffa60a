// LLM token-generation extension workload tests (§7).
#include <gtest/gtest.h>

#include "src/gpusim/kernel.h"
#include "src/workloads/models.h"

namespace orion {
namespace workloads {
namespace {

const gpusim::DeviceSpec kV100 = gpusim::DeviceSpec::V100_16GB();

TEST(LlmWorkloadTest, DecodeIsPredominantlyMemoryBound) {
  // §7: the token-generation phase is memory-bound and underutilizes
  // compute throughput — the property Orion's policy exploits.
  const auto kernels =
      BuildKernels(kV100, MakeWorkload(ModelId::kLlmDecode, TaskType::kInference));
  double memory_time = 0.0;
  double compute_time = 0.0;
  double total_time = 0.0;
  for (const auto& kernel : kernels) {
    total_time += kernel.duration_us;
    switch (gpusim::ClassifyKernel(kernel)) {
      case gpusim::ResourceProfile::kMemoryBound:
        memory_time += kernel.duration_us;
        break;
      case gpusim::ResourceProfile::kComputeBound:
        compute_time += kernel.duration_us;
        break;
      case gpusim::ResourceProfile::kUnknown:
        break;
    }
  }
  EXPECT_GT(memory_time / total_time, 0.6);
  EXPECT_LT(compute_time / total_time, 0.2);
}

TEST(LlmWorkloadTest, ComputeUtilizationStaysLow) {
  const auto kernels =
      BuildKernels(kV100, MakeWorkload(ModelId::kLlmDecode, TaskType::kInference));
  double weighted_compute = 0.0;
  double total = 0.0;
  for (const auto& kernel : kernels) {
    weighted_compute += kernel.duration_us * kernel.compute_util;
    total += kernel.duration_us;
  }
  EXPECT_LT(weighted_compute / total, 0.25);
}

TEST(LlmWorkloadTest, SequentialDecodeStructure) {
  // One request = decode_steps sequential token steps; the kernel count must
  // be a multiple of the per-step kernel count plus nothing else.
  const auto kernels =
      BuildKernels(kV100, MakeWorkload(ModelId::kLlmDecode, TaskType::kInference));
  int tok0 = 0;
  int tok_last = 0;
  for (const auto& kernel : kernels) {
    if (kernel.name.str().rfind("tok0.", 0) == 0) {
      ++tok0;
    }
    if (kernel.name.str().rfind("tok7.", 0) == 0) {
      ++tok_last;
    }
  }
  EXPECT_GT(tok0, 50);
  EXPECT_EQ(tok0, tok_last);  // every decode step runs the same kernels
}

TEST(LlmWorkloadTest, ExcludedFromPaperModelSet) {
  for (ModelId model : kAllModels) {
    EXPECT_NE(model, ModelId::kLlmDecode);
  }
  EXPECT_STREQ(ModelName(ModelId::kLlmDecode), "llm-decode");
  EXPECT_FALSE(IsVisionModel(ModelId::kLlmDecode));
}

TEST(LlmWorkloadTest, LargeMemoryFootprint) {
  // LLM state (weights + KV cache) dominates: several GB even at batch 4.
  const std::size_t bytes =
      ApproxModelStateBytes(MakeWorkload(ModelId::kLlmDecode, TaskType::kInference));
  EXPECT_GT(bytes, std::size_t{1} << 30);
}

// --- Per-phase builders (continuous-batching serving, DESIGN.md §13). ---

// Duration-weighted compute/memory-bound shares of a kernel list.
void BoundShares(const std::vector<gpusim::KernelDesc>& kernels, double* compute,
                 double* memory) {
  double compute_us = 0.0;
  double memory_us = 0.0;
  double total_us = 0.0;
  for (const auto& kernel : kernels) {
    total_us += kernel.duration_us;
    switch (gpusim::ClassifyKernel(kernel)) {
      case gpusim::ResourceProfile::kComputeBound:
        compute_us += kernel.duration_us;
        break;
      case gpusim::ResourceProfile::kMemoryBound:
        memory_us += kernel.duration_us;
        break;
      case gpusim::ResourceProfile::kUnknown:
        break;
    }
  }
  *compute = compute_us / total_us;
  *memory = memory_us / total_us;
}

TEST(LlmPhaseTest, PrefillIsPredominantlyComputeBound) {
  // The phase split the serving engine's cost model rides on: prefill runs
  // square-ish GEMMs over the whole prompt — compute-bound.
  double compute = 0.0;
  double memory = 0.0;
  BoundShares(BuildLlmPrefillKernels(kV100, LlmModelConfig{}, 512), &compute, &memory);
  EXPECT_GT(compute, 0.5);
  EXPECT_LT(memory, 0.3);
}

TEST(LlmPhaseTest, DecodeStepIsPredominantlyMemoryBound) {
  // One token per sequence streams the full weight matrices for a handful of
  // rows — memory-bound (§7), whatever the batch width.
  for (const int batch : {1, 8}) {
    double compute = 0.0;
    double memory = 0.0;
    BoundShares(BuildLlmDecodeStepKernels(kV100, LlmModelConfig{}, batch, 512),
                &compute, &memory);
    EXPECT_GT(memory, 0.6) << "batch " << batch;
    EXPECT_LT(compute, 0.2) << "batch " << batch;
  }
}

TEST(LlmPhaseTest, PrefillScalesWithPromptDecodeStepDoesNot) {
  const auto us = [](const std::vector<gpusim::KernelDesc>& kernels) {
    double total = 0.0;
    for (const auto& kernel : kernels) {
      total += kernel.duration_us;
    }
    return total;
  };
  const LlmModelConfig cfg;
  // Prefill is ~linear in prompt tokens; a decode step only grows through
  // the attention reads over the longer cache, a second-order term.
  EXPECT_GT(us(BuildLlmPrefillKernels(kV100, cfg, 1024)),
            3.0 * us(BuildLlmPrefillKernels(kV100, cfg, 256)));
  EXPECT_LT(us(BuildLlmDecodeStepKernels(kV100, cfg, 4, 1024)),
            1.5 * us(BuildLlmDecodeStepKernels(kV100, cfg, 4, 256)));
}

TEST(LlmPhaseTest, KernelIdsAreTaggedByPhase) {
  // Kernel-id tags let traces distinguish phases: 0x70 prefill, 0x71 decode.
  for (const auto& kernel : BuildLlmPrefillKernels(kV100, LlmModelConfig{}, 64)) {
    EXPECT_EQ(kernel.kernel_id >> 56, 0x70u);
  }
  for (const auto& kernel : BuildLlmDecodeStepKernels(kV100, LlmModelConfig{}, 2, 64)) {
    EXPECT_EQ(kernel.kernel_id >> 56, 0x71u);
  }
}

TEST(LlmPhaseTest, KvBytesPerTokenAndWeightBytes) {
  LlmModelConfig cfg;
  cfg.layers = 12;
  cfg.hidden = 2048;
  // K and V vectors, fp32, every layer.
  EXPECT_EQ(LlmKvBytesPerToken(cfg), 2u * 12u * 2048u * 4u);
  // Weights: attention (4 h^2) + FFN (2 * 4 h^2) per layer plus the
  // embedding/lm-head table, fp32.
  const std::size_t h = 2048;
  const std::size_t expected =
      (12u * (4u + 8u) * h * h + 32000u * h) * 4u;
  EXPECT_EQ(LlmWeightBytes(cfg), expected);
}

TEST(LlmWorkloadDeathTest, TrainingVariantRejected) {
  EXPECT_DEATH(
      (void)BuildKernels(kV100, MakeWorkload(ModelId::kLlmDecode, TaskType::kTraining)),
      "inference-only");
}

}  // namespace
}  // namespace workloads
}  // namespace orion
