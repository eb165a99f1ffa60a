// LLM serving tests (DESIGN.md §13): continuous (iteration-level) batching,
// KV-cache pressure and preemption-with-recompute, per-token TTFT/TPOT SLOs,
// and the request-level baseline — plus unit tests for the batcher's
// continuous-batching head access and the per-phase LLM cost model.
//
// The engine-level tests run the real serving engine (N=1 datacenter path)
// on the kLlmDecode workload with llm.enabled and assert on the LLM fields
// of ModelServingResult; the engine ORION_CHECKs the KV block identity after
// every allocator mutation and zero KV leakage at replica retirement, so
// every run here is also an invariant sweep.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/serving/batcher.h"
#include "src/serving/kv_cache.h"
#include "src/serving/llm_cost.h"
#include "src/serving/serving.h"
#include "src/workloads/models.h"

namespace orion {
namespace serving {
namespace {

using workloads::MakeWorkload;
using workloads::ModelId;
using workloads::TaskType;

const gpusim::DeviceSpec kV100 = gpusim::DeviceSpec::V100_16GB();

LlmServiceConfig SmallLlm() {
  LlmServiceConfig llm;
  llm.enabled = true;
  llm.continuous = true;
  llm.model.layers = 4;
  llm.model.hidden = 1024;
  llm.model.heads = 8;
  llm.prompt_tokens = 64;
  llm.min_decode_tokens = 4;
  llm.max_decode_tokens = 16;
  llm.ttft_slo_us = MsToUs(50.0);
  llm.tpot_slo_us = MsToUs(5.0);
  return llm;
}

ModelServiceConfig LlmService(double rps, const LlmServiceConfig& llm) {
  ModelServiceConfig cfg;
  cfg.workload = MakeWorkload(ModelId::kLlmDecode, TaskType::kInference);
  cfg.tier = PriorityTier::kLatencyCritical;
  cfg.rps = rps;
  cfg.llm = llm;
  return cfg;
}

ServingConfig LlmConfig(double rps, const LlmServiceConfig& llm) {
  ServingConfig config;
  config.num_gpus = 2;
  config.warmup_us = SecToUs(0.5);
  config.duration_us = SecToUs(4.0);
  config.models = {LlmService(rps, llm)};
  return config;
}

Request MakeRequest(std::uint64_t id, TimeUs deadline) {
  Request request;
  request.id = id;
  request.deadline_us = deadline;
  return request;
}

// --- Batcher: continuous-batching head access. ---

TEST(LlmBatcherTest, FrontAndPopFrontFollowFifoOrder) {
  BatchingConfig config;
  DynamicBatcher batcher(config);
  batcher.Enqueue(MakeRequest(1, 100.0), 0.0);
  batcher.Enqueue(MakeRequest(2, 50.0), 1.0);
  EXPECT_EQ(batcher.Front().id, 1u);
  EXPECT_EQ(batcher.PopFront().id, 1u);
  EXPECT_EQ(batcher.PopFront().id, 2u);
  EXPECT_TRUE(batcher.empty());
}

TEST(LlmBatcherTest, RequeuePutsEvictedSequenceAtFifoFront) {
  BatchingConfig config;
  DynamicBatcher batcher(config);
  batcher.Enqueue(MakeRequest(1, 100.0), 0.0);
  batcher.Enqueue(MakeRequest(2, 200.0), 1.0);
  Request evicted = batcher.PopFront();
  batcher.Requeue(evicted);
  EXPECT_EQ(batcher.Front().id, 1u);  // back at the head, ahead of 2
  EXPECT_EQ(batcher.size(), 2u);
}

TEST(LlmBatcherTest, ContinuousDispatchReasonHasAName) {
  EXPECT_STREQ(DispatchReasonName(DispatchReason::kContinuous), "continuous");
}

// --- Per-phase LLM cost model. ---

TEST(LlmCostTest, PrefillGrowsWithContext) {
  const LlmCostModel cost(kV100, SmallLlm(), 6.0);
  const DurationUs short_prefill = cost.PrefillUs(64);
  const DurationUs long_prefill = cost.PrefillUs(512);
  EXPECT_GT(short_prefill, 0.0);
  EXPECT_GT(long_prefill, 2.0 * short_prefill);  // ~linear in tokens
}

TEST(LlmCostTest, DecodeStepIsSubLinearInBatch) {
  // Decode streams the weights once per step whatever the batch width, so
  // batching amortizes: 8 sequences cost far less than 8x one sequence.
  const LlmCostModel cost(kV100, SmallLlm(), 6.0);
  const DurationUs one = cost.DecodeStepUs(1, 128);
  const DurationUs eight = cost.DecodeStepUs(8, 128);
  EXPECT_GT(eight, one);
  EXPECT_LT(eight, 4.0 * one);
}

TEST(LlmCostTest, DecodeStepGrowsWithContext) {
  const LlmCostModel cost(kV100, SmallLlm(), 6.0);
  EXPECT_GT(cost.DecodeStepUs(4, 2048), cost.DecodeStepUs(4, 64));
}

TEST(LlmCostTest, ContextBucketingCachesStepCosts) {
  const LlmCostModel cost(kV100, SmallLlm(), 6.0);
  // Contexts within one KV block quantize to the same bucket => same cost.
  EXPECT_DOUBLE_EQ(cost.DecodeStepUs(2, 65), cost.DecodeStepUs(2, 80));
  EXPECT_NE(cost.DecodeStepUs(2, 80), cost.DecodeStepUs(2, 81));
}

TEST(LlmCostTest, RequestLevelBatchRunsToLongestTarget) {
  const LlmCostModel cost(kV100, SmallLlm(), 6.0);
  Request a;
  a.prompt_tokens = 64;
  a.target_tokens = 0;
  Request b = a;
  b.target_tokens = 8;
  const LlmBatchBreakdown zero = cost.RequestLevelBatchUs({a});
  // A zero-length generation is prefill-only.
  EXPECT_DOUBLE_EQ(zero.total_us, zero.prefill_us);
  // A mixed batch decodes to the longest target; the short row rides along.
  const LlmBatchBreakdown mixed = cost.RequestLevelBatchUs({a, b});
  EXPECT_GT(mixed.total_us, mixed.prefill_us);
  const LlmBatchBreakdown solo = cost.RequestLevelBatchUs({b});
  EXPECT_GT(mixed.total_us - mixed.prefill_us, solo.total_us - solo.prefill_us * 0.99);
}

TEST(LlmCostTest, KvBytesPerTokenMatchesWorkload) {
  const LlmServiceConfig llm = SmallLlm();
  const LlmCostModel cost(kV100, llm, 6.0);
  EXPECT_EQ(cost.kv_bytes_per_token(), workloads::LlmKvBytesPerToken(llm.model));
  // K and V, fp32, per layer: 2 * layers * hidden * 4 bytes.
  EXPECT_EQ(cost.kv_bytes_per_token(), 2u * 4u * 1024u * 4u);
}

// --- Engine: continuous batching end to end. ---

TEST(LlmServingTest, ContinuousBatchingServesSequences) {
  const ServingResult result = RunServing(LlmConfig(30.0, SmallLlm()));
  const ModelServingResult& m = result.models[0];
  EXPECT_GT(m.completed, 50u);
  EXPECT_GT(m.decode_steps, m.completed);  // several steps per sequence
  EXPECT_GE(m.prefills, m.completed / 2);  // every sequence prefilled once
  // One token per live sequence per step, so tokens dominate completions.
  EXPECT_GT(m.tokens, 4u * m.completed);
  EXPECT_EQ(m.kv_evictions, 0u);  // a 16 GB cache never pressures this load
  EXPECT_EQ(m.ttft.count(), m.completed);
  EXPECT_EQ(m.tpot.count(), m.completed);
  EXPECT_GT(m.ttft.mean(), 0.0);
  EXPECT_GT(m.tpot.mean(), 0.0);
  // TTFT includes queueing + prefill; TPOT is a single decode step's share.
  EXPECT_GT(m.ttft.p50(), m.tpot.p50());
}

TEST(LlmServingTest, PerTokenSlosGateAttainment) {
  LlmServiceConfig llm = SmallLlm();
  const ServingResult healthy = RunServing(LlmConfig(20.0, llm));
  EXPECT_GT(healthy.models[0].slo_attainment, 0.9);
  // An impossible TPOT SLO zeroes attainment even though completions and
  // e2e latency are identical — per-token SLOs, not per-request.
  llm.tpot_slo_us = 0.001;
  const ServingResult strangled = RunServing(LlmConfig(20.0, llm));
  EXPECT_EQ(strangled.models[0].slo_met, 0u);
  EXPECT_EQ(strangled.models[0].completed, healthy.models[0].completed);
}

TEST(LlmServingTest, RequestLevelBaselineServesWithoutSteps) {
  LlmServiceConfig llm = SmallLlm();
  llm.continuous = false;
  const ServingResult result = RunServing(LlmConfig(20.0, llm));
  const ModelServingResult& m = result.models[0];
  EXPECT_GT(m.completed, 30u);
  EXPECT_EQ(m.decode_steps, 0u);  // no iteration-level steps in the baseline
  EXPECT_GT(m.batches, 0u);
  EXPECT_GT(m.tokens, m.completed);
  EXPECT_EQ(m.ttft.count(), m.completed);
}

TEST(LlmServingTest, ContinuousBeatsRequestLevelOnTpotTail) {
  // The tentpole claim, pinned at test scale: at the same arrival process a
  // request-level batch holds every token hostage to the batch's longest
  // generation, while continuous batching streams tokens every step.
  LlmServiceConfig llm = SmallLlm();
  const ServingResult continuous = RunServing(LlmConfig(25.0, llm));
  llm.continuous = false;
  const ServingResult request_level = RunServing(LlmConfig(25.0, llm));
  ASSERT_GT(continuous.models[0].completed, 30u);
  ASSERT_GT(request_level.models[0].completed, 30u);
  EXPECT_LT(continuous.models[0].tpot.p99(), request_level.models[0].tpot.p99());
}

TEST(LlmServingTest, KvPressureEvictsAndRecovers) {
  LlmServiceConfig llm = SmallLlm();
  // Long generations relative to the prompt: a sequence joins holding 5
  // blocks (prompt + 1 token) but grows to 7 by the end of its decode, so a
  // cache sized for ~3 join-time footprints overflows mid-flight and the
  // engine must preempt-with-recompute.
  llm.max_decode_tokens = 48;
  llm.kv_capacity_bytes =
      workloads::LlmKvBytesPerToken(llm.model) *
      static_cast<std::size_t>(2.2 * (llm.prompt_tokens + llm.max_decode_tokens));
  ServingConfig config = LlmConfig(300.0, llm);
  config.num_gpus = 1;
  config.models[0].max_replicas = 1;
  const ServingResult result = RunServing(config);
  const ModelServingResult& m = result.models[0];
  EXPECT_GT(m.kv_evictions, 0u);
  EXPECT_GT(m.completed, 20u);  // preempted sequences still finish
  // Evicted sequences re-prefill when they rejoin.
  EXPECT_GT(m.prefills, m.completed);
}

TEST(LlmServingTest, ZeroLengthGenerationsCompleteAtTheirJoinStep) {
  LlmServiceConfig llm = SmallLlm();
  llm.min_decode_tokens = 0;
  llm.max_decode_tokens = 0;
  const ServingResult result = RunServing(LlmConfig(20.0, llm));
  const ModelServingResult& m = result.models[0];
  EXPECT_GT(m.completed, 40u);
  // Every sequence emits exactly its first token: tokens == prefills, and
  // TPOT is trivially zero (nothing after the first token).
  EXPECT_EQ(m.tokens, m.prefills);
  EXPECT_DOUBLE_EQ(m.tpot.p99(), 0.0);
  EXPECT_GT(m.slo_attainment, 0.9);  // gated on TTFT alone
}

TEST(LlmServingTest, FixedMaxLengthGenerationsRunFullDecode) {
  LlmServiceConfig llm = SmallLlm();
  llm.min_decode_tokens = 16;
  llm.max_decode_tokens = 16;  // degenerate range: no RNG draw variance
  const ServingResult result = RunServing(LlmConfig(15.0, llm));
  const ModelServingResult& m = result.models[0];
  EXPECT_GT(m.completed, 20u);
  // 1 + 16 tokens per sequence; the window boundary can clip a couple of
  // partially-counted sequences either way.
  const double per_seq =
      static_cast<double>(m.tokens) / static_cast<double>(m.completed);
  EXPECT_NEAR(per_seq, 17.0, 2.0);
}

TEST(LlmServingTest, InterleavesWithFixedCostServices) {
  // An LLM service and a classic fixed-cost service share the fleet; the
  // LLM fields stay zero for the fixed-cost service.
  ServingConfig config = LlmConfig(15.0, SmallLlm());
  ModelServiceConfig resnet;
  resnet.workload = MakeWorkload(ModelId::kResNet50, TaskType::kInference);
  resnet.tier = PriorityTier::kBestEffort;
  resnet.rps = 30.0;
  resnet.slo_us = MsToUs(200.0);
  config.models.push_back(resnet);
  config.num_gpus = 4;
  const ServingResult result = RunServing(config);
  EXPECT_GT(result.models[0].tokens, 0u);
  EXPECT_GT(result.models[1].completed, 50u);
  EXPECT_EQ(result.models[1].tokens, 0u);
  EXPECT_EQ(result.models[1].decode_steps, 0u);
  EXPECT_EQ(result.models[1].ttft.count(), 0u);
}

TEST(LlmServingTest, AutoscalerGrowsAnOverloadedLlmService) {
  ServingConfig config = LlmConfig(80.0, SmallLlm());
  config.num_gpus = 4;
  config.models[0].max_replicas = 4;
  config.autoscaler.enabled = true;
  config.autoscaler.eval_period_us = SecToUs(0.25);
  const ServingResult result = RunServing(config);
  EXPECT_GT(result.scale_ups, 0u);
  EXPECT_GT(result.models[0].final_replicas, 1);
}

}  // namespace
}  // namespace serving
}  // namespace orion
