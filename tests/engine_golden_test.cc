// Engine-output goldens: two short instrumented RunCluster runs whose Chrome
// trace, metrics CSV and attribution CSV must match tests/data/engine_golden/
// byte for byte. The exporter goldens in telemetry_test pin only the export
// format; these pin what the serving engine emits — which spans, in which
// order, with which timestamps — so a refactor that reorders one event or
// moves one FP operation fails here.
//
// On a mismatch the actual artefact is written to the gtest temp directory
// and its path printed; copy it over the golden only when the engine's
// output is meant to change.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>

#include "src/datacenter/cluster.h"
#include "src/fault/fault_plan.h"
#include "src/serving/serving.h"
#include "src/telemetry/attribution/report.h"
#include "src/telemetry/exporters.h"
#include "src/telemetry/telemetry.h"

namespace orion {
namespace datacenter {
namespace {

using serving::ModelServiceConfig;
using serving::PriorityTier;
using workloads::MakeWorkload;
using workloads::ModelId;
using workloads::TaskType;

ModelServiceConfig FixedCostService(PriorityTier tier, double rps, int initial_replicas) {
  ModelServiceConfig cfg;
  cfg.workload = MakeWorkload(ModelId::kResNet50, TaskType::kInference);
  cfg.tier = tier;
  cfg.rps = rps;
  cfg.slo_us = MsToUs(50.0);
  cfg.initial_replicas = initial_replicas;
  return cfg;
}

ModelServiceConfig LlmService(bool continuous, double rps, std::size_t kv_capacity_bytes) {
  ModelServiceConfig cfg;
  cfg.workload = MakeWorkload(ModelId::kLlmDecode, TaskType::kInference);
  cfg.tier = continuous ? PriorityTier::kLatencyCritical : PriorityTier::kBestEffort;
  cfg.rps = rps;
  cfg.llm.enabled = true;
  cfg.llm.continuous = continuous;
  cfg.llm.model.layers = 4;
  cfg.llm.model.hidden = 1024;
  cfg.llm.model.heads = 8;
  cfg.llm.prompt_tokens = 60;
  cfg.llm.min_decode_tokens = 4;
  cfg.llm.max_decode_tokens = 12;
  cfg.llm.ttft_slo_us = MsToUs(50.0);
  cfg.llm.tpot_slo_us = MsToUs(5.0);
  cfg.llm.kv_capacity_bytes = kv_capacity_bytes;
  return cfg;
}

// (a) Two nodes of two GPUs, two fixed-cost services sharing a workload (so
// the second is labeled "#1"), the autoscaler on, the best-effort service's
// only replica (id 3) crashing and then node 0 dying: network legs, shedding,
// failover, limbo drains, replacements and scaling all emit.
ClusterConfig FixedCostNodeDown() {
  ClusterConfig config;
  config.cluster.num_nodes = 2;
  config.cluster.gpus_per_node = 2;
  serving::ServingConfig& s = config.serving;
  s.warmup_us = SecToUs(0.1);
  s.duration_us = SecToUs(0.6);
  s.models = {FixedCostService(PriorityTier::kLatencyCritical, 150.0, 3),
              FixedCostService(PriorityTier::kBestEffort, 30.0, 1)};
  s.autoscaler.enabled = true;
  s.autoscaler.eval_period_us = SecToUs(0.2);
  fault::FaultEvent crash;
  crash.kind = fault::FaultKind::kClientCrash;
  crash.at_us = SecToUs(0.2);
  crash.client = 3;
  s.fault_plan.events.push_back(crash);
  fault::FaultEvent down;
  down.kind = fault::FaultKind::kNodeDown;
  down.at_us = SecToUs(0.35);
  down.node = 0;
  s.fault_plan.events.push_back(down);
  return config;
}

// (b) One node, one continuous and one request-level LLM service. The
// continuous one's KV cache holds nine 16-token blocks: two fresh sequences
// fit, but both cannot grow to their fifth block, so it preempts.
ClusterConfig LlmSingleNode() {
  ClusterConfig config;
  config.cluster.num_nodes = 1;
  config.cluster.gpus_per_node = 2;
  serving::ServingConfig& s = config.serving;
  s.warmup_us = SecToUs(0.05);
  s.duration_us = SecToUs(0.25);
  s.models = {LlmService(/*continuous=*/true, 80.0, /*kv_capacity_bytes=*/9 * 16 * 32768),
              LlmService(/*continuous=*/false, 20.0, /*kv_capacity_bytes=*/0)};
  return config;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

void ExpectMatchesGolden(const std::string& actual, const std::string& name) {
  const std::string path = std::string(ORION_TEST_DATA_DIR) + "/engine_golden/" + name;
  const std::string golden = ReadFile(path);
  if (actual == golden) {
    return;
  }
  const std::string dump = ::testing::TempDir() + name;
  std::ofstream(dump) << actual;
  std::size_t line = 1;
  for (std::size_t i = 0; i < std::min(actual.size(), golden.size()) && actual[i] == golden[i];
       ++i) {
    line += actual[i] == '\n' ? 1 : 0;
  }
  ADD_FAILURE() << name << " differs from " << path << " from line " << line
                << "; actual output written to " << dump;
}

void ExpectEngineOutputMatches(const ClusterConfig& base, const std::string& prefix) {
  telemetry::Hub hub;
  hub.EnableTracing();
  hub.EnableAttribution();
  ClusterConfig config = base;
  config.serving.telemetry = &hub;
  RunCluster(config);
  std::ostringstream trace;
  telemetry::WriteChromeTrace(hub.spans(), trace);
  std::ostringstream metrics;
  telemetry::WriteMetricsCsv(hub.metrics(), metrics);
  std::ostringstream attr;
  attribution::WriteAttributionCsv(hub.attribution(), attr);
  ExpectMatchesGolden(trace.str(), prefix + "_trace.json");
  ExpectMatchesGolden(metrics.str(), prefix + "_metrics.csv");
  ExpectMatchesGolden(attr.str(), prefix + "_attribution.csv");
}

TEST(EngineGoldenTest, FixedCostClusterWithNodeDown) {
  ExpectEngineOutputMatches(FixedCostNodeDown(), "cluster");
}

TEST(EngineGoldenTest, ContinuousAndRequestLevelLlm) {
  ExpectEngineOutputMatches(LlmSingleNode(), "llm");
}

}  // namespace
}  // namespace datacenter
}  // namespace orion
