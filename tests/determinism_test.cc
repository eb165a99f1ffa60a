// Determinism regression tests (ISSUE satellite): within one process, a
// faulted run repeated with the same seed must be bit-identical (same
// completion counts, EXPECT_DOUBLE_EQ-equal latency percentiles, same fault
// counters), and a different seed must produce a different outcome. Guards
// the fault subsystem's claim that injection lives entirely on the
// discrete-event clock — no wall-clock, no global RNG, no hidden state
// carried between runs.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/datacenter/cluster.h"
#include "src/fault/fault_plan.h"
#include "src/harness/experiment.h"
#include "src/harness/multi_gpu.h"
#include "src/serving/serving.h"
#include "src/telemetry/exporters.h"
#include "src/trace/request_rates.h"

namespace orion {
namespace harness {
namespace {

using workloads::MakeWorkload;
using workloads::ModelId;
using workloads::TaskType;

// Inference + training collocation with one of every injectable fault class
// that a single-device harness supports.
ExperimentConfig FaultedConfig() {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kOrion;
  config.warmup_us = SecToUs(0.5);
  config.duration_us = SecToUs(2.0);
  config.orion.conservative_profile_miss = true;
  config.orion.runaway_timeout_factor = 4.0;

  ClientConfig hp;
  hp.workload = MakeWorkload(ModelId::kResNet50, TaskType::kInference);
  hp.high_priority = true;
  hp.arrivals = ClientConfig::Arrivals::kPoisson;
  hp.rps = trace::RequestsPerSecond(ModelId::kResNet50,
                                    trace::CollocationCase::kInfTrainPoisson);
  ClientConfig be1;
  be1.workload = MakeWorkload(ModelId::kResNet50, TaskType::kTraining);
  be1.arrivals = ClientConfig::Arrivals::kClosedLoop;
  ClientConfig be2;
  be2.workload = MakeWorkload(ModelId::kMobileNetV2, TaskType::kTraining);
  be2.arrivals = ClientConfig::Arrivals::kClosedLoop;
  config.clients = {hp, be1, be2};

  fault::FaultEvent degrade;
  degrade.kind = fault::FaultKind::kDeviceDegrade;
  degrade.at_us = SecToUs(0.8);
  degrade.gpu = 0;
  degrade.sms_lost = 20;
  degrade.membw_factor = 0.8;
  config.fault_plan.events.push_back(degrade);

  fault::FaultEvent poison;
  poison.kind = fault::FaultKind::kProfilePoison;
  poison.at_us = SecToUs(1.0);
  poison.perturb_factor = 1.25;
  poison.drop_fraction = 0.25;
  poison.seed = 5;
  config.fault_plan.events.push_back(poison);

  fault::FaultEvent hang;
  hang.kind = fault::FaultKind::kClientHang;
  hang.at_us = SecToUs(1.2);
  hang.client = 1;
  hang.runaway_us = SecToUs(0.1);
  config.fault_plan.events.push_back(hang);

  return config;
}

TEST(DeterminismTest, SameSeedFaultedExperimentIsBitIdentical) {
  const ExperimentConfig config = FaultedConfig();
  const ExperimentResult a = RunExperiment(config);
  const ExperimentResult b = RunExperiment(config);

  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.faults_skipped, b.faults_skipped);
  EXPECT_EQ(a.clients_quarantined, b.clients_quarantined);
  EXPECT_EQ(a.runaway_quarantines, b.runaway_quarantines);
  EXPECT_EQ(a.memory_used_end_bytes, b.memory_used_end_bytes);
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    EXPECT_EQ(a.clients[i].completed, b.clients[i].completed) << i;
    EXPECT_DOUBLE_EQ(a.clients[i].latency.p50(), b.clients[i].latency.p50()) << i;
    EXPECT_DOUBLE_EQ(a.clients[i].latency.p99(), b.clients[i].latency.p99()) << i;
    EXPECT_DOUBLE_EQ(a.clients[i].throughput_rps, b.clients[i].throughput_rps) << i;
  }
  EXPECT_DOUBLE_EQ(a.utilization.sm_busy, b.utilization.sm_busy);
}

// Runs `config` with a tracing hub attached and returns the serialized
// telemetry artefacts (metrics CSV, Chrome trace).
std::pair<std::string, std::string> TelemetryExports(const ExperimentConfig& config) {
  telemetry::Hub hub;
  hub.EnableTracing();
  ExperimentConfig instrumented = config;
  instrumented.telemetry = &hub;
  RunExperiment(instrumented);
  std::ostringstream csv;
  telemetry::WriteMetricsCsv(hub.metrics(), csv);
  std::ostringstream trace;
  telemetry::WriteChromeTrace(hub, trace);
  return {csv.str(), trace.str()};
}

// Writes `content` next to the test binary's temp dir and returns the path
// (for the tools/trace_diff.py hint below).
std::string DumpArtefact(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream os(path);
  os << content;
  return path;
}

// Exported telemetry is part of the determinism contract: the exporters
// print with fixed precision, so two same-seed runs must serialize byte for
// byte. On divergence the failure output points at tools/trace_diff.py,
// which reports the first differing metric row / trace event.
TEST(DeterminismTest, SameSeedTelemetryExportIsByteIdentical) {
  const ExperimentConfig config = FaultedConfig();
  const auto [csv_a, trace_a] = TelemetryExports(config);
  const auto [csv_b, trace_b] = TelemetryExports(config);
  if (csv_a != csv_b) {
    const std::string path_a = DumpArtefact("metrics_a.csv", csv_a);
    const std::string path_b = DumpArtefact("metrics_b.csv", csv_b);
    ADD_FAILURE() << "same-seed metrics exports diverged; find the first row with:\n"
                  << "  python3 tools/trace_diff.py " << path_a << " " << path_b;
  }
  if (trace_a != trace_b) {
    const std::string path_a = DumpArtefact("trace_a.json", trace_a);
    const std::string path_b = DumpArtefact("trace_b.json", trace_b);
    ADD_FAILURE() << "same-seed trace exports diverged; find the first event with:\n"
                  << "  python3 tools/trace_diff.py " << path_a << " " << path_b;
  }
}

// Unified-memory paging (src/memsub) rides the same discrete-event clock:
// an oversubscribed, thrashing collocation must replay bit-identically,
// fault counts and paged bytes included.
TEST(DeterminismTest, SameSeedOversubscribedPagingRunIsBitIdentical) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kTimeQuantum;
  config.warmup_us = SecToUs(0.3);
  config.duration_us = SecToUs(1.5);
  ClientConfig hp;
  hp.workload = MakeWorkload(ModelId::kResNet50, TaskType::kTraining);
  hp.high_priority = true;
  ClientConfig be;
  be.workload = MakeWorkload(ModelId::kResNet101, TaskType::kTraining);
  config.clients = {hp, be};
  config.paging.enabled = true;
  const std::size_t aggregate = workloads::ApproxModelStateBytes(hp.workload) +
                                workloads::ApproxModelStateBytes(be.workload);
  config.device.memory_bytes = aggregate / 2;  // 2x oversubscribed

  const ExperimentResult a = RunExperiment(config);
  const ExperimentResult b = RunExperiment(config);
  ASSERT_GT(a.paging.faults, 0u);  // the run actually pages
  EXPECT_EQ(a.paging.faults, b.paging.faults);
  EXPECT_EQ(a.paging.evictions, b.paging.evictions);
  EXPECT_EQ(a.paging.writebacks, b.paging.writebacks);
  EXPECT_EQ(a.paging.fault_bytes_h2d, b.paging.fault_bytes_h2d);
  EXPECT_EQ(a.paging.writeback_bytes_d2h, b.paging.writeback_bytes_d2h);
  EXPECT_DOUBLE_EQ(a.paging.stall_us, b.paging.stall_us);
  EXPECT_EQ(a.tq_exclusive_entries, b.tq_exclusive_entries);
  EXPECT_EQ(a.tq_quanta, b.tq_quanta);
  EXPECT_DOUBLE_EQ(a.tq_exclusive_us, b.tq_exclusive_us);
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    EXPECT_EQ(a.clients[i].completed_total, b.clients[i].completed_total) << i;
    EXPECT_EQ(a.clients[i].page_faults, b.clients[i].page_faults) << i;
    EXPECT_DOUBLE_EQ(a.clients[i].page_stall_us, b.clients[i].page_stall_us) << i;
  }
}

TEST(DeterminismTest, DifferentSeedFaultedExperimentDiffers) {
  ExperimentConfig config = FaultedConfig();
  const ExperimentResult a = RunExperiment(config);
  config.seed = 1234;
  const ExperimentResult b = RunExperiment(config);
  // The Poisson arrivals reshuffle, so the hp tail cannot coincide.
  EXPECT_NE(a.hp().latency.p99(), b.hp().latency.p99());
}

TEST(DeterminismTest, FaultedDdpRunIsBitIdentical) {
  MultiGpuConfig config;
  config.topology = interconnect::NodeTopology::FullNvLink(4);
  config.ddp.model = ModelId::kResNet50;
  config.ddp.num_gpus = 4;
  config.ddp.global_batch_size = 32;
  config.iterations = 6;
  config.collective.step_timeout_us = 200.0;

  fault::FaultEvent death;
  death.kind = fault::FaultKind::kGpuDown;
  death.at_us = 2000.0;
  death.gpu = 3;
  config.fault_plan.events.push_back(death);

  const MultiGpuResult a = RunDdpExperiment(config);
  const MultiGpuResult b = RunDdpExperiment(config);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.ring_reformations, b.ring_reformations);
  EXPECT_EQ(a.step_timeouts, b.step_timeouts);
  EXPECT_EQ(a.dead_gpus, b.dead_gpus);
  EXPECT_EQ(a.final_world_size, b.final_world_size);
  EXPECT_DOUBLE_EQ(a.total_us, b.total_us);
  EXPECT_DOUBLE_EQ(a.iteration_us.mean(), b.iteration_us.mean());
  EXPECT_DOUBLE_EQ(a.allreduce_us.mean(), b.allreduce_us.mean());
  ASSERT_EQ(a.link_traffic.size(), b.link_traffic.size());
  for (std::size_t i = 0; i < a.link_traffic.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.link_traffic[i].forward_bytes, b.link_traffic[i].forward_bytes) << i;
    EXPECT_DOUBLE_EQ(a.link_traffic[i].backward_bytes, b.link_traffic[i].backward_bytes)
        << i;
  }
}

// Serving run exercising every stochastic path at once: Poisson + Apollo
// arrivals, autoscaling, a GPU death and a replica crash mid-run.
serving::ServingConfig FaultedServingConfig() {
  serving::ServingConfig config;
  config.num_gpus = 4;
  config.warmup_us = SecToUs(0.5);
  config.duration_us = SecToUs(5.0);

  serving::ModelServiceConfig resnet;
  resnet.workload = MakeWorkload(ModelId::kResNet50, TaskType::kInference);
  resnet.rps = 150.0;
  resnet.slo_us = MsToUs(60.0);
  resnet.initial_replicas = 2;
  serving::ModelServiceConfig bert;
  bert.workload = MakeWorkload(ModelId::kBert, TaskType::kInference);
  bert.tier = serving::PriorityTier::kBestEffort;
  bert.arrivals = serving::ArrivalKind::kApollo;
  bert.rps = 20.0;
  bert.slo_us = MsToUs(400.0);
  config.models = {resnet, bert};

  config.autoscaler.enabled = true;
  config.autoscaler.eval_period_us = SecToUs(0.25);

  fault::FaultEvent death;
  death.kind = fault::FaultKind::kGpuDown;
  death.at_us = SecToUs(2.0);
  death.gpu = 0;
  config.fault_plan.events.push_back(death);
  fault::FaultEvent crash;
  crash.kind = fault::FaultKind::kClientCrash;
  crash.at_us = SecToUs(3.0);
  crash.client = 1;
  config.fault_plan.events.push_back(crash);
  return config;
}

TEST(DeterminismTest, SameSeedServingRunIsBitIdentical) {
  const serving::ServingConfig config = FaultedServingConfig();
  const serving::ServingResult a = serving::RunServing(config);
  const serving::ServingResult b = serving::RunServing(config);

  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.replicas_lost, b.replicas_lost);
  EXPECT_EQ(a.replacements, b.replacements);
  EXPECT_EQ(a.scale_ups, b.scale_ups);
  EXPECT_EQ(a.scale_downs, b.scale_downs);
  EXPECT_DOUBLE_EQ(a.replica_seconds, b.replica_seconds);
  ASSERT_EQ(a.models.size(), b.models.size());
  for (std::size_t i = 0; i < a.models.size(); ++i) {
    EXPECT_EQ(a.models[i].total_offered, b.models[i].total_offered) << i;
    EXPECT_EQ(a.models[i].total_completed, b.models[i].total_completed) << i;
    EXPECT_EQ(a.models[i].slo_met, b.models[i].slo_met) << i;
    EXPECT_EQ(a.models[i].shed, b.models[i].shed) << i;
    EXPECT_EQ(a.models[i].failed_over, b.models[i].failed_over) << i;
    EXPECT_EQ(a.models[i].batches, b.models[i].batches) << i;
    EXPECT_DOUBLE_EQ(a.models[i].latency.p50(), b.models[i].latency.p50()) << i;
    EXPECT_DOUBLE_EQ(a.models[i].latency.p99(), b.models[i].latency.p99()) << i;
    EXPECT_DOUBLE_EQ(a.models[i].queueing.p99(), b.models[i].queueing.p99()) << i;
  }
}

// 8 nodes x 4 GPUs with the NIC/ToR network modeled, diurnal arrivals, and
// a node death mid-run: the full datacenter stack must stay bit-identical
// under the same seed, exactly like the single-node engine.
TEST(DeterminismTest, SameSeedClusterRunIsBitIdentical) {
  datacenter::ClusterConfig config;
  config.cluster.num_nodes = 8;
  config.cluster.gpus_per_node = 4;
  config.serving = FaultedServingConfig();
  config.serving.models[0].initial_replicas = 8;
  config.serving.models[0].max_replicas = 16;
  config.serving.models[1].arrivals = serving::ArrivalKind::kDiurnal;
  config.serving.models[1].diurnal.shape.period_us = SecToUs(4.0);
  config.serving.models[1].diurnal.burst.burst_factor = 3.0;
  config.serving.models[1].diurnal.burst.burst_fraction = 0.1;
  fault::FaultEvent node_down;
  node_down.kind = fault::FaultKind::kNodeDown;
  node_down.at_us = SecToUs(2.5);
  node_down.node = 2;
  config.serving.fault_plan.events.push_back(node_down);

  const datacenter::ClusterResult a = datacenter::RunCluster(config);
  const datacenter::ClusterResult b = datacenter::RunCluster(config);

  EXPECT_EQ(a.node_faults, 1u);
  EXPECT_EQ(a.nodes_alive_end, 7u);
  EXPECT_TRUE(datacenter::ClusterResultsBitIdentical(a, b));
}

TEST(DeterminismTest, DifferentSeedServingRunDiffers) {
  serving::ServingConfig config = FaultedServingConfig();
  const serving::ServingResult a = serving::RunServing(config);
  config.seed = 1234;
  const serving::ServingResult b = serving::RunServing(config);
  // Poisson arrivals reshuffle: offered counts and the tail cannot coincide.
  EXPECT_TRUE(a.models[0].total_offered != b.models[0].total_offered ||
              a.models[0].latency.p99() != b.models[0].latency.p99());
}

// --- LLM continuous batching (DESIGN.md §13). ---

// An LLM service under KV pressure (evictions fire) with sampled decode
// targets: every stochastic LLM path at once.
serving::ModelServiceConfig LlmServiceConfig() {
  serving::ModelServiceConfig cfg;
  cfg.workload = MakeWorkload(ModelId::kLlmDecode, TaskType::kInference);
  cfg.rps = 120.0;
  cfg.llm.enabled = true;
  cfg.llm.model.layers = 4;
  cfg.llm.model.hidden = 1024;
  cfg.llm.model.heads = 8;
  cfg.llm.prompt_tokens = 64;
  cfg.llm.min_decode_tokens = 4;
  cfg.llm.max_decode_tokens = 48;
  cfg.llm.kv_capacity_bytes =
      workloads::LlmKvBytesPerToken(cfg.llm.model) * static_cast<std::size_t>(250);
  cfg.llm.ttft_slo_us = MsToUs(50.0);
  cfg.llm.tpot_slo_us = MsToUs(5.0);
  cfg.initial_replicas = 2;
  return cfg;
}

void ExpectLlmModelsEqual(const serving::ModelServingResult& a,
                          const serving::ModelServingResult& b) {
  EXPECT_EQ(a.total_offered, b.total_offered);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.slo_met, b.slo_met);
  EXPECT_EQ(a.tokens, b.tokens);
  EXPECT_EQ(a.prefills, b.prefills);
  EXPECT_EQ(a.decode_steps, b.decode_steps);
  EXPECT_EQ(a.kv_evictions, b.kv_evictions);
  EXPECT_EQ(a.left_in_system, b.left_in_system);
  EXPECT_DOUBLE_EQ(a.latency.p99(), b.latency.p99());
  EXPECT_DOUBLE_EQ(a.ttft.p50(), b.ttft.p50());
  EXPECT_DOUBLE_EQ(a.ttft.p99(), b.ttft.p99());
  EXPECT_DOUBLE_EQ(a.tpot.p50(), b.tpot.p50());
  EXPECT_DOUBLE_EQ(a.tpot.p99(), b.tpot.p99());
}

TEST(DeterminismTest, SameSeedLlmServingRunIsBitIdentical) {
  serving::ServingConfig config;
  config.num_gpus = 2;
  config.warmup_us = SecToUs(0.5);
  config.duration_us = SecToUs(4.0);
  config.models = {LlmServiceConfig()};

  const serving::ServingResult a = serving::RunServing(config);
  const serving::ServingResult b = serving::RunServing(config);
  ASSERT_GT(a.models[0].kv_evictions, 0u);  // the run actually churns KV
  ExpectLlmModelsEqual(a.models[0], b.models[0]);
}

// Multi-node LLM run with a kNodeDown mid-decode: orphaned sequences lose
// their KV with the node and recompute from the prompt on a survivor. The
// recovery path must be as deterministic as the steady state.
TEST(DeterminismTest, SameSeedLlmNodeDownRunIsBitIdentical) {
  datacenter::ClusterConfig config;
  config.cluster.num_nodes = 2;
  config.cluster.gpus_per_node = 2;
  config.serving.num_gpus = 4;
  config.serving.warmup_us = SecToUs(0.5);
  config.serving.duration_us = SecToUs(4.0);
  config.serving.models = {LlmServiceConfig()};
  // One replica per GPU: the dying node is guaranteed to hold live decode.
  config.serving.models[0].initial_replicas = 4;
  config.serving.models[0].max_replicas = 4;
  fault::FaultEvent node_down;
  node_down.kind = fault::FaultKind::kNodeDown;
  node_down.at_us = SecToUs(2.0);
  node_down.node = 1;
  config.serving.fault_plan.events.push_back(node_down);

  const datacenter::ClusterResult a = datacenter::RunCluster(config);
  const datacenter::ClusterResult b = datacenter::RunCluster(config);
  EXPECT_EQ(a.node_faults, 1u);
  EXPECT_GT(a.serving.replicas_lost, 0u);
  EXPECT_EQ(a.serving.replicas_lost, b.serving.replicas_lost);
  EXPECT_EQ(a.requests_forwarded, b.requests_forwarded);
  ExpectLlmModelsEqual(a.serving.models[0], b.serving.models[0]);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t n = 0; n < a.nodes.size(); ++n) {
    EXPECT_EQ(a.nodes[n].requests, b.nodes[n].requests) << n;
    EXPECT_EQ(a.nodes[n].batches, b.nodes[n].batches) << n;
  }
}

}  // namespace
}  // namespace harness
}  // namespace orion
