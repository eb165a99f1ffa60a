// Latency attribution tests (DESIGN.md §15): LatencyLedger phase accounting,
// percentile-recorder edge cases the blame report leans on, the CSV schema,
// and the end-to-end identity contract on the serving, LLM, failover, and
// harness-paging paths.
//
// The engines ORION_CHECK the ledger sum identity at every completion, so
// each engine-level run here doubles as an invariant sweep: a re-queue path
// that reset a request's first-arrival clock (or lost an interval) would
// abort the run, not just skew a number.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/datacenter/cluster.h"
#include "src/fault/fault_plan.h"
#include "src/harness/experiment.h"
#include "src/serving/serving.h"
#include "src/telemetry/attribution/ledger.h"
#include "src/telemetry/attribution/report.h"
#include "src/telemetry/telemetry.h"
#include "src/workloads/models.h"

namespace orion {
namespace attribution {
namespace {

using workloads::MakeWorkload;
using workloads::ModelId;
using workloads::TaskType;

// --- LatencyLedger unit tests. ---

TEST(LatencyLedgerTest, PhasesSumToE2eAcrossTransitions) {
  LatencyLedger ledger;
  ledger.Begin(0.0);
  ledger.Advance(10.0, Phase::kNetRequest);      // [0,10] queued at front-end
  ledger.EnterQueue(15.0, /*replica_idle_us=*/0.0);  // [10,15] on the wire
  ledger.LeaveQueue(40.0, /*replica_idle_us=*/5.0, Phase::kExecute);
  ledger.ChargeExecStep(70.0, /*iso_us=*/20.0);
  ledger.Advance(70.0, Phase::kNetResponse);
  const DurationUs residual = ledger.Finalize(0.0, 75.0);
  EXPECT_NEAR(residual, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(ledger.phase(Phase::kQueue), 30.0);   // 10 pre-wire + 20 busy
  EXPECT_DOUBLE_EQ(ledger.phase(Phase::kLinger), 5.0);   // replica idled 5 of the 25
  EXPECT_DOUBLE_EQ(ledger.phase(Phase::kNetRequest), 5.0);
  EXPECT_DOUBLE_EQ(ledger.phase(Phase::kExecute), 20.0);
  EXPECT_DOUBLE_EQ(ledger.phase(Phase::kInterference), 10.0);
  EXPECT_DOUBLE_EQ(ledger.phase(Phase::kNetResponse), 5.0);
  double sum = 0.0;
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    sum += ledger.phases()[i];
  }
  EXPECT_DOUBLE_EQ(sum, 75.0);
}

TEST(LatencyLedgerTest, EvictRejoinWaitIsChargedToPreemptNotLinger) {
  // A KV-evicted sequence re-enters the queue via DynamicBatcher::Requeue,
  // which bypasses EnterQueue: the open phase stays kPreempt and LeaveQueue
  // must charge the whole rejoin wait there, idle replica or not.
  LatencyLedger ledger;
  ledger.Begin(0.0);
  ledger.Advance(10.0, Phase::kPreempt);
  ledger.LeaveQueue(30.0, /*replica_idle_us=*/100.0, Phase::kExecute);
  EXPECT_DOUBLE_EQ(ledger.phase(Phase::kPreempt), 20.0);
  EXPECT_DOUBLE_EQ(ledger.phase(Phase::kLinger), 0.0);
  EXPECT_DOUBLE_EQ(ledger.phase(Phase::kQueue), 10.0);
}

TEST(LatencyLedgerTest, ChargeExecStepClampsIsolatedCostToElapsed) {
  // A degraded device can make the isolated price exceed the measured step
  // (the roofline assumed healthy hardware); execute is capped at elapsed so
  // interference never goes negative.
  LatencyLedger ledger;
  ledger.Begin(0.0);
  ledger.ChargeExecStep(30.0, /*iso_us=*/50.0);
  EXPECT_DOUBLE_EQ(ledger.phase(Phase::kExecute), 30.0);
  EXPECT_DOUBLE_EQ(ledger.phase(Phase::kInterference), 0.0);
}

TEST(LatencyLedgerTest, MarkFirstTokenSnapshotSplitsExactly) {
  LatencyLedger ledger;
  ledger.Begin(0.0);
  ledger.LeaveQueue(10.0, 0.0, Phase::kExecute);
  ledger.ChargeExecStep(25.0, /*iso_us=*/12.0);  // prefill + first decode step
  ledger.MarkFirstToken();
  ledger.ChargeExecStep(65.0, /*iso_us=*/30.0);  // decode tail
  ledger.Finalize(0.0, 65.0);
  ASSERT_TRUE(ledger.ttft_marked());
  double ttft[kNumPhases];
  double tpot[kNumPhases];
  ledger.SplitTtft(ttft, tpot);
  EXPECT_DOUBLE_EQ(ttft[PhaseIndex(Phase::kQueue)], 10.0);
  EXPECT_DOUBLE_EQ(ttft[PhaseIndex(Phase::kExecute)], 12.0);
  EXPECT_DOUBLE_EQ(ttft[PhaseIndex(Phase::kInterference)], 3.0);
  EXPECT_DOUBLE_EQ(tpot[PhaseIndex(Phase::kExecute)], 30.0);
  EXPECT_DOUBLE_EQ(tpot[PhaseIndex(Phase::kInterference)], 10.0);
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    EXPECT_DOUBLE_EQ(ttft[i] + tpot[i], ledger.phases()[i]) << PhaseName(PhaseFromIndex(i));
  }
}

TEST(LatencyLedgerTest, SynthesizeFirstTokenInterpolatesExecutePhases) {
  LatencyLedger ledger;
  ledger.Begin(0.0);
  ledger.LeaveQueue(10.0, 0.0, Phase::kExecute);
  ledger.ChargeExecStep(70.0, /*iso_us=*/40.0);
  ledger.Advance(75.0, Phase::kNetResponse);  // [70,75] charged to execute-open
  ledger.Finalize(0.0, 80.0);
  ledger.SynthesizeFirstToken(0.5);
  double ttft[kNumPhases];
  double tpot[kNumPhases];
  ledger.SplitTtft(ttft, tpot);
  // Pre-execute phases belong to TTFT whole; execute/interference split at
  // the interpolation fraction; the response wire leg is all decode tail.
  EXPECT_DOUBLE_EQ(ttft[PhaseIndex(Phase::kQueue)], 10.0);
  EXPECT_DOUBLE_EQ(ttft[PhaseIndex(Phase::kExecute)],
                   ledger.phase(Phase::kExecute) * 0.5);
  EXPECT_DOUBLE_EQ(ttft[PhaseIndex(Phase::kNetResponse)], 0.0);
  EXPECT_DOUBLE_EQ(tpot[PhaseIndex(Phase::kNetResponse)],
                   ledger.phase(Phase::kNetResponse));
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    EXPECT_DOUBLE_EQ(ttft[i] + tpot[i], ledger.phases()[i]) << PhaseName(PhaseFromIndex(i));
  }
}

TEST(LatencyLedgerTest, MutatorsAreNoOpsBeforeBegin) {
  LatencyLedger ledger;
  ledger.Advance(10.0, Phase::kNetRequest);
  ledger.EnterQueue(20.0, 5.0);
  ledger.LeaveQueue(30.0, 9.0, Phase::kExecute);
  ledger.ChargeExecStep(40.0, 5.0);
  ledger.MarkFirstToken();
  EXPECT_DOUBLE_EQ(ledger.Finalize(0.0, 40.0), 0.0);
  EXPECT_FALSE(ledger.active());
  EXPECT_FALSE(ledger.ttft_marked());
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    EXPECT_DOUBLE_EQ(ledger.phases()[i], 0.0);
  }
}

// --- Percentile edge cases the report's p50/p95/p99 columns rest on. ---

TEST(LatencyRecorderTest, PercentileEdgeCases) {
  LatencyRecorder empty;
  EXPECT_DOUBLE_EQ(empty.Percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.Percentile(100.0), 0.0);

  LatencyRecorder one;
  one.Add(7.5);
  EXPECT_DOUBLE_EQ(one.Percentile(0.0), 7.5);
  EXPECT_DOUBLE_EQ(one.Percentile(50.0), 7.5);
  EXPECT_DOUBLE_EQ(one.Percentile(99.0), 7.5);
  EXPECT_DOUBLE_EQ(one.Percentile(100.0), 7.5);

  LatencyRecorder two;
  two.Add(10.0);
  two.Add(20.0);
  EXPECT_DOUBLE_EQ(two.Percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(two.Percentile(50.0), 15.0);  // linear interpolation
  EXPECT_DOUBLE_EQ(two.Percentile(100.0), 20.0);

  LatencyRecorder equal;
  for (int i = 0; i < 100; ++i) {
    equal.Add(3.0);
  }
  EXPECT_DOUBLE_EQ(equal.Percentile(50.0), 3.0);
  EXPECT_DOUBLE_EQ(equal.Percentile(99.0), 3.0);

  // Percentiles are monotone in p and bounded by min/max.
  LatencyRecorder spread;
  for (int i = 1; i <= 101; ++i) {
    spread.Add(static_cast<double>((i * 37) % 101));
  }
  double prev = spread.Percentile(0.0);
  for (double p = 1.0; p <= 100.0; p += 1.0) {
    const double value = spread.Percentile(p);
    EXPECT_GE(value, prev);
    prev = value;
  }
  EXPECT_DOUBLE_EQ(spread.Percentile(0.0), spread.min());
  EXPECT_DOUBLE_EQ(spread.Percentile(100.0), spread.max());
}


// --- Blame report aggregation. ---

TEST(AttributionReportTest, DominantPhaseExcludesExecute) {
  double phases[kNumPhases] = {};
  phases[PhaseIndex(Phase::kExecute)] = 100.0;
  phases[PhaseIndex(Phase::kQueue)] = 5.0;
  phases[PhaseIndex(Phase::kInterference)] = 7.0;
  EXPECT_EQ(DominantPhase(phases), Phase::kInterference);
  // Nothing but execute: the SLO was infeasible for this model.
  double pure[kNumPhases] = {};
  pure[PhaseIndex(Phase::kExecute)] = 100.0;
  EXPECT_EQ(DominantPhase(pure), Phase::kExecute);
}

TEST(AttributionReportTest, ScopeStatsBlamesOnlyMisses) {
  ScopeStats stats;
  double queue_bound[kNumPhases] = {};
  queue_bound[PhaseIndex(Phase::kQueue)] = 50.0;
  queue_bound[PhaseIndex(Phase::kExecute)] = 10.0;
  double paging_bound[kNumPhases] = {};
  paging_bound[PhaseIndex(Phase::kPaging)] = 80.0;
  paging_bound[PhaseIndex(Phase::kExecute)] = 10.0;
  stats.Record(queue_bound, 60.0, /*miss=*/true);
  stats.Record(queue_bound, 60.0, /*miss=*/false);  // met: no blame
  stats.Record(paging_bound, 90.0, /*miss=*/true);
  stats.Record(paging_bound, 90.0, /*miss=*/true);
  EXPECT_EQ(stats.count, 4u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.blame[PhaseIndex(Phase::kQueue)], 1u);
  EXPECT_EQ(stats.blame[PhaseIndex(Phase::kPaging)], 2u);
  EXPECT_EQ(stats.DominantBlame(), Phase::kPaging);
  EXPECT_DOUBLE_EQ(stats.phase_sum_us[PhaseIndex(Phase::kQueue)], 100.0);
  EXPECT_EQ(stats.phase[PhaseIndex(Phase::kPaging)].count(), 4u);

  ScopeStats no_misses;
  no_misses.Record(queue_bound, 60.0, /*miss=*/false);
  EXPECT_EQ(no_misses.DominantBlame(), Phase::kExecute);
}

TEST(AttributionReportTest, CsvSchemaAndScopeElision) {
  AttributionRegistry registry;
  ServiceAttribution& service = registry.Service("resnet50");
  service.set_tier("lc");
  double phases[kNumPhases] = {};
  phases[PhaseIndex(Phase::kExecute)] = 9.0;
  phases[PhaseIndex(Phase::kQueue)] = 1.0;
  service.RecordE2e(phases, 10.0, /*miss=*/true);
  std::ostringstream out;
  WriteAttributionCsv(registry, out);
  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "service,tier,scope,phase,count,sum_us,mean_us,p50_us,p95_us,p99_us,"
            "blame_misses");
  std::size_t rows = 0;
  bool saw_total = false;
  while (std::getline(in, line)) {
    ++rows;
    EXPECT_EQ(line.rfind("resnet50,lc,e2e,", 0), 0u) << line;
    if (line.rfind("resnet50,lc,e2e,total,", 0) == 0) {
      saw_total = true;
    }
    // ttft/tpot were never recorded: their scopes must be elided entirely.
    EXPECT_EQ(line.find("ttft"), std::string::npos);
    EXPECT_EQ(line.find("tpot"), std::string::npos);
  }
  EXPECT_TRUE(saw_total);
  EXPECT_EQ(rows, 1u + kNumPhases);  // total row + one row per phase
}

// --- Serving path: identity under load, and the pure-observer contract. ---

serving::ServingConfig SmallServing(double rps) {
  serving::ServingConfig config;
  config.num_gpus = 2;
  config.warmup_us = SecToUs(0.5);
  config.duration_us = SecToUs(3.0);
  serving::ModelServiceConfig model;
  model.workload = MakeWorkload(ModelId::kResNet50, TaskType::kInference);
  model.tier = serving::PriorityTier::kLatencyCritical;
  model.rps = rps;
  model.slo_us = MsToUs(50.0);
  model.initial_replicas = 2;
  config.models = {model};
  return config;
}

TEST(AttributionServingTest, LedgerIdentityHoldsAndMatchesWindowCounts) {
  telemetry::Hub hub;
  hub.EnableAttribution();
  serving::ServingConfig config = SmallServing(300.0);
  config.telemetry = &hub;
  // Every completion inside RunServing ORION_CHECKs the sum identity; the
  // run finishing is the invariant sweep.
  const serving::ServingResult result = serving::RunServing(config);
  ASSERT_EQ(hub.attribution().services().size(), 1u);
  const ServiceAttribution& service = hub.attribution().services().begin()->second;
  EXPECT_EQ(service.tier(), "latency-critical");
  EXPECT_EQ(service.e2e().count, result.models[0].completed);
  EXPECT_GT(service.e2e().phase_sum_us[PhaseIndex(Phase::kExecute)], 0.0);
  // Non-LLM service: no token scopes.
  EXPECT_EQ(service.ttft().count, 0u);
  EXPECT_EQ(service.tpot().count, 0u);
}

TEST(AttributionServingTest, AttributionIsAPureObserver) {
  const serving::ServingConfig base = SmallServing(300.0);

  telemetry::Hub attr_hub;
  attr_hub.EnableAttribution();
  serving::ServingConfig with_attr = base;
  with_attr.telemetry = &attr_hub;

  telemetry::Hub plain_hub;
  serving::ServingConfig with_hub = base;
  with_hub.telemetry = &plain_hub;

  const serving::ServingResult attributed = serving::RunServing(with_attr);
  const serving::ServingResult observed = serving::RunServing(with_hub);
  const serving::ServingResult bare = serving::RunServing(base);

  for (const serving::ServingResult* other : {&observed, &bare}) {
    // Bitwise equality on purpose: enabling the ledger must not move a
    // single event in the simulation.
    EXPECT_EQ(attributed.models[0].completed, other->models[0].completed);
    EXPECT_EQ(attributed.models[0].slo_met, other->models[0].slo_met);
    EXPECT_EQ(attributed.models[0].latency.count(), other->models[0].latency.count());
    EXPECT_EQ(attributed.models[0].latency.mean(), other->models[0].latency.mean());
    EXPECT_EQ(attributed.models[0].latency.p99(), other->models[0].latency.p99());
  }
}

// --- LLM path: forced KV preemption must surface as kPreempt, and the
// ttft/tpot scopes must decompose per token landmark. ---

TEST(AttributionServingTest, KvPreemptionChargesPreemptPhase) {
  serving::LlmServiceConfig llm;
  llm.enabled = true;
  llm.continuous = true;
  llm.model.layers = 4;
  llm.model.hidden = 1024;
  llm.model.heads = 8;
  llm.prompt_tokens = 64;
  llm.min_decode_tokens = 4;
  llm.max_decode_tokens = 48;
  llm.ttft_slo_us = MsToUs(50.0);
  llm.tpot_slo_us = MsToUs(5.0);
  llm.kv_capacity_bytes =
      workloads::LlmKvBytesPerToken(llm.model) *
      static_cast<std::size_t>(2.2 * (llm.prompt_tokens + llm.max_decode_tokens));

  serving::ServingConfig config;
  config.num_gpus = 1;
  config.warmup_us = SecToUs(0.5);
  config.duration_us = SecToUs(3.0);
  serving::ModelServiceConfig model;
  model.workload = MakeWorkload(ModelId::kLlmDecode, TaskType::kInference);
  model.tier = serving::PriorityTier::kLatencyCritical;
  model.rps = 300.0;
  model.llm = llm;
  model.max_replicas = 1;
  config.models = {model};

  telemetry::Hub hub;
  hub.EnableAttribution();
  config.telemetry = &hub;
  const serving::ServingResult result = serving::RunServing(config);
  ASSERT_GT(result.models[0].kv_evictions, 0u);
  ASSERT_GT(result.models[0].completed, 0u);
  const ServiceAttribution& service = hub.attribution().services().begin()->second;
  EXPECT_EQ(service.e2e().count, result.models[0].completed);
  // Evicted sequences waited out their recompute re-queue in kPreempt.
  EXPECT_GT(service.e2e().phase_sum_us[PhaseIndex(Phase::kPreempt)], 0.0);
  // Token-level scopes recorded alongside e2e.
  EXPECT_EQ(service.ttft().count, result.models[0].completed);
  EXPECT_EQ(service.tpot().count, result.models[0].completed);
  // TTFT phases are a prefix of the full decomposition: per-phase sums can
  // never exceed the e2e sums.
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    EXPECT_LE(service.ttft().phase_sum_us[i], service.e2e().phase_sum_us[i] + 1e-6)
        << PhaseName(PhaseFromIndex(i));
  }
}

// --- Datacenter path: node death mid-flight. The ledger measures from the
// request's ORIGINAL arrival, so a failover path that reset the clock (or
// dropped the limbo interval) would break the sum identity and abort. ---

TEST(AttributionServingTest, NodeDeathRerouteChargesPreemptAndKeepsIdentity) {
  datacenter::ClusterConfig config;
  config.cluster.num_nodes = 3;
  config.cluster.gpus_per_node = 2;
  config.serving = SmallServing(240.0);
  config.serving.models[0].initial_replicas = 3;
  config.serving.models[0].max_replicas = 6;
  fault::FaultEvent down;
  down.kind = fault::FaultKind::kNodeDown;
  down.at_us = SecToUs(1.5);
  down.node = 0;
  config.serving.fault_plan.events.push_back(down);

  telemetry::Hub hub;
  hub.EnableAttribution();
  config.serving.telemetry = &hub;
  const datacenter::ClusterResult result = datacenter::RunCluster(config);
  ASSERT_GE(result.serving.replicas_lost, 1u);
  ASSERT_GT(result.serving.models[0].failed_over, 0u);
  const ServiceAttribution& service = hub.attribution().services().begin()->second;
  // Requests caught by the death were re-routed; their limbo + re-forward
  // time is preemption blame, and the fabric legs show up as wire phases.
  EXPECT_GT(service.e2e().phase_sum_us[PhaseIndex(Phase::kPreempt)], 0.0);
  EXPECT_GT(service.e2e().phase_sum_us[PhaseIndex(Phase::kNetRequest)], 0.0);
  EXPECT_GT(service.e2e().phase_sum_us[PhaseIndex(Phase::kNetResponse)], 0.0);
}

// --- Harness path: paging stalls, SLO miss mirroring, observer contract. ---

harness::ExperimentConfig PagingExperiment() {
  harness::ExperimentConfig config;
  config.scheduler = harness::SchedulerKind::kMps;
  config.warmup_us = SecToUs(0.25);
  config.duration_us = SecToUs(2.0);
  harness::ClientConfig hp;
  hp.workload = MakeWorkload(ModelId::kBert, TaskType::kInference);
  hp.high_priority = true;
  hp.slo_us = MsToUs(30.0);
  config.clients = {hp};
  // Device memory for 60% of the model: every request re-faults its scan.
  config.device.memory_bytes = static_cast<std::size_t>(
      workloads::ApproxModelStateBytes(hp.workload) * 0.6);
  config.paging.enabled = true;
  return config;
}

TEST(AttributionHarnessTest, PagingStallsLandInPagingPhase) {
  telemetry::Hub hub;
  hub.EnableAttribution();
  harness::ExperimentConfig config = PagingExperiment();
  config.telemetry = &hub;
  const harness::ExperimentResult result = harness::RunExperiment(config);
  ASSERT_GT(result.paging.faults, 0u);
  const std::string label = workloads::WorkloadName(config.clients[0].workload) + "/hp";
  ASSERT_EQ(hub.attribution().services().count(label), 1u);
  const ScopeStats& e2e = hub.attribution().services().at(label).e2e();
  EXPECT_EQ(e2e.count, result.clients[0].completed);
  EXPECT_EQ(e2e.misses, result.clients[0].slo_misses);
  const double paging_us = e2e.phase_sum_us[PhaseIndex(Phase::kPaging)];
  EXPECT_GT(paging_us, 0.0);
  // Measured-window paging attribution can never exceed the pager's own
  // whole-run stall accounting.
  EXPECT_LE(paging_us, result.clients[0].page_stall_us + 1e-6);
  EXPECT_EQ(e2e.DominantBlame(), Phase::kPaging);
}

TEST(AttributionHarnessTest, HarnessAttributionIsAPureObserver) {
  const harness::ExperimentConfig base = PagingExperiment();

  telemetry::Hub attr_hub;
  attr_hub.EnableAttribution();
  harness::ExperimentConfig with_attr = base;
  with_attr.telemetry = &attr_hub;

  const harness::ExperimentResult attributed = harness::RunExperiment(with_attr);
  const harness::ExperimentResult bare = harness::RunExperiment(base);
  EXPECT_EQ(attributed.clients[0].completed, bare.clients[0].completed);
  EXPECT_EQ(attributed.clients[0].slo_misses, bare.clients[0].slo_misses);
  EXPECT_EQ(attributed.clients[0].latency.p50(), bare.clients[0].latency.p50());
  EXPECT_EQ(attributed.clients[0].latency.p99(), bare.clients[0].latency.p99());
  EXPECT_EQ(attributed.paging.faults, bare.paging.faults);
  EXPECT_EQ(attributed.paging.stall_us, bare.paging.stall_us);
}

}  // namespace
}  // namespace attribution
}  // namespace orion
