// End-to-end harness tests: full collocation experiments with every
// scheduler, checking the paper's qualitative claims (who wins, and why) on
// shortened runs.
#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/trace/request_rates.h"

namespace orion {
namespace harness {
namespace {

using workloads::MakeWorkload;
using workloads::ModelId;
using workloads::TaskType;

ExperimentConfig InfTrainConfig(SchedulerKind scheduler, DurationUs duration = SecToUs(4.0)) {
  ExperimentConfig config;
  config.scheduler = scheduler;
  config.warmup_us = SecToUs(0.5);
  config.duration_us = duration;

  ClientConfig hp;
  hp.workload = MakeWorkload(ModelId::kResNet50, TaskType::kInference);
  hp.high_priority = true;
  hp.arrivals = trace::ArrivalKind::kPoisson;
  hp.rps = trace::RequestsPerSecond(ModelId::kResNet50,
                                    trace::CollocationCase::kInfTrainPoisson);

  ClientConfig be;
  be.workload = MakeWorkload(ModelId::kResNet50, TaskType::kTraining);
  be.arrivals = trace::ArrivalKind::kClosedLoop;

  config.clients = {hp, be};
  return config;
}

TEST(HarnessTest, IdealMatchesRunAloneLatency) {
  const auto config = InfTrainConfig(SchedulerKind::kDedicated);
  const ExperimentResult result = RunExperiment(config);
  ASSERT_EQ(result.clients.size(), 2u);
  const ClientResult& hp = result.hp();
  EXPECT_GT(hp.completed, 20u);
  // Dedicated p50 ~= run-alone request latency (Poisson queueing adds tail).
  const auto profile = profiler::ProfileWorkload(
      config.device, config.clients[0].workload,
      {.launch_overhead_us = config.launch_overhead_us});
  EXPECT_NEAR(hp.latency.p50(), profile.request_latency_us,
              0.2 * profile.request_latency_us);
}

TEST(HarnessTest, DeterministicAcrossRuns) {
  const auto config = InfTrainConfig(SchedulerKind::kOrion, SecToUs(2.0));
  const ExperimentResult a = RunExperiment(config);
  const ExperimentResult b = RunExperiment(config);
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    EXPECT_EQ(a.clients[i].completed, b.clients[i].completed);
    EXPECT_DOUBLE_EQ(a.clients[i].latency.p99(), b.clients[i].latency.p99());
  }
}

TEST(HarnessTest, SeedChangesPoissonOutcome) {
  auto config = InfTrainConfig(SchedulerKind::kOrion, SecToUs(2.0));
  const ExperimentResult a = RunExperiment(config);
  config.seed = 1234;
  const ExperimentResult b = RunExperiment(config);
  EXPECT_NE(a.hp().latency.p99(), b.hp().latency.p99());
}

TEST(HarnessTest, OrionKeepsHpLatencyNearIdealWithBeProgress) {
  const ExperimentResult ideal = RunExperiment(InfTrainConfig(SchedulerKind::kDedicated));
  const ExperimentResult orion = RunExperiment(InfTrainConfig(SchedulerKind::kOrion));
  // The headline claim (C1): hp p99 stays close to ideal...
  EXPECT_LT(orion.hp().latency.p99(), 1.6 * ideal.hp().latency.p99());
  // ...while the best-effort training job makes real progress.
  double be_tput = 0.0;
  for (const auto& client : orion.clients) {
    if (!client.high_priority) {
      be_tput = client.throughput_rps;
    }
  }
  EXPECT_GT(be_tput, 1.0);  // > 1 iteration/s on the shared GPU
}

TEST(HarnessTest, TemporalSuffersHeadOfLineBlocking) {
  const ExperimentResult ideal = RunExperiment(InfTrainConfig(SchedulerKind::kDedicated));
  const ExperimentResult temporal = RunExperiment(InfTrainConfig(SchedulerKind::kTemporal));
  // An inference request can wait behind a whole training iteration.
  EXPECT_GT(temporal.hp().latency.p99(), 2.0 * ideal.hp().latency.p99());
}

TEST(HarnessTest, OrionBeatsReefOnTailLatency) {
  const ExperimentResult orion = RunExperiment(InfTrainConfig(SchedulerKind::kOrion));
  const ExperimentResult reef = RunExperiment(InfTrainConfig(SchedulerKind::kReef));
  // §6.2.1: REEF lacks interference awareness and duration throttling.
  EXPECT_LT(orion.hp().latency.p99(), reef.hp().latency.p99());
}

TEST(HarnessTest, CollocationRaisesUtilization) {
  const ExperimentResult ideal = RunExperiment(InfTrainConfig(SchedulerKind::kDedicated));
  const ExperimentResult orion = RunExperiment(InfTrainConfig(SchedulerKind::kOrion));
  // Fig. 8/9: Orion fills the hp job's idle periods.
  EXPECT_GT(orion.utilization.compute, 2.0 * ideal.utilization.compute);
  EXPECT_GT(orion.utilization.sm_busy, ideal.utilization.sm_busy);
}

TEST(HarnessTest, TrainTrainWithTickTockAndOrion) {
  ExperimentConfig config;
  config.warmup_us = SecToUs(0.5);
  config.duration_us = SecToUs(4.0);
  ClientConfig hp;
  hp.workload = MakeWorkload(ModelId::kResNet50, TaskType::kTraining);
  hp.high_priority = true;
  ClientConfig be;
  be.workload = MakeWorkload(ModelId::kMobileNetV2, TaskType::kTraining);
  config.clients = {hp, be};

  config.scheduler = SchedulerKind::kDedicated;
  const ExperimentResult ideal = RunExperiment(config);
  config.scheduler = SchedulerKind::kTickTock;
  const ExperimentResult ticktock = RunExperiment(config);
  config.scheduler = SchedulerKind::kOrion;
  const ExperimentResult orion = RunExperiment(config);

  ASSERT_GT(ideal.hp().throughput_rps, 0.0);
  // Tick-Tock's barrier costs hp throughput (§6.2.2).
  EXPECT_LT(ticktock.hp().throughput_rps, ideal.hp().throughput_rps);
  // Orion keeps hp training throughput within ~25% of ideal on this short
  // run (the paper reports within 16% on full-length runs).
  EXPECT_GT(orion.hp().throughput_rps, 0.7 * ideal.hp().throughput_rps);
  // And beats Tick-Tock for the high-priority job.
  EXPECT_GE(orion.hp().throughput_rps, ticktock.hp().throughput_rps);
}

TEST(HarnessTest, MultipleBestEffortClients) {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kOrion;
  config.warmup_us = SecToUs(0.5);
  config.duration_us = SecToUs(3.0);
  ClientConfig hp;
  hp.workload = MakeWorkload(ModelId::kResNet50, TaskType::kInference);
  hp.high_priority = true;
  hp.arrivals = trace::ArrivalKind::kPoisson;
  hp.rps = 40.0;
  ClientConfig be1;
  be1.workload = MakeWorkload(ModelId::kMobileNetV2, TaskType::kInference);
  be1.arrivals = trace::ArrivalKind::kUniform;
  be1.rps = 60.0;
  ClientConfig be2;
  be2.workload = MakeWorkload(ModelId::kTransformer, TaskType::kInference);
  be2.arrivals = trace::ArrivalKind::kUniform;
  be2.rps = 15.0;
  config.clients = {hp, be1, be2};
  const ExperimentResult result = RunExperiment(config);
  ASSERT_EQ(result.clients.size(), 3u);
  for (const auto& client : result.clients) {
    EXPECT_GT(client.completed, 0u) << client.name;
  }
}

TEST(HarnessTest, A100DeviceWorks) {
  auto config = InfTrainConfig(SchedulerKind::kOrion, SecToUs(2.0));
  config.device = gpusim::DeviceSpec::A100_40GB();
  const ExperimentResult result = RunExperiment(config);
  EXPECT_GT(result.hp().completed, 10u);
}

TEST(HarnessTest, CostSavingsFormula) {
  // Table 4 example: ResNet50 trains at 10.3 it/s dedicated, 7.45 collocated
  // -> 1.45x savings.
  EXPECT_NEAR(CostSavings(10.3, 7.45), 1.45, 0.01);
  EXPECT_DOUBLE_EQ(CostSavings(10.0, 10.0), 2.0);  // free collocation = 2x
}

TEST(HarnessTest, SchedulerKindNames) {
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kOrion), "orion");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kDedicated), "ideal");
  EXPECT_STREQ(SchedulerKindName(SchedulerKind::kTickTock), "ticktock");
}

TEST(HarnessTest, LatencyDecomposesIntoQueueingPlusService) {
  const auto config = InfTrainConfig(SchedulerKind::kTemporal, SecToUs(3.0));
  const ExperimentResult result = RunExperiment(config);
  const ClientResult& hp = result.hp();
  ASSERT_GT(hp.completed, 5u);
  ASSERT_EQ(hp.latency.count(), hp.queueing.count());
  ASSERT_EQ(hp.latency.count(), hp.service.count());
  // Means add up exactly (each request's latency = queueing + service).
  EXPECT_NEAR(hp.latency.mean(), hp.queueing.mean() + hp.service.mean(), 1e-6);
  // Temporal sharing's damage is queueing (HOL blocking), not service.
  EXPECT_GT(hp.queueing.p99(), hp.service.p99());
}

TEST(HarnessTest, IdealHasNegligibleServiceInflation) {
  const auto config = InfTrainConfig(SchedulerKind::kDedicated, SecToUs(3.0));
  const ExperimentResult result = RunExperiment(config);
  const ClientResult& hp = result.hp();
  // On a dedicated GPU, service time is essentially the run-alone latency:
  // tight distribution (p99 within 10% of p50).
  EXPECT_LT(hp.service.p99(), 1.1 * hp.service.p50());
}

TEST(HarnessTest, ApolloArrivalsRun) {
  auto config = InfTrainConfig(SchedulerKind::kOrion, SecToUs(2.0));
  config.clients[0].arrivals = trace::ArrivalKind::kApollo;
  config.clients[0].rps = 40.0;
  const ExperimentResult result = RunExperiment(config);
  EXPECT_GT(result.hp().completed, 40u);
}

// Profiles are memoized per process, and fault injection poisons the
// profiles of one run in place. A poisoned run must leave later runs of the
// same workloads bit-identical to earlier ones.
TEST(HarnessTest, ProfilePoisonDoesNotLeakAcrossRuns) {
  const ExperimentConfig clean = InfTrainConfig(SchedulerKind::kOrion, SecToUs(1.0));
  ExperimentConfig poisoned = clean;
  fault::FaultEvent poison;
  poison.kind = fault::FaultKind::kProfilePoison;
  poison.at_us = 0.0;
  poison.perturb_factor = 4.0;
  poison.drop_fraction = 0.5;
  poison.seed = 11;
  poisoned.fault_plan.events.push_back(poison);

  const ExperimentResult before = RunExperiment(clean);
  const ExperimentResult during = RunExperiment(poisoned);
  const ExperimentResult after = RunExperiment(clean);

  ASSERT_EQ(during.faults_injected, 1u);
  // The poison changes what the scheduler does, or the test would prove
  // nothing.
  EXPECT_NE(during.hp().latency.samples(), before.hp().latency.samples());
  ASSERT_EQ(before.clients.size(), after.clients.size());
  for (std::size_t i = 0; i < before.clients.size(); ++i) {
    EXPECT_EQ(before.clients[i].completed_total, after.clients[i].completed_total) << i;
    EXPECT_EQ(before.clients[i].latency.samples(), after.clients[i].latency.samples()) << i;
  }
  EXPECT_EQ(before.utilization.compute, after.utilization.compute);
  EXPECT_EQ(before.utilization.membw, after.utilization.membw);
  EXPECT_EQ(before.utilization.sm_busy, after.utilization.sm_busy);
}

}  // namespace
}  // namespace harness
}  // namespace orion
