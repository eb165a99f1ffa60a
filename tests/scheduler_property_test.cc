// Property-based tests across ALL schedulers: invariants the interception
// boundary guarantees regardless of policy, checked over randomized client
// mixes and every scheduler kind.
//
//   S1  Every client's requests complete in order (per-client FIFO).
//   S2  Request latency >= run-alone latency (no scheduler produces
//       time travel).
//   S3  All completion callbacks fire exactly once.
//   S4  The high-priority client is never fully starved.
//   S5  Determinism across repeated runs.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/harness/experiment.h"

namespace orion {
namespace harness {
namespace {

using workloads::MakeWorkload;
using workloads::ModelId;
using workloads::TaskType;

ExperimentConfig MixConfig(SchedulerKind scheduler, std::uint64_t seed) {
  ExperimentConfig config;
  config.scheduler = scheduler;
  config.seed = seed;
  config.warmup_us = SecToUs(0.3);
  config.duration_us = SecToUs(2.5);

  // Client mix varies with the seed.
  Rng rng(seed);
  ClientConfig hp;
  const bool hp_inference = scheduler != SchedulerKind::kTickTock && rng.NextDouble() < 0.6;
  if (hp_inference) {
    hp.workload = MakeWorkload(ModelId::kResNet50, TaskType::kInference);
    hp.arrivals = trace::ArrivalKind::kPoisson;
    hp.rps = rng.UniformDouble(10.0, 30.0);
  } else {
    hp.workload = MakeWorkload(ModelId::kResNet50, TaskType::kTraining);
    hp.arrivals = trace::ArrivalKind::kClosedLoop;
  }
  hp.high_priority = true;

  ClientConfig be;
  be.workload = MakeWorkload(rng.NextDouble() < 0.5 ? ModelId::kMobileNetV2
                                                    : ModelId::kTransformer,
                             scheduler == SchedulerKind::kTickTock ? TaskType::kTraining
                                                                   : TaskType::kInference);
  if (be.workload.task == TaskType::kInference) {
    be.arrivals = trace::ArrivalKind::kUniform;
    be.rps = rng.UniformDouble(10.0, 40.0);
  }
  config.clients = {hp, be};
  return config;
}

class SchedulerPropertyTest
    : public ::testing::TestWithParam<std::tuple<SchedulerKind, std::uint64_t>> {};

TEST_P(SchedulerPropertyTest, LatencyNeverBelowRunAlone) {
  const auto [scheduler, seed] = GetParam();
  const ExperimentConfig config = MixConfig(scheduler, seed);
  const ExperimentResult result = RunExperiment(config);
  for (std::size_t i = 0; i < result.clients.size(); ++i) {
    const ClientResult& client = result.clients[i];
    if (client.latency.empty()) {
      continue;
    }
    profiler::ProfileOptions opts;
    opts.launch_overhead_us = config.launch_overhead_us;
    opts.measured_requests = 2;
    const auto profile =
        profiler::ProfileWorkload(config.device, config.clients[i].workload, opts);
    // S2 with tolerance: min latency can be slightly under the profiled mean
    // (pipelining variance), never dramatically so.
    EXPECT_GE(client.latency.min(), 0.85 * profile.request_latency_us)
        << SchedulerKindName(scheduler) << " seed " << seed << " client " << client.name;
  }
}

TEST_P(SchedulerPropertyTest, HighPriorityClientMakesProgress) {
  const auto [scheduler, seed] = GetParam();
  const ExperimentResult result = RunExperiment(MixConfig(scheduler, seed));
  EXPECT_GT(result.hp().completed, 0u) << SchedulerKindName(scheduler);  // S4
}

TEST_P(SchedulerPropertyTest, Deterministic) {
  const auto [scheduler, seed] = GetParam();
  const ExperimentConfig config = MixConfig(scheduler, seed);
  const ExperimentResult a = RunExperiment(config);
  const ExperimentResult b = RunExperiment(config);
  ASSERT_EQ(a.clients.size(), b.clients.size());
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    EXPECT_EQ(a.clients[i].completed, b.clients[i].completed);  // S5
    if (!a.clients[i].latency.empty()) {
      EXPECT_DOUBLE_EQ(a.clients[i].latency.mean(), b.clients[i].latency.mean());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerPropertyTest,
    ::testing::Combine(::testing::Values(SchedulerKind::kDedicated, SchedulerKind::kTemporal,
                                         SchedulerKind::kStreams, SchedulerKind::kMps,
                                         SchedulerKind::kReef, SchedulerKind::kTickTock,
                                         SchedulerKind::kOrion),
                       ::testing::Values(11u, 23u, 47u)),
    [](const auto& info) {
      return std::string(SchedulerKindName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// S1/S3 at the interception level: drive one client through each scheduler
// and check request completion callbacks fire once, in order.
class CompletionOrderTest : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(CompletionOrderTest, RequestsCompleteInOrderExactlyOnce) {
  const SchedulerKind kind = GetParam();
  ExperimentConfig config;
  config.scheduler = kind;
  config.warmup_us = 0.0;
  config.duration_us = SecToUs(2.0);
  ClientConfig hp;
  hp.workload = MakeWorkload(ModelId::kMobileNetV2, TaskType::kInference);
  hp.high_priority = true;
  hp.arrivals = trace::ArrivalKind::kUniform;
  hp.rps = 50.0;
  ClientConfig be;
  be.workload = MakeWorkload(ModelId::kMobileNetV2,
                             kind == SchedulerKind::kTickTock ? TaskType::kTraining
                                                              : TaskType::kInference);
  if (be.workload.task == TaskType::kInference) {
    be.arrivals = trace::ArrivalKind::kUniform;
    be.rps = 30.0;
  }
  config.clients = {hp, be};
  const ExperimentResult result = RunExperiment(config);
  // The driver serialises per-client requests, so `completed` monotonically
  // increasing latencies-sample-count == completions is the S1/S3 witness.
  EXPECT_EQ(result.hp().latency.count(), result.hp().completed);
  EXPECT_GT(result.hp().completed, 10u);
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, CompletionOrderTest,
                         ::testing::Values(SchedulerKind::kDedicated, SchedulerKind::kTemporal,
                                           SchedulerKind::kStreams, SchedulerKind::kMps,
                                           SchedulerKind::kReef, SchedulerKind::kTickTock,
                                           SchedulerKind::kOrion),
                         [](const auto& info) {
                           return std::string(SchedulerKindName(info.param));
                         });

}  // namespace
}  // namespace harness
}  // namespace orion
