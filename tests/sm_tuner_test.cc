// SM_THRESHOLD auto-tuner tests (§5.1.1 extension).
#include <gtest/gtest.h>

#include "src/harness/sm_tuner.h"

namespace orion {
namespace harness {
namespace {

using workloads::MakeWorkload;
using workloads::ModelId;
using workloads::TaskType;

ExperimentConfig TrainTrainConfig() {
  ExperimentConfig config;
  config.scheduler = SchedulerKind::kOrion;
  config.warmup_us = SecToUs(0.3);
  ClientConfig hp;
  hp.workload = MakeWorkload(ModelId::kResNet50, TaskType::kTraining);
  hp.high_priority = true;
  ClientConfig be;
  be.workload = MakeWorkload(ModelId::kMobileNetV2, TaskType::kTraining);
  config.clients = {hp, be};
  return config;
}

TEST(SmTunerTest, FindsThresholdAboveDefault) {
  const SmTunerResult result = TuneSmThreshold(TrainTrainConfig());
  // For train-train the tuner should go far beyond the 80-SM default.
  EXPECT_GT(result.best_threshold, gpusim::DeviceSpec::V100_16GB().num_sms);
  EXPECT_GT(result.hp_dedicated_metric, 0.0);
  EXPECT_FALSE(result.steps.empty());
}

TEST(SmTunerTest, RespectsHpFloor) {
  const SmTunerResult result = TuneSmThreshold(TrainTrainConfig());
  // The tuner tolerates at most 16% hp throughput loss.
  EXPECT_GE(result.hp_metric, (1.0 - 0.16) * result.hp_dedicated_metric - 0.5);
}

TEST(SmTunerTest, TunedThresholdUnlocksBestEffortThroughput) {
  ExperimentConfig config = TrainTrainConfig();
  const SmTunerResult tuned = TuneSmThreshold(config);

  config.duration_us = SecToUs(4.0);
  config.orion.sm_threshold = 0;  // conservative default
  const ExperimentResult def = RunExperiment(config);
  config.orion.sm_threshold = tuned.best_threshold;
  const ExperimentResult agg = RunExperiment(config);

  auto be_of = [](const ExperimentResult& r) {
    double total = 0.0;
    for (const auto& client : r.clients) {
      if (!client.high_priority) {
        total += client.throughput_rps;
      }
    }
    return total;
  };
  // The §5.1.1 claim: tuning admits much more best-effort work.
  EXPECT_GT(be_of(agg), 2.0 * be_of(def));
}

TEST(SmTunerTest, UpperBoundAdmitsLargestBeKernel) {
  // The search range must include max(sm_needed)+1, since schedule_be uses a
  // strict comparison; otherwise the largest kernel blocks its queue head.
  const SmTunerResult result = TuneSmThreshold(TrainTrainConfig());
  int max_needed = 0;
  const auto kernels =
      workloads::BuildKernels(gpusim::DeviceSpec::V100_16GB(),
                              MakeWorkload(ModelId::kMobileNetV2, TaskType::kTraining));
  for (const auto& kernel : kernels) {
    max_needed =
        std::max(max_needed, gpusim::SmsNeeded(gpusim::DeviceSpec::V100_16GB(), kernel.geometry));
  }
  EXPECT_LE(result.best_threshold, max_needed + 1);
  // With the fast path, the first probe is the upper bound itself.
  ASSERT_FALSE(result.steps.empty());
  EXPECT_EQ(result.steps.front().threshold, max_needed + 1);
}

TEST(SmTunerDeathTest, RejectsNonOrionScheduler) {
  ExperimentConfig config = TrainTrainConfig();
  config.scheduler = SchedulerKind::kMps;
  EXPECT_DEATH((void)TuneSmThreshold(config), "Orion scheduler");
}

}  // namespace
}  // namespace harness
}  // namespace orion
