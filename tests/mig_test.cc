// MIG baseline tests (§4: coarse-grained static spatial partitioning).
#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "src/harness/experiment.h"

namespace orion {
namespace harness {
namespace {

using workloads::MakeWorkload;
using workloads::ModelId;
using workloads::TaskType;

ExperimentConfig PairConfig(SchedulerKind scheduler) {
  ExperimentConfig config;
  config.scheduler = scheduler;
  config.warmup_us = SecToUs(0.3);
  config.duration_us = SecToUs(4.0);
  ClientConfig hp;
  hp.workload = MakeWorkload(ModelId::kResNet50, TaskType::kInference);
  hp.high_priority = true;
  hp.arrivals = trace::ArrivalKind::kPoisson;
  hp.rps = 15.0;
  ClientConfig be;
  be.workload = MakeWorkload(ModelId::kResNet50, TaskType::kTraining);
  config.clients = {hp, be};
  return config;
}

TEST(MigTest, PartitionsSlowBothJobs) {
  const ExperimentResult ideal = RunExperiment(PairConfig(SchedulerKind::kDedicated));
  const ExperimentResult mig = RunExperiment(PairConfig(SchedulerKind::kMig));
  // Half a V100 per job: the inference job's requests take visibly longer
  // than on a full GPU, and the trainer loses throughput.
  EXPECT_GT(mig.hp().latency.p50(), 1.15 * ideal.hp().latency.p50());
  double be_ideal = 0.0;
  double be_mig = 0.0;
  for (const auto& client : ideal.clients) {
    if (!client.high_priority) {
      be_ideal = client.throughput_rps;
    }
  }
  for (const auto& client : mig.clients) {
    if (!client.high_priority) {
      be_mig = client.throughput_rps;
    }
  }
  EXPECT_LT(be_mig, 0.8 * be_ideal);
}

TEST(MigTest, NoInterferenceBetweenPartitions) {
  // The flip side of static partitioning: perfect isolation. The hp job's
  // latency under MIG is identical whether or not the partner partition is
  // busy — remove the partner and nothing changes for the remaining client's
  // per-request latency (it still runs on a half-GPU partition of 2).
  ExperimentConfig with_partner = PairConfig(SchedulerKind::kMig);
  const ExperimentResult both = RunExperiment(with_partner);

  // Same partition size, idle partner: replace the trainer with a client
  // that never submits (closed-loop with an... easiest: compare p50 against
  // the run-alone latency on a half-V100 profile).
  gpusim::DeviceSpec half = gpusim::DeviceSpec::V100_16GB();
  half.num_sms /= 2;
  half.peak_fp32_tflops /= 2;
  half.peak_membw_gbps /= 2;
  const auto profile =
      profiler::ProfileWorkload(half, with_partner.clients[0].workload,
                                {.launch_overhead_us = with_partner.launch_overhead_us});
  EXPECT_NEAR(both.hp().latency.p50(), profile.request_latency_us,
              0.15 * profile.request_latency_us);
}

TEST(MigTest, CannotHarvestIdleNeighbourCapacity) {
  // §4's criticism: MIG lacks the agility to harvest a neighbour's idle
  // slots. Orion's aggregate throughput on the shared GPU beats MIG's for
  // the same pair.
  const ExperimentResult mig = RunExperiment(PairConfig(SchedulerKind::kMig));
  const ExperimentResult orion = RunExperiment(PairConfig(SchedulerKind::kOrion));
  EXPECT_GT(orion.TotalThroughput(), mig.TotalThroughput());
  EXPECT_LT(orion.hp().latency.p99(), mig.hp().latency.p99());
}

TEST(MigTest, PartitionMemoryShrinks) {
  // A ResNet101 batch-48 trainer (10.04 GB of state) fits a whole V100 but
  // not its half-V100 MIG partition, and MIG has no paging path, so the
  // harness rejects the run, even with paging enabled.
  ExperimentConfig config = PairConfig(SchedulerKind::kMig);
  config.clients[1].workload = MakeWorkload(ModelId::kResNet101, TaskType::kTraining, 48);
  const std::size_t half = config.device.memory_bytes / 2;
  const std::size_t state = workloads::ApproxModelStateBytes(config.clients[1].workload);
  ASSERT_GT(state, half);
  ASSERT_LT(state, config.device.memory_bytes);
  const std::optional<MemoryOverflow> overflow = FirstMemoryOverflow(config);
  ASSERT_TRUE(overflow.has_value());
  EXPECT_EQ(overflow->partition, 1u);
  EXPECT_EQ(overflow->capacity_bytes, half);
  EXPECT_EQ(overflow->excess_bytes, state - half);
  config.paging.enabled = true;
  EXPECT_TRUE(FirstMemoryOverflow(config).has_value());
  EXPECT_DEATH((void)RunExperiment(config), "partition 1 exceeds GPU memory");
  // On a whole device (Ideal) the same pair fits.
  config.scheduler = SchedulerKind::kDedicated;
  EXPECT_FALSE(FirstMemoryOverflow(config).has_value());
}

TEST(MigTest, HpDeviceMetricsFollowTheHpClient) {
  // Ideal and MIG give every client its own device; utilization and
  // end-of-run memory come from the high-priority client's device wherever
  // the client sits in the config. A closed-loop hp client draws no random
  // numbers, so its private device replays identically at index 0 and at
  // index 1, while the trainer's device (index 0 in the swapped run) shows
  // a different utilization. (Neither client holds device memory at the end
  // of a fault-free run, so only utilization tells the two devices apart.)
  for (const SchedulerKind kind : {SchedulerKind::kDedicated, SchedulerKind::kMig}) {
    ExperimentConfig hp_first = PairConfig(kind);
    hp_first.duration_us = SecToUs(1.0);
    hp_first.clients[0].arrivals = trace::ArrivalKind::kClosedLoop;
    ExperimentConfig hp_second = hp_first;
    std::swap(hp_second.clients[0], hp_second.clients[1]);
    const ExperimentResult a = RunExperiment(hp_first);
    const ExperimentResult b = RunExperiment(hp_second);
    EXPECT_EQ(a.utilization.compute, b.utilization.compute) << SchedulerKindName(kind);
    EXPECT_EQ(a.utilization.membw, b.utilization.membw) << SchedulerKindName(kind);
    EXPECT_EQ(a.utilization.sm_busy, b.utilization.sm_busy) << SchedulerKindName(kind);
    EXPECT_EQ(a.memory_used_end_bytes, b.memory_used_end_bytes) << SchedulerKindName(kind);

    // With no hp client partition 0, the trainer's device, is reported. It
    // reads differently, so a run that reported partition 0 regardless of
    // the hp client would fail above.
    ExperimentConfig trainer_first = hp_second;
    trainer_first.clients[1].high_priority = false;
    const ExperimentResult trainer = RunExperiment(trainer_first);
    EXPECT_NE(trainer.utilization.compute, a.utilization.compute) << SchedulerKindName(kind);
  }
}

}  // namespace
}  // namespace harness
}  // namespace orion
