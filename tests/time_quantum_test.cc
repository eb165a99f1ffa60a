// nvshare-style time-quantum scheduler (src/baselines/time_quantum.h) and
// its anti-thrashing policy pieces (src/memsub/thrash.h).
//
// The pure-logic suite drives the thrash detector's hysteresis and the
// quantum sizing directly; the integration suite runs the scheduler through
// the harness against the unified-memory pager and checks the regime
// transitions the oversubscription study relies on: shared mode stays
// pass-through when the collocation fits, sustained thrash flips to
// exclusive quanta, rotation serves every tenant, and an idle tenant cannot
// hold the GPU hostage.
#include <gtest/gtest.h>

#include <cstddef>

#include "src/harness/experiment.h"
#include "src/memsub/thrash.h"

namespace orion {
namespace {

// --- ThrashDetector hysteresis (pure logic). -------------------------------

// The detector's constants: a window at or above 0.20 busy is high, at or
// below 0.05 low; two high windows enter, five low windows exit.

TEST(ThrashDetectorTest, NeverEntersWithoutOversubscription) {
  memsub::ThrashDetector detector;
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(detector.Observe(1.0, /*oversubscribed=*/false));
  }
}

TEST(ThrashDetectorTest, EntersOnlyAfterConsecutiveHighWindows) {
  memsub::ThrashDetector detector;
  EXPECT_FALSE(detector.Observe(0.9, true));  // one burst is not thrash
  EXPECT_TRUE(detector.Observe(0.9, true));   // sustained: enter
}

TEST(ThrashDetectorTest, BrokenHighStreakDoesNotEnter) {
  memsub::ThrashDetector detector;
  EXPECT_FALSE(detector.Observe(0.9, true));
  EXPECT_FALSE(detector.Observe(0.1, true));  // streak broken
  EXPECT_FALSE(detector.Observe(0.9, true));  // counting restarts
  EXPECT_TRUE(detector.Observe(0.9, true));
}

TEST(ThrashDetectorTest, HoldsWhileOversubscribedEvenWhenQuiet) {
  // Exclusive mode itself quells the fault traffic; reverting while memory
  // is still oversubscribed would just thrash again. One-way door.
  memsub::ThrashDetector detector;
  detector.Observe(0.9, true);
  ASSERT_TRUE(detector.Observe(0.9, true));
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(detector.Observe(0.0, /*oversubscribed=*/true));
  }
}

TEST(ThrashDetectorTest, ExitsAfterSustainedQuietOnceFitting) {
  memsub::ThrashDetector detector;
  detector.Observe(0.9, true);
  ASSERT_TRUE(detector.Observe(0.9, true));
  // A client released: memory fits again. Exit still needs 5 quiet windows.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(detector.Observe(0.0, /*oversubscribed=*/false)) << "window " << i;
  }
  EXPECT_FALSE(detector.Observe(0.0, /*oversubscribed=*/false));
}

TEST(ThrashDetectorTest, HighWindowResetsExitStreak) {
  memsub::ThrashDetector detector;
  detector.Observe(0.9, true);
  ASSERT_TRUE(detector.Observe(0.9, true));
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(detector.Observe(0.0, false));
  }
  EXPECT_TRUE(detector.Observe(0.9, false));  // residual burst: streak resets
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(detector.Observe(0.0, false));
  }
  EXPECT_FALSE(detector.Observe(0.0, false));
}

TEST(ThrashDetectorTest, ResetClearsState) {
  memsub::ThrashDetector detector;
  detector.Observe(0.9, true);
  ASSERT_TRUE(detector.Observe(0.9, true));
  detector.Reset();
  EXPECT_FALSE(detector.thrashing());
  EXPECT_FALSE(detector.Observe(0.9, true));  // streaks cleared too
}

// --- Quantum sizing. -------------------------------------------------------

TEST(QuantumPolicyTest, ClampsToBounds) {
  // 50 ms .. 2 s, eight times the measured swap cost.
  EXPECT_DOUBLE_EQ(memsub::kMinQuantumUs, MsToUs(50.0));
  EXPECT_DOUBLE_EQ(memsub::QuantumFromSwapCost(0.0), MsToUs(50.0));
  EXPECT_DOUBLE_EQ(memsub::QuantumFromSwapCost(MsToUs(1.0)), MsToUs(50.0));
  EXPECT_DOUBLE_EQ(memsub::QuantumFromSwapCost(MsToUs(20.0)), MsToUs(160.0));
  EXPECT_DOUBLE_EQ(memsub::QuantumFromSwapCost(SecToUs(10.0)), SecToUs(2.0));
}

// --- Integration: scheduler + pager through the harness. -------------------

constexpr std::size_t kPage = memsub::kPageBytes;

std::size_t PageAligned(std::size_t bytes) { return (bytes + kPage - 1) / kPage * kPage; }

// Short-request collocation (inference mixes show regime changes within a
// small simulated window): hp mobilenet + a larger best-effort resnet.
harness::ExperimentConfig TqConfig(double oversub_factor) {
  harness::ExperimentConfig config;
  config.device = gpusim::DeviceSpec::V100_16GB();
  config.scheduler = harness::SchedulerKind::kTimeQuantum;
  config.paging.enabled = true;
  harness::ClientConfig hp;
  hp.workload = workloads::MakeWorkload(workloads::ModelId::kMobileNetV2,
                                        workloads::TaskType::kInference, 4);
  hp.high_priority = true;
  harness::ClientConfig be;
  be.workload = workloads::MakeWorkload(workloads::ModelId::kResNet101,
                                        workloads::TaskType::kInference, 16);
  be.paging_ws_fraction = 0.60;
  config.clients = {hp, be};
  const std::size_t aggregate = PageAligned(workloads::ApproxModelStateBytes(hp.workload)) +
                                PageAligned(workloads::ApproxModelStateBytes(be.workload));
  config.device.memory_bytes =
      static_cast<std::size_t>(static_cast<double>(aggregate) / oversub_factor) / kPage * kPage;
  config.warmup_us = MsToUs(250.0);
  config.duration_us = SecToUs(2.0);
  return config;
}

TEST(TimeQuantumIntegrationTest, StaysSharedWhenCollocationFits) {
  const auto result = harness::RunExperiment(TqConfig(1.0));
  EXPECT_EQ(result.tq_exclusive_entries, 0u);
  EXPECT_EQ(result.tq_quanta, 0u);
  EXPECT_EQ(result.paging.faults, 0u);
  EXPECT_GT(result.TotalThroughput(), 0.0);
}

TEST(TimeQuantumIntegrationTest, SustainedThrashEntersExclusiveMode) {
  const auto result = harness::RunExperiment(TqConfig(2.0));
  EXPECT_GT(result.paging.faults, 0u);
  EXPECT_GE(result.tq_exclusive_entries, 1u);
  EXPECT_GE(result.tq_quanta, 1u);
  EXPECT_GT(result.tq_exclusive_us, 0.0);
  // One-way door while oversubscribed: entered once, never re-entered.
  EXPECT_EQ(result.tq_exclusive_entries, 1u);
}

TEST(TimeQuantumIntegrationTest, QuantaRotateAcrossClients) {
  harness::ExperimentConfig config = TqConfig(2.0);
  config.duration_us = SecToUs(4.0);
  const auto result = harness::RunExperiment(config);
  ASSERT_GE(result.tq_exclusive_entries, 1u);
  // The quantum sized from measured swap cost is far shorter than the run:
  // the GPU must have rotated, and every tenant keeps completing requests
  // inside the measurement window (no starvation under exclusive quanta).
  EXPECT_GE(result.tq_quanta, 2u);
  for (const auto& client : result.clients) {
    EXPECT_GT(client.completed, 0u);
  }
}

TEST(TimeQuantumIntegrationTest, IdleClientReleasesQuantumEarly) {
  // One tenant arrives sparsely; without idle early-release its quanta would
  // strand the GPU between arrivals. Small working sets on a 20-page device
  // keep every measured swap cost low, so every quantum is sized at the
  // kMinQuantumUs floor while the closed-loop tenant thrashes on its own.
  harness::ExperimentConfig config = TqConfig(2.0);
  config.duration_us = SecToUs(3.0);
  config.device.memory_bytes = 20 * kPage;
  config.clients[0].arrivals = harness::ClientConfig::Arrivals::kPoisson;
  config.clients[0].rps = 5.0;
  config.clients[0].paging_ws_fraction = 0.01;
  config.clients[1].workload = workloads::MakeWorkload(workloads::ModelId::kMobileNetV2,
                                                       workloads::TaskType::kInference, 1);
  config.clients[1].paging_ws_fraction = 0.1;
  const auto result = harness::RunExperiment(config);
  ASSERT_EQ(result.tq_exclusive_entries, 1u);
  EXPECT_GT(result.clients[1].completed_total, 0u);
  // Without early release every quantum but the last (cut off by the end of
  // the run) would last at least kMinQuantumUs, so (quanta - 1) x minimum
  // could not exceed the exclusive time. It does: some quanta ended early.
  ASSERT_GE(result.tq_quanta, 2u);
  EXPECT_GT(static_cast<double>(result.tq_quanta - 1) * memsub::kMinQuantumUs,
            result.tq_exclusive_us);
}

}  // namespace
}  // namespace orion
