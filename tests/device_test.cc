// Device execution model tests: stream ordering, SM dispatch, the
// interference model (validated against the paper's Table 2 toy experiment),
// priorities, events, copies, and device synchronisation.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/gpusim/device.h"
#include "src/sim/simulator.h"
#include "tests/test_util.h"

namespace orion {
namespace gpusim {
namespace {

using testutil::MakeKernel;

class DeviceTest : public ::testing::Test {
 protected:
  Simulator sim_;
  DeviceSpec spec_ = DeviceSpec::V100_16GB();
};

TEST_F(DeviceTest, SingleKernelRunsForItsDuration) {
  Device device(&sim_, spec_);
  const StreamId stream = device.CreateStream();
  TimeUs done_at = -1.0;
  device.LaunchKernel(stream, MakeKernel("k", 100.0, 0.5, 0.2, 40),
                      [&]() { done_at = sim_.now(); });
  sim_.RunUntilIdle();
  EXPECT_DOUBLE_EQ(done_at, 100.0);
  EXPECT_EQ(device.kernels_completed(), 1u);
  EXPECT_EQ(device.FreeSms(), spec_.num_sms);
}

TEST_F(DeviceTest, QueuedLaunchesLeaveTheRunningKernelsCompletionUntouched) {
  // A launch behind a busy stream head changes no rate or grant, so the
  // running kernel keeps the completion time computed when it started.
  // Re-timing it at 41.9 us would land at 41.9 + (123.456 - 41.9), one ulp
  // past 123.456.
  Device device(&sim_, spec_);
  const StreamId stream = device.CreateStream();
  TimeUs done_at = -1.0;
  device.LaunchKernel(stream, MakeKernel("k", 123.456, 0.5, 0.2, 40),
                      [&]() { done_at = sim_.now(); });
  for (const TimeUs at : {41.9, 77.7, 100.0}) {
    sim_.ScheduleAt(at, [&device, stream]() {
      device.LaunchKernel(stream, MakeKernel("queued", 10.0, 0.5, 0.2, 40));
    });
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(done_at), std::bit_cast<std::uint64_t>(123.456));
  EXPECT_EQ(device.kernels_completed(), 4u);
}

TEST_F(DeviceTest, LoneKernelOnDegradedBandwidthRunsForItsDuration) {
  // The co-residency penalty charges only other kernels' traffic: a kernel
  // alone on a device with 70% of its bandwidth left, whose traffic still
  // fits, runs exactly its duration.
  Device device(&sim_, spec_);
  device.ScaleMembw(0.7);
  const StreamId stream = device.CreateStream();
  TimeUs done_at = -1.0;
  device.LaunchKernel(stream, MakeKernel("k", 100.0, 0.3, 0.5, 40),
                      [&]() { done_at = sim_.now(); });
  sim_.RunUntilIdle();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(done_at), std::bit_cast<std::uint64_t>(100.0));
}

TEST_F(DeviceTest, SameStreamKernelsRunSequentially) {
  Device device(&sim_, spec_);
  const StreamId stream = device.CreateStream();
  std::vector<TimeUs> completions;
  for (int i = 0; i < 3; ++i) {
    std::string name = "k";
    name += std::to_string(i);
    device.LaunchKernel(stream, MakeKernel(name, 50.0, 0.3, 0.1, 10),
                        [&]() { completions.push_back(sim_.now()); });
  }
  sim_.RunUntilIdle();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_DOUBLE_EQ(completions[0], 50.0);
  EXPECT_DOUBLE_EQ(completions[1], 100.0);
  EXPECT_DOUBLE_EQ(completions[2], 150.0);
}

TEST_F(DeviceTest, IndependentSmallKernelsOverlapAcrossStreams) {
  Device device(&sim_, spec_);
  const StreamId s1 = device.CreateStream();
  const StreamId s2 = device.CreateStream();
  TimeUs done1 = 0.0;
  TimeUs done2 = 0.0;
  // Low utilization, few SMs: no contention, so both finish at ~100.
  device.LaunchKernel(s1, MakeKernel("a", 100.0, 0.2, 0.1, 20), [&]() { done1 = sim_.now(); });
  device.LaunchKernel(s2, MakeKernel("b", 100.0, 0.2, 0.1, 20), [&]() { done2 = sim_.now(); });
  sim_.RunUntilIdle();
  // Near-perfect overlap; the small residual is the co-residency memory
  // interference penalty.
  EXPECT_NEAR(done1, 100.0, 5.0);
  EXPECT_NEAR(done2, 100.0, 5.0);
}

// --- Table 2 toy experiment shapes. ---------------------------------------

TEST_F(DeviceTest, ComputeComputeCollocationSerialisesOnSms) {
  // Two Conv2d-like kernels each need all 80 SMs: the second waits.
  Device device(&sim_, spec_);
  const StreamId s1 = device.CreateStream();
  const StreamId s2 = device.CreateStream();
  TimeUs last = 0.0;
  device.LaunchKernel(s1, MakeKernel("conv1", 1350.0, 0.89, 0.2, 80),
                      [&]() { last = std::max(last, sim_.now()); });
  device.LaunchKernel(s2, MakeKernel("conv2", 1350.0, 0.89, 0.2, 80),
                      [&]() { last = std::max(last, sim_.now()); });
  sim_.RunUntilIdle();
  // Sequential would take 2700; anything above ~2400 means "no real benefit"
  // (the paper measures 0.98x, i.e. collocation is slightly harmful).
  EXPECT_GE(last, 2400.0);
}

TEST_F(DeviceTest, MemoryMemoryCollocationContendsOnBandwidth) {
  // Two BN2d-like kernels (40% SMs, 80% bandwidth each) oversubscribe DRAM.
  Device device(&sim_, spec_);
  const StreamId s1 = device.CreateStream();
  const StreamId s2 = device.CreateStream();
  TimeUs last = 0.0;
  device.LaunchKernel(s1, MakeKernel("bn1", 930.0, 0.14, 0.8, 32),
                      [&]() { last = std::max(last, sim_.now()); });
  device.LaunchKernel(s2, MakeKernel("bn2", 930.0, 0.14, 0.8, 32),
                      [&]() { last = std::max(last, sim_.now()); });
  sim_.RunUntilIdle();
  // Perfect overlap would take 930; bandwidth contention (1.6x demand)
  // stretches both. Sequential would be 1860.
  EXPECT_GT(last, 1300.0);
  EXPECT_LT(last, 1860.0);
}

TEST_F(DeviceTest, OppositeProfileCollocationOverlapsWell) {
  // Conv2d (compute-bound) + BN2d (memory-bound): aggregate demand on each
  // resource stays ~1, so both run near full speed (Table 2's 1.41x case).
  Device device(&sim_, spec_);
  const StreamId s1 = device.CreateStream();
  const StreamId s2 = device.CreateStream();
  TimeUs last = 0.0;
  device.LaunchKernel(s1, MakeKernel("conv", 1350.0, 0.89, 0.2, 48),
                      [&]() { last = std::max(last, sim_.now()); });
  device.LaunchKernel(s2, MakeKernel("bn", 930.0, 0.14, 0.8, 32),
                      [&]() { last = std::max(last, sim_.now()); });
  sim_.RunUntilIdle();
  const double sequential = 1350.0 + 930.0;
  EXPECT_LT(last, sequential / 1.3);  // at least 1.3x speedup
}

// ---------------------------------------------------------------------------

TEST_F(DeviceTest, PriorityStreamGetsFreedSmsFirst) {
  Device device(&sim_, spec_);
  const StreamId low = device.CreateStream(kPriorityDefault);
  const StreamId high = device.CreateStream(kPriorityHigh);
  // Fill the device with a long low-priority kernel.
  device.LaunchKernel(low, MakeKernel("big", 1000.0, 0.9, 0.1, 80));
  TimeUs high_done = 0.0;
  TimeUs low2_done = 0.0;
  // Submit a low-priority and then a high-priority kernel, both pending.
  device.LaunchKernel(low, MakeKernel("low2", 100.0, 0.5, 0.1, 80),
                      [&]() { low2_done = sim_.now(); });
  device.LaunchKernel(high, MakeKernel("hp", 100.0, 0.5, 0.1, 80),
                      [&]() { high_done = sim_.now(); });
  sim_.RunUntilIdle();
  // The high-priority kernel must start when `big` finishes and complete
  // before the earlier-submitted low-priority one.
  EXPECT_LT(high_done, low2_done);
}

TEST_F(DeviceTest, HighPriorityTakesOverAtBlockGranularity) {
  // Running blocks are never preempted, but a full-device low-priority
  // kernel yields SMs to an arriving high-priority kernel within one
  // block-turnover quantum (its waves retire and hp blocks dispatch first).
  Device device(&sim_, spec_);
  const StreamId low = device.CreateStream(kPriorityDefault);
  const StreamId high = device.CreateStream(kPriorityHigh);
  TimeUs low_done = 0.0;
  device.LaunchKernel(low, MakeKernel("low", 500.0, 0.9, 0.1, 80),
                      [&]() { low_done = sim_.now(); });
  TimeUs high_done = 0.0;
  sim_.ScheduleAt(100.0, [&]() {
    device.LaunchKernel(high, MakeKernel("hp", 50.0, 0.5, 0.1, 80),
                        [&]() { high_done = sim_.now(); });
  });
  sim_.RunUntilIdle();
  // The low-priority kernel's long blocks drain gradually, so hp pays a real
  // non-preemption delay (much more than its 50us of work) but still
  // finishes well before the low kernel would have released the device.
  EXPECT_GT(high_done, 150.0);
  EXPECT_LT(high_done, 500.0);
  // The low-priority kernel lost part of its SMs while hp ran.
  EXPECT_GT(low_done, 505.0);
  EXPECT_LT(low_done, 800.0);
  EXPECT_LT(high_done, low_done);
}

TEST_F(DeviceTest, PartialGrantScalesProgress) {
  Device device(&sim_, spec_);
  const StreamId s1 = device.CreateStream();
  const StreamId s2 = device.CreateStream();
  // Aggregate demand 120 SMs on an 80-SM device: same-priority kernels share
  // proportionally (40:80 -> 26.7:53.3), both progressing at ~2/3 rate, so
  // each needs ~1500us of wall time for 1000us of work.
  TimeUs done1 = 0.0;
  TimeUs done2 = 0.0;
  device.LaunchKernel(s1, MakeKernel("half", 1000.0, 0.3, 0.1, 40),
                      [&]() { done1 = sim_.now(); });
  device.LaunchKernel(s2, MakeKernel("big", 1000.0, 0.3, 0.1, 80),
                      [&]() { done2 = sim_.now(); });
  sim_.RunUntilIdle();
  EXPECT_GT(done1, 1050.0);
  EXPECT_LT(done1, 1500.0);
  EXPECT_GT(done2, 1050.0);
  EXPECT_LT(done2, 1500.0);
}

TEST_F(DeviceTest, EventsCompleteInStreamOrder) {
  Device device(&sim_, spec_);
  const StreamId stream = device.CreateStream();
  GpuEvent before;
  GpuEvent after;
  device.RecordEvent(stream, &before);
  device.LaunchKernel(stream, MakeKernel("k", 200.0, 0.5, 0.1, 10));
  device.RecordEvent(stream, &after);
  sim_.RunUntil(100.0);
  EXPECT_TRUE(before.done);
  EXPECT_FALSE(after.done);  // cudaEventQuery-style non-blocking check
  sim_.RunUntilIdle();
  EXPECT_TRUE(after.done);
  EXPECT_DOUBLE_EQ(after.completed_at, 200.0);
}

TEST_F(DeviceTest, MemcpyTakesPcieTime) {
  Device device(&sim_, spec_);
  const StreamId stream = device.CreateStream();
  TimeUs done = 0.0;
  const std::size_t bytes = 12 * 1000 * 1000;  // 12 MB at 12 GB/s = 1000 us
  device.EnqueueMemcpy(stream, bytes, MemcpyKind::kHostToDevice, [&]() { done = sim_.now(); });
  sim_.RunUntilIdle();
  EXPECT_NEAR(done, spec_.pcie_latency_us + 1000.0, 1e-6);
  EXPECT_EQ(device.memcpys_completed(), 1u);
}

TEST_F(DeviceTest, MemcpyBlocksLaterKernelOnSameStream) {
  Device device(&sim_, spec_);
  const StreamId stream = device.CreateStream();
  TimeUs kernel_done = 0.0;
  device.EnqueueMemcpy(stream, 12 * 1000 * 1000, MemcpyKind::kHostToDevice);
  device.LaunchKernel(stream, MakeKernel("k", 100.0, 0.5, 0.1, 10),
                      [&]() { kernel_done = sim_.now(); });
  sim_.RunUntilIdle();
  EXPECT_NEAR(kernel_done, spec_.pcie_latency_us + 1000.0 + 100.0, 1e-6);
}

TEST_F(DeviceTest, CopiesSerialiseOnTheCopyEngine) {
  Device device(&sim_, spec_);
  const StreamId s1 = device.CreateStream();
  const StreamId s2 = device.CreateStream();
  TimeUs done2 = 0.0;
  device.EnqueueMemcpy(s1, 12 * 1000 * 1000, MemcpyKind::kHostToDevice);
  device.EnqueueMemcpy(s2, 12 * 1000 * 1000, MemcpyKind::kDeviceToHost,
                       [&]() { done2 = sim_.now(); });
  sim_.RunUntilIdle();
  EXPECT_NEAR(done2, 2 * (spec_.pcie_latency_us + 1000.0), 1e-6);
}

TEST_F(DeviceTest, KernelsOverlapWithCopiesOnOtherStreams) {
  Device device(&sim_, spec_);
  const StreamId s1 = device.CreateStream();
  const StreamId s2 = device.CreateStream();
  TimeUs kernel_done = 0.0;
  device.EnqueueMemcpy(s1, 120 * 1000 * 1000, MemcpyKind::kHostToDevice);  // ~10ms
  device.LaunchKernel(s2, MakeKernel("k", 100.0, 0.5, 0.1, 10),
                      [&]() { kernel_done = sim_.now(); });
  sim_.RunUntilIdle();
  EXPECT_NEAR(kernel_done, 100.0, 1e-6);  // not delayed by the copy
}

TEST_F(DeviceTest, SynchronizeDeviceWaitsForAllStreams) {
  Device device(&sim_, spec_);
  const StreamId s1 = device.CreateStream();
  const StreamId s2 = device.CreateStream();
  device.LaunchKernel(s1, MakeKernel("a", 100.0, 0.3, 0.1, 10));
  device.LaunchKernel(s2, MakeKernel("b", 300.0, 0.3, 0.1, 10));
  TimeUs synced = -1.0;
  device.SynchronizeDevice([&]() { synced = sim_.now(); });
  sim_.RunUntilIdle();
  // ~300us plus the brief interference while kernel `a` was co-resident.
  EXPECT_NEAR(synced, 300.0, 6.0);
}

TEST_F(DeviceTest, SynchronizeIdleDeviceFiresImmediately) {
  Device device(&sim_, spec_);
  device.CreateStream();
  TimeUs synced = -1.0;
  device.SynchronizeDevice([&]() { synced = sim_.now(); });
  sim_.RunUntilIdle();
  EXPECT_DOUBLE_EQ(synced, 0.0);
}

TEST_F(DeviceTest, MemsetCompletes) {
  Device device(&sim_, spec_);
  const StreamId stream = device.CreateStream();
  TimeUs done = -1.0;
  device.EnqueueMemset(stream, 9 * 1000 * 1000, [&]() { done = sim_.now(); });
  sim_.RunUntilIdle();
  EXPECT_GT(done, 0.0);
  EXPECT_LT(done, 100.0);  // ~10us at 900 GB/s + overhead
}

TEST_F(DeviceTest, UtilizationAveragesReflectLoad) {
  Device device(&sim_, spec_);
  const StreamId stream = device.CreateStream();
  device.LaunchKernel(stream, MakeKernel("k", 100.0, 0.8, 0.4, 40));
  sim_.RunUntilIdle();
  sim_.ScheduleAt(200.0, []() {});  // extend the timeline with idle time
  sim_.RunUntilIdle();
  device.SynchronizeDevice([]() {});
  sim_.RunUntilIdle();
  const UtilizationSample avg = device.utilization().Average(100.0);
  EXPECT_NEAR(avg.compute, 0.8, 1e-6);
  EXPECT_NEAR(avg.membw, 0.4, 1e-6);
  // Effective demand: 40 SMs scaled by occupancy pressure
  // (0.25 + 0.65 * 0.8/1.2), i.e. ~27 of 80 SMs busy.
  EXPECT_NEAR(avg.sm_busy, 27.0 / 80.0, 0.02);
}

TEST_F(DeviceTest, TraceSinkReceivesExecRecords) {
  Device device(&sim_, spec_);
  const StreamId stream = device.CreateStream();
  std::vector<KernelExecRecord> records;
  device.set_kernel_trace_sink([&](const KernelExecRecord& rec) { records.push_back(rec); });
  device.LaunchKernel(stream, MakeKernel("traced", 50.0, 0.5, 0.1, 10));
  sim_.RunUntilIdle();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "traced");
  EXPECT_DOUBLE_EQ(records[0].start, 0.0);
  EXPECT_DOUBLE_EQ(records[0].end, 50.0);
}

TEST_F(DeviceTest, StreamBusySmsAndIdleQueries) {
  Device device(&sim_, spec_);
  const StreamId stream = device.CreateStream();
  EXPECT_TRUE(device.StreamIdle(stream));
  device.LaunchKernel(stream, MakeKernel("k", 100.0, 0.5, 0.1, 25));
  sim_.RunUntil(50.0);
  EXPECT_FALSE(device.StreamIdle(stream));
  // Occupancy-scaled demand: 25 SMs * (0.25 + 0.65 * 0.5/0.6) = ~20.
  EXPECT_EQ(device.StreamBusySms(stream), 20);
  EXPECT_EQ(device.FreeSms(), spec_.num_sms - 20);
  EXPECT_TRUE(device.AnyKernelRunning());
  sim_.RunUntilIdle();
  EXPECT_TRUE(device.StreamIdle(stream));
  EXPECT_FALSE(device.AnyKernelRunning());
}

TEST_F(DeviceTest, ZeroDurationKernelCompletesImmediately) {
  Device device(&sim_, spec_);
  const StreamId stream = device.CreateStream();
  TimeUs done = -1.0;
  device.LaunchKernel(stream, MakeKernel("empty", 0.0, 0.0, 0.0, 1),
                      [&]() { done = sim_.now(); });
  sim_.RunUntilIdle();
  EXPECT_DOUBLE_EQ(done, 0.0);
}

TEST_F(DeviceTest, ManyKernelsConserveWork) {
  // Work conservation: N identical compute-saturating kernels across many
  // streams take ~N times the single-kernel duration in total.
  Device device(&sim_, spec_);
  constexpr int kN = 16;
  int completed = 0;
  for (int i = 0; i < kN; ++i) {
    const StreamId stream = device.CreateStream();
    std::string name = "k";
    name += std::to_string(i);
    device.LaunchKernel(stream, MakeKernel(name, 100.0, 1.0, 0.2, 80),
                        [&]() { ++completed; });
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(completed, kN);
  // Work is conserved up to the co-residency interference penalty (<= ~5%).
  EXPECT_GE(sim_.now(), kN * 100.0);
  EXPECT_LE(sim_.now(), kN * 100.0 * 1.08);
}

// A descriptor carries the occupancy of the device it was built for. V100
// and A100 differ in shared memory per SM (96 vs 164 KiB), so a geometry
// with 64 KiB of shared memory per block fits one block per SM on a V100
// and two on an A100; the oracle rejects the A100 stamp on a V100.
using DeviceDeathTest = DeviceTest;

TEST_F(DeviceDeathTest, OracleRejectsKernelStampedForAnotherDevice) {
  KernelDesc kernel = MakeKernel("smem-heavy", 100.0, 0.5, 0.5, 1);
  kernel.geometry = {160, 256, 32, 64 * 1024};
  kernel.sm_needed = SmsNeeded(DeviceSpec::A100_40GB(), kernel.geometry);
  ASSERT_EQ(kernel.sm_needed, 80);
  ASSERT_EQ(SmsNeeded(spec_, kernel.geometry), 160);
  EXPECT_DEATH(
      {
        Device device(&sim_, spec_);
        device.set_debug_oracle(true);
        device.LaunchKernel(device.CreateStream(), kernel);
      },
      "carries sm_needed 80 but needs 160 SMs");

  kernel.sm_needed = SmsNeeded(spec_, kernel.geometry);  // stamped for this device
  Device device(&sim_, spec_);
  device.set_debug_oracle(true);
  bool done = false;
  device.LaunchKernel(device.CreateStream(), kernel, [&]() { done = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace gpusim
}  // namespace orion
