// Property-based tests for the device execution model: invariants that must
// hold for ANY kernel soup, checked over randomized parameterized sweeps.
//
// Invariants:
//   P1  Completion: every submitted op eventually completes exactly once.
//   P2  Stream order: completions on one stream follow submission order.
//   P3  No over-allocation: granted SMs never exceed the device total.
//   P4  Work conservation: total wall time is bounded below by every
//       resource's aggregate demand and above by fully-serial execution
//       (plus the bounded interference penalty).
//   P5  No slowdown below floor: no kernel finishes earlier than its
//       run-alone duration.
//   P6  Determinism: identical inputs give identical schedules.
//   P7  Events: a CUDA event never reports done before every prior op on
//       its stream completed.
//   P8  Oracle: the rate cache and the clean-state Reschedule path agree
//       bitwise with a from-scratch recompute, and switching the debug
//       oracle on changes no record and no completion time.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/gpusim/device.h"
#include "src/sim/simulator.h"

namespace orion {
namespace gpusim {
namespace {

struct SoupOp {
  int stream = 0;
  KernelDesc kernel;
};

// Generates a random but reproducible kernel soup across `num_streams`.
std::vector<SoupOp> MakeSoup(std::uint64_t seed, int num_streams, int num_kernels) {
  Rng rng(seed);
  std::vector<SoupOp> soup;
  for (int i = 0; i < num_kernels; ++i) {
    SoupOp op;
    op.stream = static_cast<int>(rng.UniformInt(0, num_streams - 1));
    KernelDesc& kernel = op.kernel;
    kernel.kernel_id = static_cast<std::uint64_t>(i);
    std::string name = "k";
    name += std::to_string(i);
    kernel.name = name;
    kernel.duration_us = rng.UniformDouble(5.0, 800.0);
    kernel.compute_util = rng.UniformDouble(0.02, 0.95);
    kernel.membw_util = rng.UniformDouble(0.02, 0.95);
    kernel.geometry.num_blocks = static_cast<int>(rng.UniformInt(1, 4000));
    kernel.geometry.threads_per_block = 1 << rng.UniformInt(5, 10);  // 32..1024
    kernel.geometry.registers_per_thread = static_cast<int>(rng.UniformInt(16, 128));
    kernel.geometry.shared_mem_per_block =
        static_cast<int>(rng.UniformInt(0, 48)) * 1024;
    kernel.sm_needed = SmsNeeded(DeviceSpec::V100_16GB(), kernel.geometry);
    soup.push_back(op);
  }
  return soup;
}

struct Completion {
  std::uint64_t kernel_id;
  int stream;
  TimeUs start;
  TimeUs end;
};

std::vector<Completion> RunSoup(const std::vector<SoupOp>& soup, int num_streams,
                                int* max_busy_sms) {
  Simulator sim;
  Device device(&sim, DeviceSpec::V100_16GB());
  std::vector<StreamId> streams;
  for (int s = 0; s < num_streams; ++s) {
    streams.push_back(device.CreateStream(s % 2));  // mix of priorities
  }
  std::vector<Completion> completions;
  device.set_kernel_trace_sink([&](const KernelExecRecord& rec) {
    completions.push_back(Completion{rec.kernel_id, rec.stream, rec.start, rec.end});
  });
  int max_busy = 0;
  for (const SoupOp& op : soup) {
    device.LaunchKernel(streams[static_cast<std::size_t>(op.stream)], op.kernel);
  }
  // Sample the busy-SM invariant as the simulation advances.
  while (!sim.Idle()) {
    sim.RunUntil(sim.now() + 50.0);
    max_busy = std::max(max_busy, device.BusySms());
    EXPECT_LE(device.BusySms(), DeviceSpec::V100_16GB().num_sms) << "P3 violated";
  }
  if (max_busy_sms != nullptr) {
    *max_busy_sms = max_busy;
  }
  return completions;
}

class DeviceSoupTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeviceSoupTest, InvariantsHoldForRandomSoups) {
  const std::uint64_t seed = GetParam();
  constexpr int kStreams = 5;
  constexpr int kKernels = 60;
  const auto soup = MakeSoup(seed, kStreams, kKernels);
  int max_busy = 0;
  const auto completions = RunSoup(soup, kStreams, &max_busy);

  // P1: every kernel completed exactly once.
  ASSERT_EQ(completions.size(), soup.size());
  std::map<std::uint64_t, int> counts;
  for (const Completion& c : completions) {
    counts[c.kernel_id] += 1;
  }
  for (const auto& [id, count] : counts) {
    EXPECT_EQ(count, 1) << "kernel " << id;
  }

  // P2: per-stream completion order equals submission order.
  std::map<int, std::vector<std::uint64_t>> by_stream_completed;
  for (const Completion& c : completions) {
    by_stream_completed[c.stream].push_back(c.kernel_id);
  }
  std::map<int, std::vector<std::uint64_t>> by_stream_submitted;
  for (const SoupOp& op : soup) {
    by_stream_submitted[op.stream].push_back(op.kernel.kernel_id);
  }
  for (const auto& [stream, submitted] : by_stream_submitted) {
    EXPECT_EQ(by_stream_completed[stream], submitted) << "stream " << stream;
  }

  // P4 + P5: per-kernel wall time >= alone time; total makespan bounded.
  double serial_total = 0.0;
  TimeUs makespan = 0.0;
  for (std::size_t i = 0; i < soup.size(); ++i) {
    const Completion& c = completions[i];
    double alone = 0.0;
    for (const SoupOp& op : soup) {
      if (op.kernel.kernel_id == c.kernel_id) {
        alone = op.kernel.duration_us;
      }
    }
    EXPECT_GE(c.end - c.start + 1e-6, alone) << "P5 violated for kernel " << c.kernel_id;
    serial_total += alone;
    makespan = std::max(makespan, c.end);
  }
  // Fully-serial execution is the upper bound (interference can never be
  // worse than zero overlap, modulo the bounded co-residency penalty).
  EXPECT_LE(makespan, serial_total * 1.25) << "P4 upper bound";
  // Lower bound: aggregate compute demand must fit in the makespan.
  double compute_demand_us = 0.0;
  for (const SoupOp& op : soup) {
    compute_demand_us += op.kernel.duration_us * op.kernel.compute_util;
  }
  EXPECT_GE(makespan * 1.0000001, compute_demand_us) << "P4 lower bound";
}

TEST_P(DeviceSoupTest, DeterministicSchedules) {
  const std::uint64_t seed = GetParam();
  const auto soup = MakeSoup(seed, 4, 40);
  const auto a = RunSoup(soup, 4, nullptr);
  const auto b = RunSoup(soup, 4, nullptr);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kernel_id, b[i].kernel_id);
    EXPECT_DOUBLE_EQ(a[i].start, b[i].start);
    EXPECT_DOUBLE_EQ(a[i].end, b[i].end);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeviceSoupTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233));

class EventOrderTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventOrderTest, EventNeverFiresBeforePriorOps) {
  // P7: interleave kernels and events on one stream; each event must carry a
  // completion timestamp >= the end of every kernel before it.
  Rng rng(GetParam());
  Simulator sim;
  Device device(&sim, DeviceSpec::V100_16GB());
  const StreamId stream = device.CreateStream();
  // A competing stream adds contention so timings are nontrivial.
  const StreamId other = device.CreateStream();
  std::vector<TimeUs> kernel_ends;
  device.set_kernel_trace_sink([&](const KernelExecRecord& rec) {
    if (rec.stream == stream) {
      kernel_ends.push_back(rec.end);
    }
  });
  std::vector<std::unique_ptr<GpuEvent>> events;
  std::vector<std::size_t> kernels_before_event;
  std::size_t kernels_submitted = 0;
  for (int i = 0; i < 30; ++i) {
    if (rng.NextDouble() < 0.3) {
      events.push_back(std::make_unique<GpuEvent>());
      kernels_before_event.push_back(kernels_submitted);
      device.RecordEvent(stream, events.back().get());
    } else {
      KernelDesc kernel;
      std::string name = "k";
      name += std::to_string(i);
      kernel.name = name;
      kernel.duration_us = rng.UniformDouble(10.0, 200.0);
      kernel.compute_util = rng.UniformDouble(0.1, 0.9);
      kernel.membw_util = rng.UniformDouble(0.1, 0.9);
      kernel.geometry = {static_cast<int>(rng.UniformInt(1, 200)), 256, 64, 0};
      kernel.sm_needed = SmsNeeded(device.spec(), kernel.geometry);
      device.LaunchKernel(stream, kernel);
      ++kernels_submitted;
    }
    if (rng.NextDouble() < 0.5) {
      KernelDesc noise;
      noise.name = "noise";
      noise.duration_us = rng.UniformDouble(50.0, 500.0);
      noise.compute_util = 0.6;
      noise.membw_util = 0.4;
      noise.geometry = {80, 1024, 64, 0};
      noise.sm_needed = SmsNeeded(device.spec(), noise.geometry);
      device.LaunchKernel(other, noise);
    }
  }
  sim.RunUntilIdle();
  for (std::size_t e = 0; e < events.size(); ++e) {
    EXPECT_TRUE(events[e]->done);
    for (std::size_t k = 0; k < kernels_before_event[e]; ++k) {
      EXPECT_GE(events[e]->completed_at + 1e-9, kernel_ends[k])
          << "event " << e << " fired before kernel " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventOrderTest, ::testing::Values(7, 11, 19, 42, 97));

// P8 scenario: kernels and copies arriving over time on streams of three
// priorities, with SM degradation, memory-bandwidth scaling and progress
// probes mid-run. Everything random is drawn before the run, so both arms
// see the same inputs whatever the device does.
struct OracleRun {
  std::vector<KernelExecRecord> records;
  std::vector<TimeUs> done_at;  // per submitted op
  std::size_t oracle_checks = 0;
};

OracleRun RunOracleScenario(std::uint64_t seed, bool oracle) {
  constexpr int kStreams = 4;
  constexpr int kOps = 150;
  constexpr TimeUs kSpan = 4000.0;
  const auto soup = MakeSoup(seed, kStreams, kOps);
  Rng rng(seed ^ 0x5eedULL);
  Simulator sim;
  Device device(&sim, DeviceSpec::V100_16GB());
  device.set_debug_oracle(oracle);
  device.set_pcie_priority_scheduling(seed % 2 == 0);
  std::vector<StreamId> streams;
  for (int s = 0; s < kStreams; ++s) {
    streams.push_back(device.CreateStream(s % 3));
  }
  OracleRun run;
  run.done_at.assign(soup.size(), -1.0);
  device.set_kernel_trace_sink(
      [&](const KernelExecRecord& rec) { run.records.push_back(rec); });
  for (std::size_t i = 0; i < soup.size(); ++i) {
    const TimeUs at = rng.UniformDouble(0.0, kSpan);
    const bool copy = rng.NextDouble() < 0.2;
    const auto bytes = static_cast<std::size_t>(rng.UniformDouble(1e5, 4e6));
    const MemcpyKind kind = rng.NextDouble() < 0.5 ? MemcpyKind::kHostToDevice
                                                    : MemcpyKind::kDeviceToHost;
    sim.ScheduleAt(at, [&, i, copy, bytes, kind]() {
      const StreamId stream = streams[static_cast<std::size_t>(soup[i].stream)];
      auto done = [&run, &sim, i]() { run.done_at[i] = sim.now(); };
      if (copy) {
        device.EnqueueMemcpy(stream, bytes, kind, done);
      } else {
        device.LaunchKernel(stream, soup[i].kernel, done);
      }
    });
  }
  for (int f = 0; f < 2; ++f) {
    const auto sms_lost = static_cast<int>(rng.UniformInt(2, 16));
    sim.ScheduleAt(rng.UniformDouble(0.0, kSpan), [&, sms_lost]() { device.DegradeSms(sms_lost); });
    const double factor = rng.UniformDouble(0.5, 1.5);
    sim.ScheduleAt(rng.UniformDouble(0.0, kSpan), [&, factor]() { device.ScaleMembw(factor); });
  }
  for (int p = 0; p < 20; ++p) {
    const StreamId stream = streams[static_cast<std::size_t>(p % kStreams)];
    sim.ScheduleAt(rng.UniformDouble(0.0, kSpan),
                   [&, stream]() { device.StreamExecutedUs(stream); });
  }
  sim.RunUntilIdle();
  run.oracle_checks = device.debug_oracle_checks();
  return run;
}

class DeviceOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeviceOracleTest, CacheAndCleanPathMatchFullRecompute) {
  const std::uint64_t seed = GetParam();
  // With the oracle on, any stale rate, stale target or skipped retirement,
  // grant or rebalance aborts the run.
  const OracleRun checked = RunOracleScenario(seed, /*oracle=*/true);
  const OracleRun plain = RunOracleScenario(seed, /*oracle=*/false);
  EXPECT_GT(checked.oracle_checks, 0u) << "the clean path never ran";
  EXPECT_EQ(plain.oracle_checks, 0u);
  ASSERT_EQ(checked.records.size(), plain.records.size());
  for (std::size_t i = 0; i < plain.records.size(); ++i) {
    const KernelExecRecord& a = checked.records[i];
    const KernelExecRecord& b = plain.records[i];
    EXPECT_EQ(a.kernel_id, b.kernel_id);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.stream, b.stream);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.start), std::bit_cast<std::uint64_t>(b.start));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.end), std::bit_cast<std::uint64_t>(b.end));
    EXPECT_EQ(a.sm_needed, b.sm_needed);
  }
  for (std::size_t i = 0; i < plain.done_at.size(); ++i) {
    EXPECT_GE(plain.done_at[i], 0.0) << "op " << i << " never completed";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(checked.done_at[i]),
              std::bit_cast<std::uint64_t>(plain.done_at[i]))
        << "op " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeviceOracleTest,
                         ::testing::Values(1, 2, 3, 4, 7, 11, 42, 97));

}  // namespace
}  // namespace gpusim
}  // namespace orion
