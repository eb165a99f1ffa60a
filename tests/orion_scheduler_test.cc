// Orion scheduler policy tests (Listing 1 of the paper), exercised against
// the simulated device with hand-built kernels and profiles.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "src/core/op_view.h"
#include "src/core/orion_scheduler.h"
#include "src/runtime/gpu_runtime.h"
#include "src/sim/simulator.h"
#include "tests/test_util.h"

namespace orion {
namespace core {
namespace {

using gpusim::KernelExecRecord;
using testutil::MakeKernel;

// Profile entry derived from a kernel descriptor.
profiler::KernelProfile ToProfileEntry(const gpusim::DeviceSpec& spec,
                                       const gpusim::KernelDesc& kernel) {
  profiler::KernelProfile kp;
  kp.kernel_id = kernel.kernel_id;
  kp.name = kernel.name.str();
  kp.duration_us = kernel.duration_us;
  kp.compute_util = kernel.compute_util;
  kp.membw_util = kernel.membw_util;
  kp.profile = gpusim::ClassifyKernel(kernel);
  kp.sm_needed = gpusim::SmsNeeded(spec, kernel.geometry);
  return kp;
}

class OrionSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rt_ = std::make_unique<runtime::GpuRuntime>(&sim_, spec_);
    rt_->device().set_kernel_trace_sink(
        [this](const KernelExecRecord& rec) { trace_.push_back(rec); });
  }

  // Builds a scheduler with one hp client (id 0) and `num_be` be clients
  // (ids 1..). The hp profile is seeded with `hp_kernels`.
  void Attach(OrionOptions options, const std::vector<gpusim::KernelDesc>& hp_kernels,
              const std::vector<gpusim::KernelDesc>& be_kernels, int num_be = 1,
              DurationUs hp_latency = 10000.0) {
    hp_profile_ = std::make_unique<profiler::WorkloadProfile>();
    hp_profile_->request_latency_us = hp_latency;
    for (const auto& kernel : hp_kernels) {
      hp_profile_->kernels.push_back(ToProfileEntry(spec_, kernel));
    }
    hp_profile_->RebuildIndex();
    be_profile_ = std::make_unique<profiler::WorkloadProfile>();
    be_profile_->request_latency_us = 5000.0;
    for (const auto& kernel : be_kernels) {
      be_profile_->kernels.push_back(ToProfileEntry(spec_, kernel));
    }
    be_profile_->RebuildIndex();

    scheduler_ = std::make_unique<OrionScheduler>(options);
    std::vector<SchedClientInfo> infos;
    SchedClientInfo hp;
    hp.id = 0;
    hp.high_priority = true;
    hp.profile = hp_profile_.get();
    infos.push_back(hp);
    for (int i = 0; i < num_be; ++i) {
      SchedClientInfo be;
      be.id = 1 + i;
      be.high_priority = false;
      be.profile = be_profile_.get();
      infos.push_back(be);
    }
    scheduler_->Attach(&sim_, rt_.get(), infos);
  }

  void EnqueueKernel(ClientId client, const gpusim::KernelDesc& kernel) {
    SchedOp op;
    op.op.type = runtime::OpType::kKernelLaunch;
    op.op.kernel = kernel;
    scheduler_->Enqueue(client, std::move(op));
  }

  // Start time of the kernel named `name` in the device trace, or -1.
  TimeUs StartOf(const std::string& name) const {
    for (const auto& rec : trace_) {
      if (rec.name == name) {
        return rec.start;
      }
    }
    return -1.0;
  }

  Simulator sim_;
  gpusim::DeviceSpec spec_ = gpusim::DeviceSpec::V100_16GB();
  std::unique_ptr<runtime::GpuRuntime> rt_;
  std::unique_ptr<OrionScheduler> scheduler_;
  std::unique_ptr<profiler::WorkloadProfile> hp_profile_;
  std::unique_ptr<profiler::WorkloadProfile> be_profile_;
  std::vector<KernelExecRecord> trace_;
};

TEST_F(OrionSchedulerTest, HpKernelsSubmittedImmediately) {
  const auto hp = MakeKernel("hp", 100.0, 0.9, 0.1, 40);
  Attach(OrionOptions{}, {hp}, {});
  EnqueueKernel(0, hp);
  sim_.RunUntilIdle();
  ASSERT_EQ(trace_.size(), 1u);
  EXPECT_DOUBLE_EQ(trace_[0].start, 0.0);
  EXPECT_DOUBLE_EQ(trace_[0].end, 100.0);
}

TEST_F(OrionSchedulerTest, OppositeProfileBeCollocates) {
  const auto hp = MakeKernel("hp_conv", 500.0, 0.9, 0.1, 40);  // compute-bound
  const auto be = MakeKernel("be_bn", 100.0, 0.1, 0.8, 20);    // memory-bound
  Attach(OrionOptions{}, {hp}, {be});
  EnqueueKernel(0, hp);
  EnqueueKernel(1, be);
  sim_.RunUntilIdle();
  // The be kernel starts while hp is still running (opposite profiles).
  EXPECT_DOUBLE_EQ(StartOf("be_bn"), 0.0);
}

TEST_F(OrionSchedulerTest, SameProfileBeDeferredUntilHpIdle) {
  const auto hp = MakeKernel("hp_conv", 500.0, 0.9, 0.1, 40);
  const auto be = MakeKernel("be_conv", 100.0, 0.85, 0.1, 20);  // also compute-bound
  Attach(OrionOptions{}, {hp}, {be});
  EnqueueKernel(0, hp);
  EnqueueKernel(1, be);
  sim_.RunUntilIdle();
  // Deferred to hp completion at t=500.
  EXPECT_GE(StartOf("be_conv"), 500.0);
  EXPECT_GT(scheduler_->be_profile_skips(), 0u);
}

TEST_F(OrionSchedulerTest, LargeBeKernelBlockedBySmThreshold) {
  const auto hp = MakeKernel("hp_conv", 500.0, 0.9, 0.1, 40);
  // Opposite profile but wants every SM: blocked while hp runs.
  const auto be = MakeKernel("be_big_bn", 100.0, 0.1, 0.8, 80);
  Attach(OrionOptions{}, {hp}, {be});
  EnqueueKernel(0, hp);
  EnqueueKernel(1, be);
  sim_.RunUntilIdle();
  EXPECT_GE(StartOf("be_big_bn"), 500.0);
}

TEST_F(OrionSchedulerTest, SmCheckDisabledAllowsLargeKernels) {
  OrionOptions options;
  options.use_sm_check = false;
  const auto hp = MakeKernel("hp_conv", 500.0, 0.9, 0.1, 40);
  const auto be = MakeKernel("be_big_bn", 100.0, 0.1, 0.8, 80);
  Attach(options, {hp}, {be});
  EnqueueKernel(0, hp);
  EnqueueKernel(1, be);
  sim_.RunUntilIdle();
  EXPECT_DOUBLE_EQ(StartOf("be_big_bn"), 0.0);
}

TEST_F(OrionSchedulerTest, ProfileCheckDisabledAllowsSameProfile) {
  OrionOptions options;
  options.use_profile_check = false;
  const auto hp = MakeKernel("hp_conv", 500.0, 0.9, 0.1, 40);
  const auto be = MakeKernel("be_conv", 100.0, 0.85, 0.1, 20);
  Attach(options, {hp}, {be});
  EnqueueKernel(0, hp);
  EnqueueKernel(1, be);
  sim_.RunUntilIdle();
  EXPECT_DOUBLE_EQ(StartOf("be_conv"), 0.0);
}

TEST_F(OrionSchedulerTest, UnknownProfileBeCollocatesWithAnything) {
  const auto hp = MakeKernel("hp_conv", 500.0, 0.9, 0.1, 40);
  // Low utilization on both axes -> unknown profile (§5.2).
  const auto be = MakeKernel("be_tiny", 5.0, 0.1, 0.1, 2);
  Attach(OrionOptions{}, {hp}, {be});
  EnqueueKernel(0, hp);
  EnqueueKernel(1, be);
  sim_.RunUntilIdle();
  EXPECT_DOUBLE_EQ(StartOf("be_tiny"), 0.0);
}

TEST_F(OrionSchedulerTest, DurThresholdThrottlesBeBacklog) {
  // hp run-alone latency 1000us, threshold 2.5% -> 25us budget. Each be
  // kernel is 20us (memory-bound, small): the first submission exceeds the
  // budget, so later kernels wait until the event reports completion.
  const auto hp = MakeKernel("hp_conv", 2000.0, 0.9, 0.1, 40);
  std::vector<gpusim::KernelDesc> be_kernels;
  for (int i = 0; i < 4; ++i) {
    be_kernels.push_back(MakeKernel("be" + std::to_string(i), 20.0, 0.1, 0.8, 10));
  }
  Attach(OrionOptions{}, {hp}, be_kernels, 1, /*hp_latency=*/1000.0);
  EnqueueKernel(0, hp);
  for (const auto& kernel : be_kernels) {
    EnqueueKernel(1, kernel);
  }
  sim_.RunUntilIdle();
  EXPECT_GT(scheduler_->be_throttle_skips(), 0u);
  // Kernels still all ran eventually.
  EXPECT_EQ(rt_->device().kernels_completed(), 5u);
  // And the throttle serialised them: with a 25us budget and 20us kernels,
  // at most ~2 can be outstanding together, so be3 cannot start at t=0.
  EXPECT_GT(StartOf("be3"), 0.0);
}

TEST_F(OrionSchedulerTest, ThrottleDisabledSubmitsEverythingAtOnce) {
  OrionOptions options;
  options.use_dur_throttle = false;
  const auto hp = MakeKernel("hp_conv", 2000.0, 0.9, 0.1, 40);
  std::vector<gpusim::KernelDesc> be_kernels;
  for (int i = 0; i < 4; ++i) {
    be_kernels.push_back(MakeKernel("be" + std::to_string(i), 20.0, 0.1, 0.8, 10));
  }
  Attach(options, {hp}, be_kernels, 1, 1000.0);
  EnqueueKernel(0, hp);
  for (const auto& kernel : be_kernels) {
    EnqueueKernel(1, kernel);
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(scheduler_->be_throttle_skips(), 0u);
  EXPECT_EQ(scheduler_->be_kernels_submitted(), 4u);
}

// A be enqueue polls even at a timestamp that was already polled, so the
// kernel is submitted with no clock advance.
TEST_F(OrionSchedulerTest, SameTimestampEnqueueIsScanned) {
  const auto be = MakeKernel("be", 50.0, 0.1, 0.8, 10);
  Attach(OrionOptions{}, {}, {be});
  SchedOp mem;
  mem.op.type = runtime::OpType::kMemcpyH2D;
  mem.op.bytes = 1 << 20;
  scheduler_->Enqueue(0, std::move(mem));  // polls at t=0 (empty be queue)
  EnqueueKernel(1, be);                    // same timestamp
  EXPECT_EQ(scheduler_->be_kernels_submitted(), 1u);
  sim_.RunUntilIdle();
  EXPECT_EQ(rt_->device().kernels_completed(), 1u);
}

TEST_F(OrionSchedulerTest, BeRunsFreelyWhenHpIdle) {
  const auto be = MakeKernel("be_conv", 100.0, 0.9, 0.1, 80);  // big AND compute-bound
  Attach(OrionOptions{}, {}, {be});
  EnqueueKernel(1, be);
  sim_.RunUntilIdle();
  EXPECT_DOUBLE_EQ(StartOf("be_conv"), 0.0);
}

TEST_F(OrionSchedulerTest, MemoryOpsBypassPolicy) {
  const auto hp = MakeKernel("hp_conv", 500.0, 0.9, 0.1, 40);
  Attach(OrionOptions{}, {hp}, {});
  EnqueueKernel(0, hp);
  // A best-effort memcpy goes straight to the device even while hp runs.
  SchedOp copy;
  copy.op.type = runtime::OpType::kMemcpyH2D;
  copy.op.bytes = 12 * 1000 * 1000;
  bool copy_done = false;
  copy.on_complete = [&]() { copy_done = true; };
  scheduler_->Enqueue(1, std::move(copy));
  sim_.RunUntil(1200.0);
  EXPECT_TRUE(copy_done);
}

TEST_F(OrionSchedulerTest, RoundRobinAcrossBeClients) {
  std::vector<gpusim::KernelDesc> be_kernels;
  for (int i = 0; i < 6; ++i) {
    be_kernels.push_back(MakeKernel("be" + std::to_string(i), 50.0, 0.3, 0.3, 10));
  }
  Attach(OrionOptions{}, {}, be_kernels, /*num_be=*/2);
  // Client 1 gets kernels 0..2, client 2 gets kernels 3..5.
  for (int i = 0; i < 3; ++i) {
    EnqueueKernel(1, be_kernels[static_cast<std::size_t>(i)]);
  }
  for (int i = 3; i < 6; ++i) {
    EnqueueKernel(2, be_kernels[static_cast<std::size_t>(i)]);
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(rt_->device().kernels_completed(), 6u);
  // Both clients' first kernels start at t=0 (different streams, no hp).
  EXPECT_DOUBLE_EQ(StartOf("be0"), 0.0);
  EXPECT_DOUBLE_EQ(StartOf("be3"), 0.0);
}

TEST_F(OrionSchedulerTest, SmThresholdOverride) {
  OrionOptions options;
  options.sm_threshold = 16;
  const auto hp = MakeKernel("hp_conv", 500.0, 0.9, 0.1, 40);
  const auto be = MakeKernel("be_bn", 100.0, 0.1, 0.8, 20);  // 20 >= 16: blocked
  Attach(options, {hp}, {be});
  EXPECT_EQ(scheduler_->sm_threshold(), 16);
  EnqueueKernel(0, hp);
  EnqueueKernel(1, be);
  sim_.RunUntilIdle();
  EXPECT_GE(StartOf("be_bn"), 500.0);
}

TEST_F(OrionSchedulerTest, HpProfilesTrackOutstandingQueue) {
  // Two hp kernels back-to-back: while the memory-bound one runs, a
  // memory-bound be kernel must NOT collocate; once the compute-bound hp
  // kernel is the one running, it may.
  const auto hp_mem = MakeKernel("hp_bn", 300.0, 0.1, 0.9, 30);
  const auto hp_comp = MakeKernel("hp_conv", 300.0, 0.9, 0.1, 30);
  const auto be = MakeKernel("be_bn", 50.0, 0.1, 0.8, 10);
  Attach(OrionOptions{}, {hp_mem, hp_comp}, {be});
  EnqueueKernel(0, hp_mem);
  EnqueueKernel(0, hp_comp);
  EnqueueKernel(1, be);
  sim_.RunUntilIdle();
  const TimeUs be_start = StartOf("be_bn");
  // Blocked while hp_bn runs (same profile), allowed once hp_conv runs.
  EXPECT_GE(be_start, 300.0);
  EXPECT_LT(be_start, 600.0);
}

TEST_F(OrionSchedulerTest, StatsAccumulate) {
  const auto hp = MakeKernel("hp", 100.0, 0.9, 0.1, 40);
  const auto be = MakeKernel("be", 50.0, 0.1, 0.8, 10);
  Attach(OrionOptions{}, {hp}, {be});
  EnqueueKernel(1, be);
  sim_.RunUntilIdle();
  EXPECT_EQ(scheduler_->be_kernels_submitted(), 1u);
}

// KernelView::profiled — the profile vouches for every kernel of the op —
// is what earns a be kernel's duration the runaway watchdog's patience.
TEST(KernelViewTest, ProfiledOnlyWhenTheProfileCoversEveryKernel) {
  const gpusim::DeviceSpec spec = gpusim::DeviceSpec::V100_16GB();
  const auto known = MakeKernel("known", 100.0, 0.1, 0.8, 20);
  const auto unknown = MakeKernel("unknown", 80.0, 0.9, 0.1, 40);  // compute-bound
  profiler::WorkloadProfile profile;
  profile.kernels.push_back(ToProfileEntry(spec, known));
  profile.RebuildIndex();

  runtime::Op kernel;
  kernel.type = runtime::OpType::kKernelLaunch;
  kernel.kernel = known;
  EXPECT_TRUE(ViewOf(kernel, &profile).profiled);
  EXPECT_TRUE(ViewOf(kernel, &profile, /*conservative_miss=*/true).profiled);
  EXPECT_FALSE(ViewOf(kernel, nullptr).profiled);

  runtime::Op miss = kernel;
  miss.kernel = unknown;
  EXPECT_FALSE(ViewOf(miss, &profile).profiled);
  const KernelView conservative = ViewOf(miss, &profile, /*conservative_miss=*/true);
  EXPECT_FALSE(conservative.profiled);
  EXPECT_EQ(conservative.profile, gpusim::ResourceProfile::kMemoryBound);

  const gpusim::KernelDesc graph_kernels[] = {known, known, unknown};
  runtime::Op graph;
  graph.type = runtime::OpType::kGraphLaunch;
  EXPECT_FALSE(ViewOf(graph, &profile).profiled);  // empty graph
  graph.graph_kernels = std::span(graph_kernels).first(2);
  EXPECT_TRUE(ViewOf(graph, &profile).profiled);
  EXPECT_FALSE(ViewOf(graph, nullptr).profiled);
  graph.graph_kernels = graph_kernels;
  const KernelView partial = ViewOf(graph, &profile);
  EXPECT_FALSE(partial.profiled);
  EXPECT_DOUBLE_EQ(partial.duration_us, 280.0);  // still the whole graph's time

  runtime::Op memory;
  memory.type = runtime::OpType::kMemcpyH2D;
  EXPECT_FALSE(ViewOf(memory, &profile).profiled);
}

using OrionSchedulerDeathTest = OrionSchedulerTest;

TEST_F(OrionSchedulerDeathTest, RejectsZeroHpClients) {
  auto scheduler = std::make_unique<OrionScheduler>(OrionOptions{});
  SchedClientInfo be;
  be.id = 0;
  be.high_priority = false;
  EXPECT_DEATH(scheduler->Attach(&sim_, rt_.get(), {be}), "exactly one high-priority");
}

}  // namespace
}  // namespace core
}  // namespace orion
