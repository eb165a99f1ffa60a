// Fault-injection subsystem tests (src/fault + the graceful-degradation
// responses in gpusim, interconnect, collective, core, and harness).
//
// Covers every fault class of the FaultPlan:
//   * device degradation  — SM pool shrinks mid-run, SM_THRESHOLD re-tunes;
//   * link faults         — transfers stall in place and resume, the
//                           collective engine waits out flaps, gives up on
//                           permanent stalls, and re-forms its ring around a
//                           dead GPU (exact byte property on the new ring);
//   * client faults       — crash quarantine (queues dropped, memory
//                           released, throttle recredited, hp unaffected)
//                           and the runaway-kernel watchdog;
//   * profile poisoning   — conservative memory-bound fallback on misses;
// plus distinct FaultKind names for the injector's trace markers.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/collective/collective.h"
#include "src/core/orion_scheduler.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/gpusim/device.h"
#include "src/harness/experiment.h"
#include "src/harness/multi_gpu.h"
#include "src/interconnect/fabric.h"
#include "src/interconnect/topology.h"
#include "src/runtime/gpu_runtime.h"
#include "src/sim/simulator.h"
#include "src/trace/request_rates.h"
#include "tests/test_util.h"

namespace orion {
namespace fault {
namespace {

using interconnect::Fabric;
using interconnect::NodeTopology;
using testutil::MakeKernel;
using workloads::MakeWorkload;
using workloads::ModelId;
using workloads::TaskType;

constexpr std::size_t kMb = 1 << 20;

std::vector<int> Iota(int n) {
  std::vector<int> ring;
  for (int i = 0; i < n; ++i) {
    ring.push_back(i);
  }
  return ring;
}

// --- FaultPlan names. -----------------------------------------------------

TEST(FaultPlanTest, KindNamesAreDistinct) {
  // The injector's trace markers are named by FaultKindName: every kind gets
  // its own name.
  std::set<std::string> names;
  for (const FaultKind kind :
       {FaultKind::kDeviceDegrade, FaultKind::kLinkDegrade, FaultKind::kLinkDown,
        FaultKind::kGpuDown, FaultKind::kClientCrash, FaultKind::kClientHang,
        FaultKind::kProfilePoison, FaultKind::kNodeDown}) {
    EXPECT_STRNE(FaultKindName(kind), "invalid");
    names.insert(FaultKindName(kind));
  }
  EXPECT_EQ(names.size(), 8u);
}

// --- Device degradation. --------------------------------------------------

TEST(DeviceDegradeTest, MidRunDegradeShrinksPoolAndSlowsKernels) {
  Simulator sim;
  gpusim::Device device(&sim, gpusim::DeviceSpec::V100_16GB());
  const gpusim::StreamId stream = device.CreateStream();
  TimeUs done_at = -1.0;
  device.LaunchKernel(stream, MakeKernel("big", 100.0, 0.9, 0.1, 80),
                      [&]() { done_at = sim.now(); });
  // Halfway through, the device loses half its SMs (ECC retirement).
  sim.ScheduleAt(50.0, [&]() { device.DegradeSms(40); });
  sim.RunUntilIdle();
  EXPECT_EQ(device.effective_sms(), 40);
  // The kernel finished, later than its healthy alone time.
  EXPECT_GT(done_at, 100.0);
  // The pool drained back to the shrunken size, not the spec size.
  EXPECT_EQ(device.FreeSms(), 40);
}

TEST(DeviceDegradeTest, MembwScalingSlowsMemoryBoundKernel) {
  Simulator sim;
  gpusim::Device healthy(&sim, gpusim::DeviceSpec::V100_16GB());
  gpusim::Device degraded(&sim, gpusim::DeviceSpec::V100_16GB());
  degraded.ScaleMembw(0.5);
  TimeUs healthy_done = -1.0;
  TimeUs degraded_done = -1.0;
  const auto kernel = MakeKernel("membound", 100.0, 0.1, 0.9, 40);
  healthy.LaunchKernel(healthy.CreateStream(), kernel, [&]() { healthy_done = sim.now(); });
  degraded.LaunchKernel(degraded.CreateStream(), kernel,
                        [&]() { degraded_done = sim.now(); });
  sim.RunUntilIdle();
  EXPECT_GT(degraded_done, healthy_done);
}

TEST(DeviceDegradeTest, OrionReTunesSmThreshold) {
  Simulator sim;
  auto rt = std::make_unique<runtime::GpuRuntime>(&sim, gpusim::DeviceSpec::V100_16GB());

  profiler::WorkloadProfile profile;
  profile.request_latency_us = 10000.0;
  core::SchedClientInfo info;
  info.id = 0;
  info.high_priority = true;
  info.profile = &profile;

  // Default threshold resolves to the full device...
  core::OrionScheduler defaulted{core::OrionOptions{}};
  defaulted.Attach(&sim, rt.get(), {info});
  EXPECT_EQ(defaulted.sm_threshold(), 80);
  rt->device().DegradeSms(40);
  // ...and re-resolves to the surviving pool on the degradation hook.
  defaulted.OnDeviceDegraded();
  EXPECT_EQ(defaulted.sm_threshold(), 40);

  // An explicitly tuned threshold scales with the surviving fraction.
  core::OrionOptions tuned_options;
  tuned_options.sm_threshold = 20;
  core::OrionScheduler tuned{tuned_options};
  tuned.Attach(&sim, rt.get(), {info});
  EXPECT_EQ(tuned.sm_threshold(), 20);
  tuned.OnDeviceDegraded();  // device is at 40/80 of spec
  EXPECT_EQ(tuned.sm_threshold(), 10);
}

// --- Link faults on the fabric. -------------------------------------------

TEST(LinkFaultTest, TransferStallsInPlaceAndResumes) {
  const NodeTopology topo = NodeTopology::FullNvLink(2);
  Simulator sim;
  Fabric fabric(&sim, topo);
  const interconnect::Path route = topo.Route(0, 1);
  ASSERT_EQ(route.size(), 1u);
  const auto link = route[0].link;
  const bool forward = route[0].forward;

  const std::size_t bytes = 16 * kMb;
  TimeUs done_at = -1.0;
  fabric.StartTransfer(0, 1, bytes, [&]() { done_at = sim.now(); });

  // Healthy completion time for reference.
  const double bw_bytes_per_us = topo.link(link).gbps * 1e3;
  const double healthy = topo.link(link).latency_us + bytes / bw_bytes_per_us;

  // Down at t=10, restored at t=10+outage.
  const double outage = 2.0 * healthy;
  sim.ScheduleAt(10.0, [&]() { fabric.SetLinkFactor(link, forward, 0.0); });
  sim.ScheduleAt(10.0 + outage, [&]() { fabric.SetLinkFactor(link, forward, 1.0); });

  // While the direction is dead the transfer must not complete...
  sim.RunUntil(10.0 + outage - 1.0);
  EXPECT_LT(done_at, 0.0);
  EXPECT_EQ(fabric.ActiveTransfers(), 1);

  // ...and after restore it finishes having paid exactly the outage.
  sim.RunUntilIdle();
  EXPECT_NEAR(done_at, healthy + outage, 1e-6);
  EXPECT_EQ(fabric.ActiveTransfers(), 0);
  EXPECT_NEAR(fabric.BytesMoved(link, forward), static_cast<double>(bytes), 1e-6);
}

TEST(LinkFaultTest, CancelKeepsMovedBytesAndFiresCompletion) {
  const NodeTopology topo = NodeTopology::FullNvLink(2);
  Simulator sim;
  Fabric fabric(&sim, topo);
  const interconnect::Path route = topo.Route(0, 1);
  const std::size_t bytes = 16 * kMb;
  TimeUs done_at = -1.0;
  const auto id = fabric.StartTransfer(0, 1, bytes, [&]() { done_at = sim.now(); });

  const double bw_bytes_per_us = topo.link(route[0].link).gbps * 1e3;
  const double latency = topo.link(route[0].link).latency_us;
  const double cancel_at = latency + 0.25 * bytes / bw_bytes_per_us;
  sim.ScheduleAt(cancel_at, [&]() { EXPECT_TRUE(fabric.CancelTransfer(id)); });
  sim.RunUntilIdle();
  // Completion fired at cancel time (zero-delay event), never in the past.
  EXPECT_NEAR(done_at, cancel_at, 1e-6);
  EXPECT_EQ(fabric.transfers_cancelled(), 1u);
  EXPECT_EQ(fabric.ActiveTransfers(), 0);
  // Bytes already across the wire stay counted; the rest were dropped.
  EXPECT_NEAR(fabric.BytesMoved(route[0].link, route[0].forward), 0.25 * bytes, 1.0);
}

TEST(LinkFaultTest, GpuAliveTracksLinkFactors) {
  const NodeTopology topo = NodeTopology::FullNvLink(3);
  Simulator sim;
  Fabric fabric(&sim, topo);
  EXPECT_TRUE(fabric.GpuAlive(2));
  // One dead link direction does not kill the GPU...
  const auto link01 = topo.NvLinkBetween(0, 1);
  fabric.SetLinkFactor(link01, true, 0.0);
  EXPECT_TRUE(fabric.GpuAlive(0));
  // ...but zeroing every link touching it does (the kGpuDown shape).
  for (const auto& link : topo.links()) {
    if (link.node_a == 2 || link.node_b == 2) {
      fabric.SetLinkFactor(link.id, true, 0.0);
      fabric.SetLinkFactor(link.id, false, 0.0);
    }
  }
  EXPECT_FALSE(fabric.GpuAlive(2));
  EXPECT_TRUE(fabric.GpuAlive(0));
  EXPECT_TRUE(fabric.GpuAlive(1));
}

// --- Collective engine under link/GPU faults. -----------------------------

TEST(CollectiveFaultTest, FlapIsWaitedOutWithoutReformation) {
  const int n = 4;
  const std::size_t bytes = 12 * kMb;
  const NodeTopology topo = NodeTopology::FullNvLink(n);
  Simulator sim;
  Fabric fabric(&sim, topo);
  collective::CollectiveEngine engine(&sim, &fabric);
  collective::CollectiveOptions options;
  options.step_timeout_us = 50.0;
  engine.set_options(options);

  bool done = false;
  engine.AllReduce(Iota(n), bytes, [&]() { done = true; });

  // Flap one ring direction mid-step-0; restore well after the timeout.
  const interconnect::Path route = topo.Route(0, 1);
  sim.ScheduleAt(20.0,
                 [&]() { fabric.SetLinkFactor(route[0].link, route[0].forward, 0.0); });
  sim.ScheduleAt(150.0,
                 [&]() { fabric.SetLinkFactor(route[0].link, route[0].forward, 1.0); });
  sim.RunUntilIdle();

  ASSERT_TRUE(done);
  EXPECT_GE(engine.step_timeouts(), 1u);
  EXPECT_EQ(engine.reformations(), 0u);
  EXPECT_EQ(engine.timeout_giveups(), 0u);
  EXPECT_TRUE(engine.dead_gpus().empty());
  // A stall loses no bytes: the flapped direction still carries the exact
  // ring all-reduce traffic.
  const double expected = 2.0 * (n - 1) / static_cast<double>(n) * bytes;
  EXPECT_NEAR(fabric.BytesMoved(route[0].link, route[0].forward), expected, 1.0);
}

TEST(CollectiveFaultTest, PermanentStallGivesUpAndTerminates) {
  const int n = 4;
  const NodeTopology topo = NodeTopology::FullNvLink(n);
  Simulator sim;
  Fabric fabric(&sim, topo);
  collective::CollectiveEngine engine(&sim, &fabric);
  collective::CollectiveOptions options;
  options.step_timeout_us = 50.0;
  engine.set_options(options);

  bool done = false;
  engine.AllReduce(Iota(n), 12 * kMb, [&]() { done = true; });
  // One ring direction dies permanently but the GPU stays on the fabric
  // (its other links are healthy): not a death, so no re-formation — the
  // engine must stop re-arming its timer instead of spinning forever.
  const interconnect::Path route = topo.Route(0, 1);
  sim.ScheduleAt(20.0,
                 [&]() { fabric.SetLinkFactor(route[0].link, route[0].forward, 0.0); });
  sim.RunUntilIdle();  // must terminate: bounded timer events

  EXPECT_FALSE(done);
  EXPECT_EQ(engine.reformations(), 0u);
  EXPECT_EQ(engine.timeout_giveups(), 1u);
  EXPECT_GE(engine.step_timeouts(), static_cast<std::size_t>(collective::kMaxStepTimeouts));
}

// ISSUE acceptance property: after a GPU death mid-all-reduce, the restarted
// collective on the surviving ring of N' GPUs moves exactly 2*(N'-1)/N' * B
// bytes over every surviving ring link direction.
TEST(CollectiveFaultTest, RingReformationMovesExactTrafficOnSurvivingRing) {
  const int n = 4;
  const std::size_t bytes = 12 * kMb;  // divisible by 4 and by 3
  const NodeTopology topo = NodeTopology::FullNvLink(n);
  Simulator sim;
  Fabric fabric(&sim, topo);
  collective::CollectiveEngine engine(&sim, &fabric);
  collective::CollectiveOptions options;
  options.step_timeout_us = 50.0;
  engine.set_options(options);

  // Snapshot per-direction byte counters the instant the ring re-forms
  // (before the restarted collective issues any sends).
  std::vector<int> new_ring;
  std::map<std::pair<int, int>, double> bytes_at_reform;
  engine.set_reform_listener([&](const std::vector<int>& ring) {
    new_ring = ring;
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const int src = ring[i];
      const int dst = ring[(i + 1) % ring.size()];
      const interconnect::Path route = topo.Route(src, dst);
      bytes_at_reform[{src, dst}] = fabric.BytesMoved(route[0].link, route[0].forward);
    }
  });

  bool done = false;
  engine.AllReduce(Iota(n), bytes, [&]() { done = true; });

  // GPU 3 falls off the bus mid-step, injected through the fault plan.
  FaultPlan plan;
  FaultEvent event;
  event.kind = FaultKind::kGpuDown;
  event.at_us = 30.0;
  event.gpu = 3;
  plan.events.push_back(event);
  FaultInjector injector(&sim, plan);
  injector.set_target_handler([&fabric](const FaultEvent& fault) {
    fabric.DisconnectGpu(fault.gpu);
    return true;
  });
  injector.Arm();

  sim.RunUntilIdle();

  ASSERT_TRUE(done);
  EXPECT_EQ(injector.injected(), 1u);
  EXPECT_EQ(engine.reformations(), 1u);
  ASSERT_EQ(engine.dead_gpus().size(), 1u);
  EXPECT_EQ(*engine.dead_gpus().begin(), 3);
  ASSERT_EQ(new_ring, (std::vector<int>{0, 1, 2}));

  const int survivors = static_cast<int>(new_ring.size());
  const double expected = 2.0 * (survivors - 1) / static_cast<double>(survivors) *
                          static_cast<double>(bytes);
  for (std::size_t i = 0; i < new_ring.size(); ++i) {
    const int src = new_ring[i];
    const int dst = new_ring[(i + 1) % new_ring.size()];
    const interconnect::Path route = topo.Route(src, dst);
    const double moved =
        fabric.BytesMoved(route[0].link, route[0].forward) - bytes_at_reform[{src, dst}];
    EXPECT_NEAR(moved, expected, 1.0) << "ring edge " << src << "->" << dst;
  }
  // A later collective excludes the dead GPU from the start.
  bool again = false;
  engine.AllReduce(Iota(n), bytes, [&]() { again = true; });
  sim.RunUntilIdle();
  EXPECT_TRUE(again);
  EXPECT_EQ(engine.reformations(), 1u);  // no second re-formation needed
}

// --- Scheduler failure paths (ISSUE satellite). ---------------------------

// Mirrors the OrionSchedulerTest fixture: one hp client (id 0) and N be
// clients (ids 1..) against the simulated device.
class SchedulerFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rt_ = std::make_unique<runtime::GpuRuntime>(&sim_, spec_);
    rt_->device().set_kernel_trace_sink(
        [this](const gpusim::KernelExecRecord& rec) { trace_.push_back(rec); });
  }

  static profiler::KernelProfile ToProfileEntry(const gpusim::DeviceSpec& spec,
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

  void Attach(core::OrionOptions options, const std::vector<gpusim::KernelDesc>& hp_kernels,
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

    scheduler_ = std::make_unique<core::OrionScheduler>(options);
    std::vector<core::SchedClientInfo> infos;
    core::SchedClientInfo hp;
    hp.id = 0;
    hp.high_priority = true;
    hp.profile = hp_profile_.get();
    infos.push_back(hp);
    for (int i = 0; i < num_be; ++i) {
      core::SchedClientInfo be;
      be.id = 1 + i;
      be.high_priority = false;
      be.profile = be_profile_.get();
      infos.push_back(be);
    }
    scheduler_->Attach(&sim_, rt_.get(), infos);
  }

  void EnqueueKernel(core::ClientId client, const gpusim::KernelDesc& kernel) {
    core::SchedOp op;
    op.op.type = runtime::OpType::kKernelLaunch;
    op.op.kernel = kernel;
    op.op.client_id = static_cast<std::uint64_t>(client);
    scheduler_->Enqueue(client, std::move(op));
  }

  void EnqueueMalloc(core::ClientId client, std::size_t bytes) {
    core::SchedOp op;
    op.op.type = runtime::OpType::kMalloc;
    op.op.bytes = bytes;
    op.op.client_id = static_cast<std::uint64_t>(client);
    scheduler_->Enqueue(client, std::move(op));
  }

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
  std::unique_ptr<core::OrionScheduler> scheduler_;
  std::unique_ptr<profiler::WorkloadProfile> hp_profile_;
  std::unique_ptr<profiler::WorkloadProfile> be_profile_;
  std::vector<gpusim::KernelExecRecord> trace_;
};

TEST_F(SchedulerFaultTest, CrashReleasesMemoryAndDropsQueue) {
  // be_res (400µs) blows the 250µs DUR budget on submission, so everything
  // enqueued after it stays in the scheduler queue (the throttle holds it).
  const auto be_res = MakeKernel("be_res", 400.0, 0.1, 0.8, 20);
  const auto be_q = MakeKernel("be_q", 100.0, 0.1, 0.8, 20);
  Attach(core::OrionOptions{}, {}, {be_res});
  EnqueueMalloc(1, 256 * kMb);
  sim_.RunUntilIdle();
  EXPECT_EQ(rt_->memory().used(), 256 * kMb);

  EnqueueKernel(1, be_res);  // submits immediately, goes resident
  EnqueueKernel(1, be_q);    // throttled: stays queued
  EnqueueKernel(1, be_q);    // throttled: stays queued

  // Two queued kernels die with the client; memory comes back.
  scheduler_->OnClientCrash(1);
  EXPECT_TRUE(scheduler_->client_quarantined(1));
  EXPECT_EQ(scheduler_->clients_quarantined(), 1u);
  EXPECT_EQ(scheduler_->be_ops_dropped(), 2u);
  EXPECT_EQ(scheduler_->be_bytes_released(), 256 * kMb);
  EXPECT_EQ(rt_->memory().used(), 0u);

  // Post-crash submissions from the dead client are dropped too.
  EnqueueKernel(1, be_q);
  EXPECT_EQ(scheduler_->be_ops_dropped(), 3u);
  sim_.RunUntilIdle();
  // The resident kernel ran out on the device (no preemption), but no queued
  // op from the dead client ever started.
  EXPECT_GE(StartOf("be_res"), 0.0);
  EXPECT_DOUBLE_EQ(StartOf("be_q"), -1.0);
}

TEST_F(SchedulerFaultTest, CrashWhileKernelResidentDoesNotDisturbHp) {
  const auto hp = MakeKernel("hp", 100.0, 0.9, 0.1, 40);
  const auto be = MakeKernel("be_long", 500.0, 0.1, 0.8, 20);
  Attach(core::OrionOptions{}, {hp}, {be});
  // The be kernel goes resident while the device is idle.
  EnqueueKernel(1, be);
  sim_.ScheduleAt(50.0, [&]() { scheduler_->OnClientCrash(1); });
  // hp work submitted after the crash starts immediately: resident dead-client
  // kernels are not preempted but must not block the hp stream.
  sim_.ScheduleAt(60.0, [&]() { EnqueueKernel(0, hp); });
  sim_.RunUntilIdle();
  EXPECT_DOUBLE_EQ(StartOf("hp"), 60.0);
  EXPECT_GE(StartOf("be_long"), 0.0);  // it ran (no preemption)...
  EXPECT_EQ(scheduler_->clients_quarantined(), 1u);
}

TEST_F(SchedulerFaultTest, CrashWithPendingThrottleRecreditsBudget) {
  // hp latency 10000 → DUR budget 250µs. The first be kernel (400µs) blows
  // the budget, so the second be client's kernel is throttled behind it.
  const auto hp = MakeKernel("hp", 100.0, 0.9, 0.1, 40);
  const auto big = MakeKernel("be_big", 400.0, 0.1, 0.8, 20);
  const auto small = MakeKernel("be_small", 50.0, 0.1, 0.8, 20);
  Attach(core::OrionOptions{}, {hp}, {big, small}, /*num_be=*/2);

  EnqueueKernel(0, hp);  // keeps an hp kernel outstanding so the throttle matters
  EnqueueKernel(1, big);
  EnqueueKernel(2, small);
  sim_.RunUntil(10.0);
  EXPECT_DOUBLE_EQ(StartOf("be_small"), -1.0);  // throttled

  // Client 1 dies. Its outstanding duration is recredited, so client 2's
  // kernel submits without waiting for the dead client's 400µs to drain.
  scheduler_->OnClientCrash(1);
  sim_.RunUntilIdle();
  const TimeUs small_start = StartOf("be_small");
  ASSERT_GE(small_start, 0.0);
  EXPECT_LT(small_start, 400.0);  // well before be_big's completion
}

TEST_F(SchedulerFaultTest, WatchdogQuarantinesRunawayKernel) {
  // A runaway kernel unknown to any profile hogs the device; the watchdog
  // (runaway_timeout_factor × DUR budget) quarantines its client so the
  // surviving be client can use the recredited budget.
  const auto hp = MakeKernel("hp", 100.0, 0.9, 0.1, 40);
  const auto runaway = MakeKernel("runaway", 50000.0, 0.5, 0.5, 20);
  const auto small = MakeKernel("be_small", 50.0, 0.1, 0.8, 20);
  core::OrionOptions options;
  options.runaway_timeout_factor = 4.0;  // watchdog fires after 4×250µs
  // The runaway is deliberately absent from the be profile: its descriptor
  // duration is untrusted, so the watchdog gives it only the DUR budget's
  // grace (profiled work would scale the deadline instead).
  Attach(options, {hp}, {small}, /*num_be=*/2);

  EnqueueKernel(1, runaway);  // device idle → submits, blows the budget
  EnqueueKernel(0, hp);
  EnqueueKernel(2, small);  // throttled behind the runaway → arms watchdog
  sim_.RunUntil(500.0);
  EXPECT_EQ(scheduler_->runaway_quarantines(), 0u);  // not yet: 4×250 = 1000
  sim_.RunUntil(2000.0);
  EXPECT_EQ(scheduler_->runaway_quarantines(), 1u);
  EXPECT_TRUE(scheduler_->client_quarantined(1));
  sim_.RunUntilIdle();
  // The surviving be client got in long before the runaway's 50ms retired.
  const TimeUs small_start = StartOf("be_small");
  ASSERT_GE(small_start, 0.0);
  EXPECT_LT(small_start, 5000.0);
  EXPECT_GE(StartOf("hp"), 0.0);
}

TEST_F(SchedulerFaultTest, ConservativeFallbackClassifiesMissesMemoryBound) {
  // With conservative_profile_miss, a be kernel missing from its profile is
  // treated as memory-bound: it will not collocate with memory-bound hp work
  // even though its (untrusted) descriptor claims compute-bound.
  const auto hp_mem = MakeKernel("hp_mem", 500.0, 0.1, 0.9, 30);  // memory-bound
  const auto be_unknown = MakeKernel("be_unknown", 100.0, 0.9, 0.1, 20);
  core::OrionOptions options;
  options.conservative_profile_miss = true;
  Attach(options, {hp_mem}, {});  // be profile is empty: every lookup misses
  EnqueueKernel(0, hp_mem);
  EnqueueKernel(1, be_unknown);
  sim_.RunUntilIdle();
  // Both look memory-bound → no collocation: be waits for hp to finish.
  EXPECT_DOUBLE_EQ(StartOf("be_unknown"), 500.0);
}

// --- Experiment-harness fault scenarios (FaultPlan end to end). -----------

harness::ExperimentConfig InfTrainConfig(DurationUs duration = SecToUs(2.0)) {
  harness::ExperimentConfig config;
  config.scheduler = harness::SchedulerKind::kOrion;
  config.warmup_us = SecToUs(0.5);
  config.duration_us = duration;

  harness::ClientConfig hp;
  hp.workload = MakeWorkload(ModelId::kResNet50, TaskType::kInference);
  hp.high_priority = true;
  hp.arrivals = trace::ArrivalKind::kPoisson;
  hp.rps = trace::RequestsPerSecond(ModelId::kResNet50,
                                    trace::CollocationCase::kInfTrainPoisson);

  harness::ClientConfig be;
  be.workload = MakeWorkload(ModelId::kResNet50, TaskType::kTraining);
  be.arrivals = trace::ArrivalKind::kClosedLoop;

  config.clients = {hp, be};
  return config;
}

TEST(ExperimentFaultTest, ClientCrashQuarantinesWithoutHurtingHp) {
  const harness::ExperimentResult baseline = RunExperiment(InfTrainConfig());

  harness::ExperimentConfig config = InfTrainConfig();
  FaultEvent crash;
  crash.kind = FaultKind::kClientCrash;
  crash.at_us = SecToUs(1.5);  // mid measurement window
  crash.client = 1;
  config.fault_plan.events.push_back(crash);
  const harness::ExperimentResult result = RunExperiment(config);

  EXPECT_EQ(result.faults_injected, 1u);
  EXPECT_EQ(result.faults_skipped, 0u);
  EXPECT_EQ(result.clients_quarantined, 1u);
  // The be job stops mid-window: fewer iterations than fault-free.
  ASSERT_EQ(result.clients.size(), 2u);
  EXPECT_LT(result.clients[1].completed, baseline.clients[1].completed);
  // hp keeps serving and its tail does not regress (the dead client only
  // frees capacity).
  EXPECT_GT(result.hp().completed, 20u);
  EXPECT_LE(result.hp().latency.p99(), 1.25 * baseline.hp().latency.p99());
}

TEST(ExperimentFaultTest, HangedClientIsCaughtByWatchdog) {
  harness::ExperimentConfig config = InfTrainConfig();
  // A second best-effort client keeps the scheduler polling (the watchdog
  // arms on a throttled poll).
  harness::ClientConfig be2;
  be2.workload = MakeWorkload(ModelId::kMobileNetV2, TaskType::kTraining);
  be2.arrivals = trace::ArrivalKind::kClosedLoop;
  config.clients.push_back(be2);
  config.orion.runaway_timeout_factor = 4.0;

  FaultEvent hang;
  hang.kind = FaultKind::kClientHang;
  hang.at_us = SecToUs(1.0);
  hang.client = 1;
  hang.runaway_us = SecToUs(0.25);  // 250ms runaway kernel
  config.fault_plan.events.push_back(hang);
  const harness::ExperimentResult result = RunExperiment(config);

  EXPECT_EQ(result.faults_injected, 1u);
  EXPECT_EQ(result.runaway_quarantines, 1u);
  EXPECT_EQ(result.clients_quarantined, 1u);
  // The run terminates with hp still serving and the surviving be client
  // making progress — DUR accounting did not deadlock.
  EXPECT_GT(result.hp().completed, 20u);
  ASSERT_EQ(result.clients.size(), 3u);
  EXPECT_GT(result.clients[2].completed, 0u);
}

TEST(ExperimentFaultTest, DeviceDegradeRaisesLatencyButCompletes) {
  const harness::ExperimentResult baseline = RunExperiment(InfTrainConfig());

  harness::ExperimentConfig config = InfTrainConfig();
  FaultEvent degrade;
  degrade.kind = FaultKind::kDeviceDegrade;
  degrade.at_us = SecToUs(1.0);
  degrade.gpu = 0;
  degrade.sms_lost = 60;       // 80 → 20 SMs
  degrade.membw_factor = 0.5;  // half the memory bandwidth
  config.fault_plan.events.push_back(degrade);
  const harness::ExperimentResult result = RunExperiment(config);

  EXPECT_EQ(result.faults_injected, 1u);
  EXPECT_GT(result.hp().completed, 0u);
  // A quarter of the SMs at half the bandwidth must show up in the tail.
  EXPECT_GT(result.hp().latency.p99(), baseline.hp().latency.p99());
}

TEST(ExperimentFaultTest, PoisonedProfilesDegradeGracefully) {
  harness::ExperimentConfig config = InfTrainConfig();
  config.orion.conservative_profile_miss = true;
  FaultEvent poison;
  poison.kind = FaultKind::kProfilePoison;
  poison.at_us = SecToUs(0.75);
  poison.perturb_factor = 1.5;
  poison.drop_fraction = 0.5;
  poison.seed = 7;
  config.fault_plan.events.push_back(poison);
  const harness::ExperimentResult result = RunExperiment(config);

  EXPECT_EQ(result.faults_injected, 1u);
  // Half the profile entries are gone and the rest lie by 1.5×; the
  // conservative fallback keeps the collocation serving, hp first.
  EXPECT_GT(result.hp().completed, 20u);
}

TEST(ExperimentFaultTest, EventsWithAbsentTargetsAreSkipped) {
  harness::ExperimentConfig config = InfTrainConfig(SecToUs(1.0));
  FaultEvent no_gpu;
  no_gpu.kind = FaultKind::kDeviceDegrade;
  no_gpu.at_us = SecToUs(0.6);
  no_gpu.gpu = 5;  // single-device harness: no GPU 5
  no_gpu.sms_lost = 10;
  config.fault_plan.events.push_back(no_gpu);
  FaultEvent no_fabric;
  no_fabric.kind = FaultKind::kLinkDown;
  no_fabric.at_us = SecToUs(0.7);
  no_fabric.link = 0;  // no fabric in the single-device harness
  config.fault_plan.events.push_back(no_fabric);
  const harness::ExperimentResult result = RunExperiment(config);
  EXPECT_EQ(result.faults_injected, 0u);
  EXPECT_EQ(result.faults_skipped, 2u);
}

// --- Multi-GPU harness fault scenarios. -----------------------------------

harness::MultiGpuConfig DdpConfig(int num_gpus) {
  harness::MultiGpuConfig config;
  config.topology = NodeTopology::FullNvLink(num_gpus);
  config.ddp.model = ModelId::kResNet50;
  config.ddp.num_gpus = num_gpus;
  config.ddp.global_batch_size = 32;
  config.iterations = 6;
  return config;
}

TEST(DdpFaultTest, GpuDeathShrinksWorldAndCompletes) {
  harness::MultiGpuConfig config = DdpConfig(4);
  config.collective.step_timeout_us = 200.0;
  FaultEvent death;
  death.kind = FaultKind::kGpuDown;
  death.at_us = 2000.0;  // inside the first iterations
  death.gpu = 3;
  config.fault_plan.events.push_back(death);

  const harness::MultiGpuResult result = harness::RunDdpExperiment(config);
  EXPECT_EQ(result.faults_injected, 1u);
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.ring_reformations, 1u);
  ASSERT_EQ(result.dead_gpus.size(), 1u);
  EXPECT_EQ(result.dead_gpus[0], 3);
  EXPECT_EQ(result.final_world_size, 3);
}

TEST(DdpFaultTest, LinkFlapIsSurvivedWithoutReformation) {
  harness::MultiGpuConfig config = DdpConfig(4);
  config.collective.step_timeout_us = 200.0;
  const auto ring = config.topology.PreferredRing(Iota(4));
  const auto link = config.topology.NvLinkBetween(ring[0], ring[1]);
  ASSERT_NE(link, interconnect::kInvalidLink);
  FaultEvent flap;
  flap.kind = FaultKind::kLinkDown;
  // Mid-backward of iteration 1 (~38ms/iter), where gradient buckets are in
  // flight: the flap actually stalls a ring step. 2.8ms heals inside the
  // give-up patience (200µs × (1+2+4+8) = 3ms).
  flap.at_us = 25000.0;
  flap.link = link;
  flap.dir = LinkDir::kBoth;
  flap.duration_us = 2800.0;
  config.fault_plan.events.push_back(flap);

  const harness::MultiGpuResult result = harness::RunDdpExperiment(config);
  EXPECT_EQ(result.faults_injected, 1u);
  EXPECT_TRUE(result.completed);
  // The stall was detected (timeouts fired) but waited out: no re-formation.
  EXPECT_GE(result.step_timeouts, 1u);
  EXPECT_EQ(result.timeout_giveups, 0u);
  EXPECT_EQ(result.ring_reformations, 0u);
  EXPECT_TRUE(result.dead_gpus.empty());
  EXPECT_EQ(result.final_world_size, 4);
}

}  // namespace
}  // namespace fault
}  // namespace orion
