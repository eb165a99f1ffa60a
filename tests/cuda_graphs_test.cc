// CUDA graph extension tests (§7): graph-launch semantics, aggregate op
// views, driver capture, and the policy-granularity consequences.
#include <gtest/gtest.h>

#include "src/core/op_view.h"
#include "src/core/orion_scheduler.h"
#include "src/harness/experiment.h"
#include "src/runtime/gpu_runtime.h"
#include "src/sim/simulator.h"
#include "tests/test_util.h"

namespace orion {
namespace {

using testutil::MakeKernel;

TEST(GraphLaunchTest, ExecutesKernelsInOrderWithOneCompletion) {
  Simulator sim;
  runtime::GpuRuntime rt(&sim, gpusim::DeviceSpec::V100_16GB());
  const auto stream = rt.CreateStream();
  std::vector<std::string> order;
  rt.device().set_kernel_trace_sink(
      [&](const gpusim::KernelExecRecord& rec) { order.push_back(rec.name.str()); });

  runtime::Op graph;
  graph.type = runtime::OpType::kGraphLaunch;
  graph.graph_kernels = {MakeKernel("g0", 50.0, 0.5, 0.2, 10),
                         MakeKernel("g1", 50.0, 0.2, 0.6, 10),
                         MakeKernel("g2", 50.0, 0.5, 0.2, 10)};
  int completions = 0;
  TimeUs done_at = 0.0;
  rt.Submit(graph, stream, [&]() {
    ++completions;
    done_at = sim.now();
  });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<std::string>{"g0", "g1", "g2"}));
  EXPECT_EQ(completions, 1);
  EXPECT_DOUBLE_EQ(done_at, 150.0);  // sequential on one stream
}

TEST(OpViewTest, KernelViewMatchesDescriptor) {
  const auto kernel = MakeKernel("k", 120.0, 0.8, 0.1, 24);
  runtime::Op op;
  op.type = runtime::OpType::kKernelLaunch;
  op.kernel = kernel;
  const auto view = core::ViewOf(op, nullptr, gpusim::DeviceSpec::V100_16GB());
  EXPECT_DOUBLE_EQ(view.duration_us, 120.0);
  EXPECT_EQ(view.profile, gpusim::ResourceProfile::kComputeBound);
  EXPECT_EQ(view.sm_needed, 24);
}

TEST(OpViewTest, GraphViewAggregates) {
  runtime::Op op;
  op.type = runtime::OpType::kGraphLaunch;
  op.graph_kernels = {MakeKernel("a", 100.0, 0.9, 0.1, 10),   // compute, 100us
                      MakeKernel("b", 300.0, 0.1, 0.9, 40),   // memory, 300us
                      MakeKernel("c", 50.0, 0.9, 0.1, 20)};   // compute, 50us
  const auto view = core::ViewOf(op, nullptr, gpusim::DeviceSpec::V100_16GB());
  EXPECT_DOUBLE_EQ(view.duration_us, 450.0);
  EXPECT_EQ(view.sm_needed, 40);  // max across the graph
  // Memory-bound time (300) dominates compute time (150).
  EXPECT_EQ(view.profile, gpusim::ResourceProfile::kMemoryBound);
}

TEST(OpViewTest, IsComputeOp) {
  runtime::Op op;
  op.type = runtime::OpType::kKernelLaunch;
  EXPECT_TRUE(core::IsComputeOp(op));
  op.type = runtime::OpType::kGraphLaunch;
  EXPECT_TRUE(core::IsComputeOp(op));
  op.type = runtime::OpType::kMemcpyH2D;
  EXPECT_FALSE(core::IsComputeOp(op));
  op.type = runtime::OpType::kMalloc;
  EXPECT_FALSE(core::IsComputeOp(op));
}

TEST(GraphCaptureTest, DriverGroupsKernelsIntoGraphs) {
  // Run the same workload with and without graphs and compare op-level
  // behaviour indirectly: graphs must cut host submission work (fewer ops x
  // overhead) so a host-bound dedicated run speeds up.
  harness::ExperimentConfig config;
  config.scheduler = harness::SchedulerKind::kDedicated;
  config.warmup_us = SecToUs(0.2);
  config.duration_us = SecToUs(2.0);
  config.launch_overhead_us = 60.0;  // strongly host-bound
  harness::ClientConfig client;
  client.workload = workloads::MakeWorkload(workloads::ModelId::kMobileNetV2,
                                            workloads::TaskType::kInference);
  client.high_priority = true;
  config.clients = {client};

  const auto eager = harness::RunExperiment(config);
  config.clients[0].use_cuda_graphs = true;
  const auto graphed = harness::RunExperiment(config);
  // A host-bound job gets dramatically faster once launches are captured.
  EXPECT_LT(graphed.hp().latency.p50(), 0.6 * eager.hp().latency.p50());
}

TEST(GraphCaptureTest, GraphsCostSchedulingGranularity) {
  // Under Orion, a best-effort trainer submitting 32-kernel graphs forces
  // the policy to gate whole graphs: non-preemptible multi-hundred-µs blobs
  // land on the device whenever the hp job goes idle, so the hp tail
  // latency degrades relative to kernel-level interception.
  harness::ExperimentConfig config;
  config.scheduler = harness::SchedulerKind::kOrion;
  config.warmup_us = SecToUs(0.3);
  config.duration_us = SecToUs(4.0);
  harness::ClientConfig hp;
  hp.workload =
      workloads::MakeWorkload(workloads::ModelId::kResNet50, workloads::TaskType::kInference);
  hp.high_priority = true;
  hp.arrivals = trace::ArrivalKind::kPoisson;
  hp.rps = 15.0;
  harness::ClientConfig be;
  be.workload =
      workloads::MakeWorkload(workloads::ModelId::kResNet50, workloads::TaskType::kTraining);
  config.clients = {hp, be};

  const auto kernel_level = harness::RunExperiment(config);
  config.clients[1].use_cuda_graphs = true;
  const auto graph_level = harness::RunExperiment(config);

  auto be_of = [](const harness::ExperimentResult& r) {
    double total = 0.0;
    for (const auto& c : r.clients) {
      if (!c.high_priority) {
        total += c.throughput_rps;
      }
    }
    return total;
  };
  EXPECT_GT(be_of(kernel_level), 0.0);
  EXPECT_GT(be_of(graph_level), 0.0);
  // Granularity loss: the hp tail is strictly worse under graph-level
  // interception (the best-effort job may even speed up — it ships coarse
  // blobs the policy can no longer throttle precisely).
  EXPECT_GT(graph_level.hp().latency.p99(), kernel_level.hp().latency.p99());
}

TEST(GraphLaunchDeathTest, EmptyGraphRejected) {
  Simulator sim;
  runtime::GpuRuntime rt(&sim, gpusim::DeviceSpec::V100_16GB());
  const auto stream = rt.CreateStream();
  runtime::Op graph;
  graph.type = runtime::OpType::kGraphLaunch;
  EXPECT_DEATH(rt.Submit(graph, stream, nullptr), "empty CUDA graph");
}

}  // namespace
}  // namespace orion
