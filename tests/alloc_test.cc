// Heap allocations on the per-kernel path, counted by replacing the global
// operator new of this executable (so it is its own test binary).
//
//   * Bare device: once one request of the fig06 ResNet50 inference/training
//     pair has warmed the buffers, 16 more requests launch, run and retire
//     every kernel without allocating.
//   * Full runs: one fig06 RunExperiment pair under each collocation
//     scheduler, printed as allocations per kernel and bounded at the
//     measured value rounded up to the next hundredth, so a new per-kernel
//     allocation fails here instead of showing up as bench wall clock.
//   * Datacenter: a warm 4-node x 2-GPU RunCluster with the network on,
//     printed and bounded the same way per offered request; and a warm
//     fabric, whose transfers start and complete without allocating.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/datacenter/cluster.h"
#include "src/gpusim/device.h"
#include "src/harness/experiment.h"
#include "src/interconnect/fabric.h"
#include "src/sim/simulator.h"
#include "src/trace/request_rates.h"
#include "src/workloads/models.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace orion {
namespace {

using workloads::MakeWorkload;
using workloads::ModelId;
using workloads::TaskType;

std::size_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

TEST(AllocTest, BareDeviceSteadyStateAllocatesNothing) {
  const gpusim::DeviceSpec spec = gpusim::DeviceSpec::V100_16GB();
  const std::vector<gpusim::KernelDesc> hp_kernels =
      workloads::BuildKernels(spec, MakeWorkload(ModelId::kResNet50, TaskType::kInference));
  const std::vector<gpusim::KernelDesc> be_kernels =
      workloads::BuildKernels(spec, MakeWorkload(ModelId::kResNet50, TaskType::kTraining));
  Simulator sim;
  gpusim::Device device(&sim, spec);
  const gpusim::StreamId high = device.CreateStream(gpusim::kPriorityHigh);
  const gpusim::StreamId low = device.CreateStream(gpusim::kPriorityDefault);
  auto request = [&]() {
    for (const gpusim::KernelDesc& kernel : hp_kernels) {
      device.LaunchKernel(high, kernel);
    }
    for (const gpusim::KernelDesc& kernel : be_kernels) {
      device.LaunchKernel(low, kernel);
    }
    sim.RunUntilIdle();
  };
  request();  // warm-up: grows the queues, the event pool and the scratch

  constexpr int kRequests = 16;
  std::size_t allocations = 0;
  for (int r = 0; r < kRequests; ++r) {
    const std::size_t before = Allocations();
    request();
    const std::size_t made = Allocations() - before;
    EXPECT_EQ(made, 0u) << "request " << r;
    allocations += made;
  }
  const std::size_t kernels = kRequests * (hp_kernels.size() + be_kernels.size());
  ASSERT_EQ(device.kernels_completed(), kernels + hp_kernels.size() + be_kernels.size());
  std::printf("bare device: %zu allocations over %zu kernels\n", allocations, kernels);
}

// The fig06 pair: Apollo-arrival ResNet50 inference at its inf-train rate
// (high priority) next to closed-loop ResNet50 training, --quick windows.
harness::ExperimentConfig Fig06Pair(harness::SchedulerKind scheduler) {
  harness::ExperimentConfig config;
  config.scheduler = scheduler;
  config.warmup_us = SecToUs(0.25);
  config.duration_us = SecToUs(1.875);
  harness::ClientConfig hp;
  hp.workload = MakeWorkload(ModelId::kResNet50, TaskType::kInference);
  hp.high_priority = true;
  hp.arrivals = trace::ArrivalKind::kApollo;
  hp.rps = trace::RequestsPerSecond(ModelId::kResNet50, trace::CollocationCase::kInfTrainPoisson);
  harness::ClientConfig be;
  be.workload = MakeWorkload(ModelId::kResNet50, TaskType::kTraining);
  be.arrivals = trace::ArrivalKind::kClosedLoop;
  config.clients = {hp, be};
  return config;
}

struct SchedulerBound {
  harness::SchedulerKind scheduler;
  double max_per_kernel;  // measured, rounded up to the next hundredth
};

TEST(AllocTest, Fig06PairAllocationsPerKernel) {
  const gpusim::DeviceSpec spec = gpusim::DeviceSpec::V100_16GB();
  std::vector<std::size_t> kernels_per_request;
  for (const harness::ClientConfig& client : Fig06Pair(harness::SchedulerKind::kOrion).clients) {
    kernels_per_request.push_back(workloads::BuildKernels(spec, client.workload).size());
  }
  // Measured: 0.151, 0.646, 0.231, 0.231, 1.471 and 1.510 per kernel. What
  // is left sits above the device: scheduler queues and completion
  // callbacks whose captures outgrow std::function's inline buffer.
  const SchedulerBound bounds[] = {
      {harness::SchedulerKind::kDedicated, 0.16}, {harness::SchedulerKind::kTemporal, 0.65},
      {harness::SchedulerKind::kStreams, 0.24},   {harness::SchedulerKind::kMps, 0.24},
      {harness::SchedulerKind::kReef, 1.48},      {harness::SchedulerKind::kOrion, 1.52},
  };
  for (const SchedulerBound& bound : bounds) {
    const harness::ExperimentConfig config = Fig06Pair(bound.scheduler);
    harness::RunExperiment(config);  // fills the process-wide profile memo
    const std::size_t before = Allocations();
    const harness::ExperimentResult result = harness::RunExperiment(config);
    const std::size_t allocations = Allocations() - before;
    // Kernels of completed requests and iterations (a request still in
    // flight at the horizon is not counted).
    std::size_t kernels = 0;
    for (std::size_t c = 0; c < result.clients.size(); ++c) {
      kernels += result.clients[c].completed_total * kernels_per_request[c];
    }
    ASSERT_GT(kernels, 0u);
    const double per_kernel = static_cast<double>(allocations) / static_cast<double>(kernels);
    std::printf("fig06 pair %-9s %9zu allocations over %8zu kernels (%.3f per kernel)\n",
                harness::SchedulerKindName(bound.scheduler), allocations, kernels, per_kernel);
    EXPECT_LE(per_kernel, bound.max_per_kernel) << harness::SchedulerKindName(bound.scheduler);
  }
}

// perf_sim_core's cluster_serving shape: ResNet50 inference at 180 rps per
// node on 4 nodes x 2 GPUs, interference-aware routing, --quick windows.
datacenter::ClusterConfig ClusterQuick() {
  serving::ModelServiceConfig resnet;
  resnet.workload = MakeWorkload(ModelId::kResNet50, TaskType::kInference);
  resnet.tier = serving::PriorityTier::kLatencyCritical;
  resnet.slo_us = MsToUs(60.0);
  resnet.rps = 180.0 * 4;
  resnet.initial_replicas = 8;
  resnet.max_replicas = 10;
  datacenter::ClusterConfig config;
  config.cluster.num_nodes = 4;
  config.cluster.gpus_per_node = 2;
  config.serving.policy = serving::RoutePolicy::kInterferenceAware;
  config.serving.warmup_us = SecToUs(0.25);
  config.serving.duration_us = SecToUs(1.875);
  config.serving.models = {resnet};
  return config;
}

TEST(AllocTest, ClusterRequestPathAllocations) {
  const datacenter::ClusterConfig config = ClusterQuick();
  datacenter::RunCluster(config);  // warm-up
  const std::size_t before = Allocations();
  const datacenter::ClusterResult result = datacenter::RunCluster(config);
  const std::size_t allocations = Allocations() - before;
  ASSERT_GT(result.requests_forwarded, 0u);
  const std::size_t offered = result.serving.models[0].total_offered;
  ASSERT_GT(offered, 0u);
  const double per_request = static_cast<double>(allocations) / static_cast<double>(offered);
  std::printf("cluster 4x2: %zu allocations over %zu offered requests (%.3f per request)\n",
              allocations, offered, per_request);
  // Measured: 0.942 per request, rounded up to the next hundredth. What is
  // left is about 490 set-up allocations per run and the replica batchers'
  // std::deque blocks (two requests each, so 0.5 per request); routing and
  // the network legs allocate nothing.
  EXPECT_LE(per_request, 0.95);
}

TEST(AllocTest, FabricTransferAllocatesNothing) {
  Simulator sim;
  interconnect::Fabric fabric(&sim, interconnect::NodeTopology::NvLinkPairs(4));
  std::size_t completed = 0;
  // Peer (NVLink and root-complex bounce) and host legs, overlapping so they
  // share links and rebalance.
  auto round = [&]() {
    for (int src = 0; src < 4; ++src) {
      fabric.StartTransfer(src, (src + 1) % 4, 1 << 20, [&completed] { ++completed; });
      fabric.StartTransfer(interconnect::kHostNode, src, 1 << 18, [&completed] { ++completed; });
      fabric.StartTransfer(src, interconnect::kHostNode, 1 << 19, [&completed] { ++completed; });
    }
    sim.RunUntilIdle();
  };
  round();  // warm-up: grows the slab, the member index and the event pool
  constexpr int kRounds = 16;
  const std::size_t before = Allocations();
  for (int r = 0; r < kRounds; ++r) {
    round();
  }
  const std::size_t allocations = Allocations() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(completed, static_cast<std::size_t>((kRounds + 1) * 12));
}

}  // namespace
}  // namespace orion
