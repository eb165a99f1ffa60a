// Heap allocations on the per-kernel path, counted by replacing the global
// operator new of this executable (so it is its own test binary).
//
//   * Bare device: once one request of the fig06 ResNet50 inference/training
//     pair has warmed the buffers, 16 more requests launch, run and retire
//     every kernel without allocating.
//   * Full runs: one fig06 RunExperiment pair under each collocation
//     scheduler at two window lengths, differenced into allocations per
//     added kernel, which must be zero up to the logarithmic growth of the
//     latency-sample vectors, so a new per-kernel allocation fails here
//     instead of showing up as bench wall clock; the same under Streams
//     with CUDA-graph capture on.
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

// Heap allocations of one warm run of `config`, and the kernels of the
// requests and iterations it completed (one still in flight at the horizon
// is not counted).
struct PairRun {
  std::size_t allocations = 0;
  std::size_t kernels = 0;
};

PairRun MeasurePair(const harness::ExperimentConfig& config) {
  const gpusim::DeviceSpec spec = gpusim::DeviceSpec::V100_16GB();
  harness::RunExperiment(config);  // fills the process-wide memos
  const std::size_t before = Allocations();
  const harness::ExperimentResult result = harness::RunExperiment(config);
  PairRun run;
  run.allocations = Allocations() - before;
  for (std::size_t c = 0; c < result.clients.size(); ++c) {
    run.kernels += result.clients[c].completed_total *
                   workloads::BuildKernels(spec, config.clients[c].workload).size();
  }
  return run;
}

// Allocations per *added* kernel: the pair at the --quick window and at
// twice that, differenced, so one-time set-up (the scheduler, the device,
// the drivers, telemetry counters) cancels and only what grows with the
// kernel count is left. Every queue and completion callback on the path
// reuses its storage, so that is nothing: the longer run allocates only the
// geometric regrowths of the latency-sample vectors (three recorders per
// client, each regrowing once or twice when its sample count doubles), a
// handful against the ~13k kernels the second window adds.
void ExpectWindowDoublingAddsNoAllocations(const harness::ExperimentConfig& shorter,
                                           const char* label) {
  constexpr std::size_t kSampleVectorRegrowths = 2 * 3 * 2;  // per recorder, per client
  harness::ExperimentConfig longer = shorter;
  longer.duration_us *= 2.0;
  const PairRun a = MeasurePair(shorter);
  const PairRun b = MeasurePair(longer);
  ASSERT_GT(b.kernels, a.kernels) << label;
  const std::size_t added_kernels = b.kernels - a.kernels;
  const double per_added =
      (static_cast<double>(b.allocations) - static_cast<double>(a.allocations)) /
      static_cast<double>(added_kernels);
  std::printf("fig06 pair %-14s %6zu allocations over %6zu kernels, %6zu over %6zu "
              "(%.4f per added kernel)\n",
              label, a.allocations, a.kernels, b.allocations, b.kernels, per_added);
  EXPECT_LE(b.allocations, a.allocations + kSampleVectorRegrowths) << label;
}

TEST(AllocTest, Fig06PairAllocationsPerKernel) {
  const harness::SchedulerKind schedulers[] = {
      harness::SchedulerKind::kDedicated, harness::SchedulerKind::kTemporal,
      harness::SchedulerKind::kStreams,   harness::SchedulerKind::kMps,
      harness::SchedulerKind::kReef,      harness::SchedulerKind::kOrion,
  };
  for (const harness::SchedulerKind scheduler : schedulers) {
    ExpectWindowDoublingAddsNoAllocations(Fig06Pair(scheduler),
                                          harness::SchedulerKindName(scheduler));
  }
}

// The pair under Streams with both clients submitting captured CUDA graphs:
// a graph op views its kernels in the shared request template, so a graph
// submission copies no kernel list.
TEST(AllocTest, Fig06GraphPairAllocationsPerKernel) {
  harness::ExperimentConfig config = Fig06Pair(harness::SchedulerKind::kStreams);
  for (harness::ClientConfig& client : config.clients) {
    client.use_cuda_graphs = true;
  }
  ExpectWindowDoublingAddsNoAllocations(config, "streams+graphs");
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
  // Measured: 0.437 per request, rounded up to the next hundredth. What is
  // left is set-up (about 490 allocations per run) and the latency-sample
  // vectors' growth; the replica batchers' rings, routing and the network
  // legs allocate nothing once warm.
  EXPECT_LE(per_request, 0.44);
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
