// Heap allocations on the per-kernel path, counted by replacing the global
// operator new of this executable (so it is its own test binary).
//
//   * Bare device: once one request of the fig06 ResNet50 inference/training
//     pair has warmed the buffers, 16 more requests launch, run and retire
//     every kernel without allocating; the utilization sample log's
//     amortized growth is the only allocation left.
//   * Full runs: one fig06 RunExperiment pair under each collocation
//     scheduler, printed as allocations per kernel and bounded at the
//     measured value rounded up to the next tenth, so a new per-kernel
//     allocation fails here instead of showing up as bench wall clock.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/gpusim/device.h"
#include "src/harness/experiment.h"
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

  // The one growing structure is the utilization sample log, whose vector
  // doubles now and then (lazy utilization would remove it); a request may
  // allocate exactly once, and only if that log reallocated.
  constexpr int kRequests = 16;
  std::size_t allocations = 0;
  std::size_t log_reallocations = 0;
  for (int r = 0; r < kRequests; ++r) {
    const std::size_t capacity = device.utilization().samples().capacity();
    const std::size_t before = Allocations();
    request();
    const std::size_t made = Allocations() - before;
    const bool log_grew = device.utilization().samples().capacity() != capacity;
    EXPECT_EQ(made, log_grew ? 1u : 0u) << "request " << r;
    allocations += made;
    log_reallocations += log_grew ? 1 : 0;
  }
  const std::size_t kernels = kRequests * (hp_kernels.size() + be_kernels.size());
  ASSERT_EQ(device.kernels_completed(), kernels + hp_kernels.size() + be_kernels.size());
  std::printf(
      "bare device: %zu allocations over %zu kernels, %zu of them utilization-log "
      "reallocations (%.4f per kernel besides the log)\n",
      allocations, kernels, log_reallocations,
      static_cast<double>(allocations - log_reallocations) / static_cast<double>(kernels));
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
  double max_per_kernel;  // measured, rounded up to the next tenth
};

TEST(AllocTest, Fig06PairAllocationsPerKernel) {
  const gpusim::DeviceSpec spec = gpusim::DeviceSpec::V100_16GB();
  std::vector<std::size_t> kernels_per_request;
  for (const harness::ClientConfig& client : Fig06Pair(harness::SchedulerKind::kOrion).clients) {
    kernels_per_request.push_back(workloads::BuildKernels(spec, client.workload).size());
  }
  // Measured: 0.152, 0.647, 0.232, 0.232, 1.472 and 1.511 per kernel. What
  // is left sits above the device: scheduler queues and completion
  // callbacks whose captures outgrow std::function's inline buffer.
  const SchedulerBound bounds[] = {
      {harness::SchedulerKind::kDedicated, 0.2}, {harness::SchedulerKind::kTemporal, 0.7},
      {harness::SchedulerKind::kStreams, 0.3},   {harness::SchedulerKind::kMps, 0.3},
      {harness::SchedulerKind::kReef, 1.5},      {harness::SchedulerKind::kOrion, 1.6},
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

}  // namespace
}  // namespace orion
