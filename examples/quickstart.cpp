// Quickstart: profile a workload, collocate it with a best-effort job under
// Orion, and compare against dedicated-GPU execution.
//
// This walks the full public API surface in ~80 lines:
//   1. pick a device (simulated V100),
//   2. run the offline profiling phase for a workload,
//   3. describe a collocation (one high-priority inference client, one
//      best-effort training client),
//   4. run it under the Orion scheduler and under the Ideal (dedicated GPU)
//      baseline, and print latency/throughput.

#include <iostream>

#include "src/harness/experiment.h"
#include "src/trace/request_rates.h"

using orion::gpusim::DeviceSpec;
using orion::harness::ClientConfig;
using orion::harness::ExperimentConfig;
using orion::harness::ExperimentResult;
using orion::harness::RunExperiment;
using orion::harness::SchedulerKind;
using orion::workloads::MakeWorkload;
using orion::workloads::ModelId;
using orion::workloads::TaskType;

namespace {

void PrintResult(const ExperimentResult& result) {
  std::cout << "scheduler: " << result.scheduler_name << "\n";
  for (const auto& client : result.clients) {
    std::cout << "  " << client.name << ": " << client.completed << " requests, "
              << client.throughput_rps << " req/s";
    if (!client.latency.empty()) {
      std::cout << ", p50 " << orion::UsToMs(client.latency.p50()) << " ms"
                << ", p99 " << orion::UsToMs(client.latency.p99()) << " ms";
    }
    std::cout << "\n";
  }
  std::cout << "  GPU: compute " << 100.0 * result.utilization.compute << "%, membw "
            << 100.0 * result.utilization.membw << "%, SMs busy "
            << 100.0 * result.utilization.sm_busy << "%\n";
}

}  // namespace

int main() {
  // 1. Device.
  const DeviceSpec device = DeviceSpec::V100_16GB();

  // 2. Offline profile (the scheduler also does this internally; shown here
  //    to illustrate the API).
  const auto workload = MakeWorkload(ModelId::kResNet50, TaskType::kInference);
  const auto profile = orion::profiler::ProfileWorkload(device, workload);
  std::cout << "profiled " << profile.workload_name << ": " << profile.kernels.size()
            << " kernels, run-alone latency " << orion::UsToMs(profile.request_latency_us)
            << " ms\n\n";

  // 3. Collocation: high-priority ResNet50 inference (Poisson arrivals) with
  //    best-effort ResNet50 training (closed loop).
  ExperimentConfig config;
  config.device = device;
  config.duration_us = orion::SecToUs(10.0);

  ClientConfig hp;
  hp.workload = workload;
  hp.high_priority = true;
  hp.arrivals = orion::trace::ArrivalKind::kPoisson;
  hp.rps = orion::trace::RequestsPerSecond(ModelId::kResNet50,
                                           orion::trace::CollocationCase::kInfTrainPoisson);

  ClientConfig be;
  be.workload = MakeWorkload(ModelId::kResNet50, TaskType::kTraining);
  be.high_priority = false;
  be.arrivals = orion::trace::ArrivalKind::kClosedLoop;

  config.clients = {hp, be};

  // 4a. Orion.
  config.scheduler = SchedulerKind::kOrion;
  PrintResult(RunExperiment(config));
  std::cout << "\n";

  // 4b. Ideal: each job on its own dedicated GPU.
  config.scheduler = SchedulerKind::kDedicated;
  PrintResult(RunExperiment(config));
  return 0;
}
