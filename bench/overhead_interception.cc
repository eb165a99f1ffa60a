// §6.5 overheads.
//
// Part 1 (virtual time): end-to-end latency of every workload on a dedicated
// GPU submitted directly vs through Orion's interception + scheduler path
// with no best-effort clients. The paper reports <1% overhead; in the
// simulator the scheduling decisions add no device time, so the delta shows
// the policy itself does not reorder/stall a lone high-priority job.
//
// Part 2 (wall clock, google-benchmark): cost of the hot host-side paths —
// simulator event dispatch, device kernel launch/complete cycle, and the
// Orion Enqueue decision — the code the real system runs per intercepted
// CUDA call.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench/bench_util.h"
#include "src/core/orion_scheduler.h"
#include "src/profiler/profiler.h"

using namespace orion;

namespace {

void PrintInterceptionOverheadTable() {
  bench::PrintHeader("Overheads (Section 6.5)", "kernel-launch interception");
  Table table({"workload", "direct_ms", "intercepted_ms", "overhead_%"});
  for (auto model : bench::AllModels()) {
    for (auto task : {workloads::TaskType::kInference, workloads::TaskType::kTraining}) {
      const auto workload = workloads::MakeWorkload(model, task);

      harness::ExperimentConfig config;
      config.warmup_us = SecToUs(0.5);
      config.duration_us = SecToUs(5.0);
      harness::ClientConfig client;
      client.workload = workload;
      client.high_priority = true;
      client.arrivals = trace::ArrivalKind::kClosedLoop;
      config.clients = {client};

      config.scheduler = harness::SchedulerKind::kDedicated;
      const auto direct = harness::RunExperiment(config);
      config.scheduler = harness::SchedulerKind::kOrion;
      const auto intercepted = harness::RunExperiment(config);

      const double d = direct.hp().latency.p50();
      const double i = intercepted.hp().latency.p50();
      table.AddRow({workloads::WorkloadName(workload), Cell(UsToMs(d), 3),
                    Cell(UsToMs(i), 3), Cell(100.0 * (i - d) / d, 2)});
    }
  }
  table.Print(std::cout);
  std::cout << "\n(paper: <1% across all jobs)\n\n";
}

void BM_SimulatorEventDispatch(benchmark::State& state) {
  Simulator sim;
  for (auto _ : state) {
    sim.ScheduleAfter(1.0, []() {});
    sim.RunUntilIdle();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorEventDispatch);

void BM_DeviceKernelCycle(benchmark::State& state) {
  Simulator sim;
  gpusim::Device device(&sim, gpusim::DeviceSpec::V100_16GB());
  const auto stream = device.CreateStream();
  gpusim::KernelDesc kernel;
  kernel.name = "bench";
  kernel.duration_us = 10.0;
  kernel.compute_util = 0.5;
  kernel.membw_util = 0.2;
  kernel.geometry = {40, 1024, 64, 0};
  kernel.sm_needed = gpusim::SmsNeeded(gpusim::DeviceSpec::V100_16GB(), kernel.geometry);
  for (auto _ : state) {
    device.LaunchKernel(stream, kernel);
    sim.RunUntilIdle();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DeviceKernelCycle);

void BM_OrionEnqueueDecision(benchmark::State& state) {
  Simulator sim;
  runtime::GpuRuntime rt(&sim, gpusim::DeviceSpec::V100_16GB());
  profiler::WorkloadProfile profile;
  profile.request_latency_us = 10000.0;
  profile.RebuildIndex();
  core::OrionScheduler scheduler{core::OrionOptions{}};
  core::SchedClientInfo hp;
  hp.id = 0;
  hp.high_priority = true;
  hp.profile = &profile;
  core::SchedClientInfo be;
  be.id = 1;
  be.profile = &profile;
  scheduler.Attach(&sim, &rt, {hp, be});
  gpusim::KernelDesc kernel;
  kernel.name = "bench";
  kernel.duration_us = 10.0;
  kernel.compute_util = 0.2;
  kernel.membw_util = 0.7;
  kernel.geometry = {10, 1024, 64, 0};
  kernel.sm_needed = gpusim::SmsNeeded(gpusim::DeviceSpec::V100_16GB(), kernel.geometry);
  for (auto _ : state) {
    core::SchedOp op;
    op.op.type = runtime::OpType::kKernelLaunch;
    op.op.kernel = kernel;
    scheduler.Enqueue(1, std::move(op));
    sim.RunUntilIdle();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OrionEnqueueDecision);

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(&argc, argv);
  PrintInterceptionOverheadTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
