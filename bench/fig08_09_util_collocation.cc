// Figures 8 and 9: GPU compute-throughput (Fig 8) and memory-bandwidth
// (Fig 9) utilization of a ResNet50 inference job running alone vs
// collocated (under Orion) with a ResNet50 training job. The inference job
// receives uniform arrivals at 100 rps.
//
// Paper numbers: Orion raises average compute utilization 7% -> 36%, memory
// bandwidth 10% -> 47%, SM utilization 11% -> 49%. The shape to reproduce:
// Orion fills the inference job's fine-grained idle gaps.
#include <iostream>

#include "bench/bench_util.h"

using namespace orion;

namespace {

harness::ExperimentResult Run(bool collocated, telemetry::Hub* hub = nullptr) {
  harness::ExperimentConfig config;
  config.seed = bench::GlobalBenchArgs().seed;
  config.warmup_us = bench::WarmupWindowUs();
  config.duration_us = bench::MeasureWindowUs();
  config.scheduler =
      collocated ? harness::SchedulerKind::kOrion : harness::SchedulerKind::kDedicated;
  config.telemetry = hub;
  config.clients.push_back(bench::InferenceClient(workloads::ModelId::kResNet50,
                                                  trace::ArrivalKind::kUniform,
                                                  100.0, true));
  if (collocated) {
    config.clients.push_back(bench::TrainingClient(workloads::ModelId::kResNet50, false));
  }
  return harness::RunExperiment(config);
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv, bench::kTraceOut | bench::kMetricsOut);
  bench::PrintHeader("Figures 8-9",
                     "ResNet50 inference utilization: alone vs collocated with training");

  const auto alone = Run(false);
  const auto collocated = Run(true);

  Table table({"metric", "alone_%", "collocated_%", "paper_alone_%", "paper_coll_%"});
  table.AddRow({"compute throughput", Cell(100.0 * alone.utilization.compute, 1),
                Cell(100.0 * collocated.utilization.compute, 1), "7", "36"});
  table.AddRow({"memory bandwidth", Cell(100.0 * alone.utilization.membw, 1),
                Cell(100.0 * collocated.utilization.membw, 1), "10", "47"});
  table.AddRow({"SM utilization", Cell(100.0 * alone.utilization.sm_busy, 1),
                Cell(100.0 * collocated.utilization.sm_busy, 1), "11", "49"});
  table.Print(std::cout);

  std::cout << "\nhigh-priority inference under collocation: p99 "
            << Cell(UsToMs(collocated.hp().latency.p99()), 2) << " ms vs alone "
            << Cell(UsToMs(alone.hp().latency.p99()), 2) << " ms; best-effort training at "
            << Cell(bench::BeThroughput(collocated), 2) << " iters/s\n";

  // Instrumented arm (only with --trace-out / --metrics-out): re-run the
  // collocated configuration with a telemetry hub. The trace shows the kernel
  // timeline alongside the Orion scheduler's decision markers; the CSV holds
  // the "orion.*" scheduler counters and "harness.*" per-client metrics.
  if (bench::TelemetryRequested()) {
    std::cout << "\n-- Telemetry arm: instrumented collocated run --\n";
    telemetry::Hub hub;
    bench::EnableRequestedTelemetry(hub);
    const auto traced = Run(true, &hub);
    std::cout << "hp completed: " << traced.hp().completed
              << "  be kernels submitted: "
              << hub.metrics().CounterValue("orion.be_kernels_submitted") << "\n";
    bench::ExportTelemetry(hub);
  }
  return 0;
}
