// §6.4 sensitivity study: DUR_THRESHOLD sweep for ResNet101 inference
// (high-priority, Poisson) collocated with best-effort training.
//
// Paper shape: stable hp latency for thresholds <= ~3%; beyond that, hp
// latency grows roughly linearly while best-effort training throughput
// rises (less throttling). Paper quotes 23/26/30 ms inference latency and
// 8.7/9.26/9.75 it/s at 10%/15%/20%.
#include <iostream>

#include "bench/bench_util.h"

using namespace orion;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  bench::PrintHeader("Sensitivity (Section 6.4)", "DUR_THRESHOLD sweep");

  const harness::ClientConfig hp = bench::InferenceClient(
      workloads::ModelId::kResNet101, trace::ArrivalKind::kPoisson,
      trace::RequestsPerSecond(workloads::ModelId::kResNet101,
                               trace::CollocationCase::kInfTrainPoisson),
      true);
  const harness::ClientConfig be =
      bench::TrainingClient(workloads::ModelId::kResNet50, false);

  const auto ideal = bench::RunPair(hp, be, harness::SchedulerKind::kDedicated);

  Table table({"dur_threshold_%", "hp_p99_ms", "p99_vs_ideal", "be_it/s"});
  for (double pct : {1.0, 2.5, 5.0, 10.0, 15.0, 20.0}) {
    harness::ExperimentConfig config;
    config.seed = bench::GlobalBenchArgs().seed;
    config.scheduler = harness::SchedulerKind::kOrion;
    config.orion.dur_threshold_frac = pct / 100.0;
    config.warmup_us = bench::WarmupWindowUs();
    config.duration_us = bench::MeasureWindowUs();
    config.clients = {hp, be};
    const auto result = harness::RunExperiment(config);
    table.AddRow({Cell(pct, 1), Cell(UsToMs(result.hp().latency.p99()), 2),
                  Cell(result.hp().latency.p99() / ideal.hp().latency.p99(), 2),
                  Cell(bench::BeThroughput(result), 2)});
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: flat hp latency below ~3%, then a roughly linear\n"
               "latency/throughput trade as the throttle loosens (paper §6.4).\n";
  return 0;
}
