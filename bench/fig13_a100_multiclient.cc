// Figure 13: generalisation to a new GPU and more clients — five inference
// jobs (one high-priority + four best-effort, all Poisson) sharing an
// A100-40GB. Compared: MPS, REEF, Orion (the paper omits temporal/streams
// here because their tail latency is orders of magnitude worse).
//
// Paper shape: MPS ~2.2x ideal p99, REEF ~1.21x, Orion within ~9%.
#include <iostream>

#include "bench/bench_util.h"

using namespace orion;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  bench::PrintHeader("Figure 13", "five inference clients on an A100-40GB");

  const gpusim::DeviceSpec device = gpusim::DeviceSpec::A100_40GB();
  const harness::SchedulerKind schedulers[] = {
      harness::SchedulerKind::kDedicated,
      harness::SchedulerKind::kMps,
      harness::SchedulerKind::kReef,
      harness::SchedulerKind::kOrion,
  };

  for (auto hp_model : workloads::kAllModels) {
    // The four best-effort clients serve the other four models.
    harness::ExperimentConfig config;
    config.seed = bench::GlobalBenchArgs().seed;
    config.device = device;
    config.warmup_us = bench::WarmupWindowUs();
    config.duration_us = bench::MeasureWindowUs();
    config.clients.push_back(bench::InferenceClient(
        hp_model, trace::ArrivalKind::kPoisson,
        trace::RequestsPerSecond(hp_model, trace::CollocationCase::kInfInfPoisson), true));
    for (auto be_model : workloads::kAllModels) {
      if (be_model == hp_model) {
        continue;
      }
      config.clients.push_back(bench::InferenceClient(
          be_model, trace::ArrivalKind::kPoisson,
          trace::RequestsPerSecond(be_model, trace::CollocationCase::kInfInfPoisson), false));
    }

    std::cout << "-- high-priority: "
              << workloads::WorkloadName(config.clients.front().workload)
              << " + 4 best-effort inference clients\n";
    Table table({"technique", "hp_p99_ms", "p99_vs_ideal", "hp_tput_rps", "be_tput_sum"});
    double ideal_p99 = 0.0;
    for (const auto scheduler : schedulers) {
      config.scheduler = scheduler;
      const auto result = harness::RunExperiment(config);
      const double p99 = UsToMs(result.hp().latency.p99());
      if (scheduler == harness::SchedulerKind::kDedicated) {
        ideal_p99 = p99;
      }
      table.AddRow({harness::SchedulerKindName(scheduler), Cell(p99, 2),
                    Cell(ideal_p99 > 0 ? p99 / ideal_p99 : 0.0, 2),
                    Cell(result.hp().throughput_rps, 1), Cell(bench::BeThroughput(result), 1)});
    }
    table.Print(std::cout);
    std::cout << "\n";
  }
  return 0;
}
