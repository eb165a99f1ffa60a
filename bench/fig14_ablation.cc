// Figure 14: Orion policy breakdown — which policy ingredient contributes
// what, for the inf-train Poisson use case. The paper's ladder:
//   GPU Streams -> + stream priorities -> + compute/memory profiles ->
//   + kernel size (SM_THRESHOLD) -> Orion; and finally Orion minus stream
//   priorities (to show priorities become marginal once the policy is on,
//   so Orion also works where priorities are unavailable, e.g. MPS mode).
//
// We report p95 latency like the paper's figure.
#include <iostream>

#include "bench/bench_util.h"

using namespace orion;

namespace {

harness::ExperimentResult Run(harness::SchedulerKind kind, core::OrionOptions options) {
  const double rps = trace::RequestsPerSecond(workloads::ModelId::kResNet50,
                                              trace::CollocationCase::kInfTrainPoisson);
  return bench::RunPair(
      bench::InferenceClient(workloads::ModelId::kResNet50, trace::ArrivalKind::kPoisson, rps,
                             true),
      bench::TrainingClient(workloads::ModelId::kResNet50, false), kind,
      gpusim::DeviceSpec::V100_16GB(), options);
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  bench::PrintHeader("Figure 14", "Orion performance-analysis breakdown (inf-train Poisson)");

  struct Step {
    const char* name;
    harness::SchedulerKind kind;
    core::OrionOptions options;
  };
  auto orion_with = [](bool priorities, bool profiles, bool sm, bool dur) {
    core::OrionOptions options;
    options.use_stream_priorities = priorities;
    options.use_profile_check = profiles;
    options.use_sm_check = sm;
    options.use_dur_throttle = dur;
    return options;
  };
  const Step steps[] = {
      {"ideal (dedicated)", harness::SchedulerKind::kDedicated, {}},
      // Rung 1, like the paper: per-client streams, all default priority
      // (the §6.1 Streams baseline does use a high-priority stream; Fig 14
      // starts one step earlier). Modelled as Orion with every policy
      // ingredient off.
      {"gpu streams (no prio)", harness::SchedulerKind::kOrion,
       orion_with(false, false, false, false)},
      {"+ stream priorities", harness::SchedulerKind::kOrion,
       orion_with(true, false, false, false)},
      {"+ compute/mem profiles", harness::SchedulerKind::kOrion,
       orion_with(true, true, false, true)},
      {"+ kernel size (orion)", harness::SchedulerKind::kOrion,
       orion_with(true, true, true, true)},
      {"orion - stream priorities", harness::SchedulerKind::kOrion,
       orion_with(false, true, true, true)},
  };

  Table table({"configuration", "p95_ms", "p99_ms", "be_it/s"});
  for (const Step& step : steps) {
    const auto result = Run(step.kind, step.options);
    table.AddRow({step.name, Cell(UsToMs(result.hp().latency.p95()), 2),
                  Cell(UsToMs(result.hp().latency.p99()), 2),
                  Cell(bench::BeThroughput(result), 2)});
  }
  table.Print(std::cout);
  std::cout << "\nPaper shape: priorities help streams (~25% p95); profiles cut ~48% more;\n"
               "the SM-size rule up to ~54% more; removing priorities from full Orion\n"
               "changes little (so Orion works without hardware stream priorities).\n";
  return 0;
}
