// Figure 2: motivational experiment — existing GPU collocation techniques
// leave performance on the table.
//
// Three job pairs whose aggregate requirements fit on one V100 (high-priority
// first, best-effort second), each client issuing one request at a time in a
// closed loop. For each sharing technique the stacked bars are the two jobs'
// throughputs, normalised to their dedicated-GPU (Ideal) throughput.
//
// Shape to reproduce: Temporal/MPS/Streams/Tick-Tock land far below ideal
// aggregate; REEF keeps hp high but starves the best-effort job; Orion gets
// close to ideal on both.
#include <iostream>

#include "bench/bench_util.h"

using namespace orion;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  bench::PrintHeader("Figure 2", "existing collocation techniques vs Orion (closed loop)");

  using workloads::ModelId;
  struct PairSpec {
    const char* name;
    harness::ClientConfig hp, be;
  };
  const PairSpec pairs[] = {
      {"rn50-inf + mnv2-train",
       bench::InferenceClient(ModelId::kResNet50, trace::ArrivalKind::kClosedLoop,
                              0.0, true),
       bench::TrainingClient(ModelId::kMobileNetV2, false)},
      {"rn101-train + bert-train", bench::TrainingClient(ModelId::kResNet101, true),
       bench::TrainingClient(ModelId::kBert, false)},
      {"transf-inf + rn50-train",
       bench::InferenceClient(ModelId::kTransformer,
                              trace::ArrivalKind::kClosedLoop, 0.0, true),
       bench::TrainingClient(ModelId::kResNet50, false)},
  };
  const harness::SchedulerKind schedulers[] = {
      harness::SchedulerKind::kDedicated, harness::SchedulerKind::kMig,
      harness::SchedulerKind::kTemporal,  harness::SchedulerKind::kStreams,
      harness::SchedulerKind::kMps,       harness::SchedulerKind::kTickTock,
      harness::SchedulerKind::kReef,      harness::SchedulerKind::kOrion,
  };

  for (const PairSpec& pair : pairs) {
    std::cout << "-- pair: " << pair.name << " (bold = high-priority job)\n";
    // Dedicated throughputs for normalisation.
    const auto ideal = bench::RunPair(pair.hp, pair.be, harness::SchedulerKind::kDedicated);
    const double hp_ideal = ideal.hp().throughput_rps;
    const double be_ideal = bench::BeThroughput(ideal);

    Table table({"technique", "hp_tput_rps", "hp_norm", "be_tput_rps", "be_norm",
                 "aggregate_norm"});
    for (const auto scheduler : schedulers) {
      // Tick-Tock only supports two training jobs.
      const bool hp_is_inference =
          pair.hp.workload.task == workloads::TaskType::kInference;
      if (scheduler == harness::SchedulerKind::kTickTock && hp_is_inference) {
        table.AddRow({harness::SchedulerKindName(scheduler), "-", "-", "-", "-",
                      "(train-train only)"});
        continue;
      }
      const core::OrionOptions orion_options =
          scheduler == harness::SchedulerKind::kOrion
              ? bench::OrionOptionsFor(pair.hp, pair.be)
              : core::OrionOptions{};
      const auto result = bench::RunPair(pair.hp, pair.be, scheduler,
                                         gpusim::DeviceSpec::V100_16GB(), orion_options);
      const double hp_tput = result.hp().throughput_rps;
      const double be_tput = bench::BeThroughput(result);
      const double hp_norm = hp_ideal > 0 ? hp_tput / hp_ideal : 0.0;
      const double be_norm = be_ideal > 0 ? be_tput / be_ideal : 0.0;
      table.AddRow({harness::SchedulerKindName(scheduler), Cell(hp_tput, 2),
                    Cell(hp_norm, 2), Cell(be_tput, 2), Cell(be_norm, 2),
                    Cell((hp_norm + be_norm) / 2.0, 2)});
    }
    table.Print(std::cout);
    std::cout << "\n";
  }
  return 0;
}
