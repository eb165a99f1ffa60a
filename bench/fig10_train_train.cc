// Figure 10: training-training collocation — average throughput of the
// high-priority (bold) and best-effort (faint) training jobs under each
// technique, plus the §6.2.2 makespan/cost study.
//
// Paper shape: MPS/Streams lose ~1.7x of hp throughput to interference;
// Tick-Tock is worst (barrier synchronisation, 1.93x); REEF protects hp
// (within 8%) but starves the best-effort job; Orion keeps hp within ~16%
// of ideal while the best-effort job progresses, reducing makespan ~1.29x.
#include <iostream>
#include <utility>
#include <vector>

#include "bench/bench_util.h"

using namespace orion;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  bench::PrintHeader("Figure 10", "training-training collocation throughput");

  using workloads::ModelId;
  struct PairSpec {
    ModelId hp, be;
  };
  const PairSpec pairs[] = {
      {ModelId::kResNet50, ModelId::kMobileNetV2},
      {ModelId::kResNet101, ModelId::kTransformer},
      {ModelId::kBert, ModelId::kMobileNetV2},
      {ModelId::kMobileNetV2, ModelId::kResNet50},
      {ModelId::kTransformer, ModelId::kBert},
  };
  // The dedicated run comes first: it is every row's ideal.
  const harness::SchedulerKind schedulers[] = {
      harness::SchedulerKind::kDedicated, harness::SchedulerKind::kStreams,
      harness::SchedulerKind::kMps,       harness::SchedulerKind::kTickTock,
      harness::SchedulerKind::kReef,      harness::SchedulerKind::kOrion,
  };
  constexpr std::size_t kMpsRow = 2;
  constexpr std::size_t kOrionRow = 5;

  // Per-scheduler aggregates across pairs (normalised to dedicated).
  OnlineStats hp_norm[6];
  OnlineStats be_norm[6];
  // The first pair's runs, one per scheduler, which the makespan study reads.
  std::vector<harness::ExperimentResult> first_pair;

  for (const PairSpec& pair : pairs) {
    const auto hp = bench::TrainingClient(pair.hp, true);
    const auto be = bench::TrainingClient(pair.be, false);

    // Per §5.1.1, SM_THRESHOLD is tuned when the hp job is training.
    const core::OrionOptions orion_options = bench::OrionOptionsFor(hp, be);
    std::cout << "-- hp: " << workloads::WorkloadName(hp.workload)
              << "  be: " << workloads::WorkloadName(be.workload)
              << "  (orion SM_THRESHOLD tuned to " << orion_options.sm_threshold << ")\n";
    std::vector<harness::ExperimentResult> results;
    for (const harness::SchedulerKind scheduler : schedulers) {
      results.push_back(
          bench::RunPair(hp, be, scheduler, gpusim::DeviceSpec::V100_16GB(), orion_options));
    }
    const double hp_ideal = results[0].hp().throughput_rps;
    const double be_ideal = bench::BeThroughput(results[0]);
    Table table({"technique", "hp_it/s", "hp_vs_ideal", "be_it/s", "be_vs_ideal"});
    for (std::size_t s = 0; s < std::size(schedulers); ++s) {
      const harness::ExperimentResult& result = results[s];
      const double hp_tput = result.hp().throughput_rps;
      const double be_tput = bench::BeThroughput(result);
      const double hpn = hp_ideal > 0 ? hp_tput / hp_ideal : 0;
      const double ben = be_ideal > 0 ? be_tput / be_ideal : 0;
      hp_norm[s].Add(hpn);
      be_norm[s].Add(ben);
      table.AddRow({harness::SchedulerKindName(schedulers[s]), Cell(hp_tput, 2),
                    Cell(hpn, 2), Cell(be_tput, 2), Cell(ben, 2)});
    }
    table.Print(std::cout);
    std::cout << "\n";
    if (first_pair.empty()) {
      first_pair = std::move(results);
    }
  }

  std::cout << "-- summary across pairs (fraction of dedicated-GPU throughput)\n";
  Table summary({"technique", "hp_mean", "be_mean"});
  for (std::size_t s = 0; s < std::size(schedulers); ++s) {
    summary.AddRow({harness::SchedulerKindName(schedulers[s]), Cell(hp_norm[s].mean(), 2),
                    Cell(be_norm[s].mean(), 2)});
  }
  summary.Print(std::cout);

  // Makespan study (§6.2.2): complete N iterations of each job in a pair on
  // one GPU. Sequential = run them one after the other at dedicated speed;
  // collocated = run together until the slower one finishes, then the
  // remainder at dedicated speed. Uses the first pair's throughputs above.
  std::cout << "\n-- makespan: 1000 iterations each, hp=resnet50-train be=mobilenetv2-train\n";
  {
    const harness::ExperimentResult& ideal = first_pair[0];
    const harness::ExperimentResult& orion = first_pair[kOrionRow];
    const harness::ExperimentResult& mps = first_pair[kMpsRow];
    constexpr double kIters = 1000.0;
    const double t_seq =
        kIters / ideal.hp().throughput_rps + kIters / bench::BeThroughput(ideal);
    auto collocated_makespan = [&](const harness::ExperimentResult& r,
                                   const harness::ExperimentResult& ded) {
      const double t_hp = kIters / r.hp().throughput_rps;
      const double t_be = kIters / bench::BeThroughput(r);
      if (t_hp >= t_be) {
        // be finishes first; hp continues alone at dedicated speed.
        const double done = t_be * r.hp().throughput_rps;
        return t_be + (kIters - done) / ded.hp().throughput_rps;
      }
      const double done = t_hp * bench::BeThroughput(r);
      return t_hp + (kIters - done) / bench::BeThroughput(ded);
    };
    const double t_orion = collocated_makespan(orion, ideal);
    const double t_mps = collocated_makespan(mps, ideal);
    Table table({"schedule", "makespan_s", "savings_vs_sequential"});
    table.AddRow({"sequential (1 GPU)", Cell(t_seq, 1), Cell(1.0, 2)});
    table.AddRow({"mps (1 GPU)", Cell(t_mps, 1), Cell(t_seq / t_mps, 2)});
    table.AddRow({"orion (1 GPU)", Cell(t_orion, 1), Cell(t_seq / t_orion, 2)});
    table.Print(std::cout);
    std::cout << "(paper: Orion reduces makespan/cost ~1.29x, MPS only ~1.14x)\n";
  }
  return 0;
}
