// Shared driver for the inf-train (Figures 6-7) and inf-inf (Figures 11-12)
// collocation matrices: every high-priority model is collocated with every
// partner workload under every sharing technique; we report the p99 latency
// of the high-priority job (mean and spread across partners, like the
// paper's error bars), the throughput split and the artefact's ACCEPTANCE
// line.
#ifndef BENCH_COLLOCATION_BENCH_H_
#define BENCH_COLLOCATION_BENCH_H_

#include <algorithm>
#include <iostream>
#include <map>
#include <vector>

#include "bench/bench_util.h"

namespace orion {
namespace bench {

inline const std::vector<harness::SchedulerKind>& CollocationSchedulers() {
  static const std::vector<harness::SchedulerKind> kSchedulers = {
      harness::SchedulerKind::kDedicated, harness::SchedulerKind::kTemporal,
      harness::SchedulerKind::kStreams,   harness::SchedulerKind::kMps,
      harness::SchedulerKind::kReef,      harness::SchedulerKind::kOrion,
  };
  return kSchedulers;
}

struct MatrixOptions {
  // Arrival process + per-model rates for the high-priority inference job.
  harness::ClientConfig::Arrivals hp_arrivals = harness::ClientConfig::Arrivals::kPoisson;
  trace::CollocationCase rate_case = trace::CollocationCase::kInfTrainPoisson;
  // Partner workloads: training jobs (inf-train) or inference jobs (inf-inf).
  bool partners_are_training = true;
  // Best-effort inference arrivals (inf-inf only).
  harness::ClientConfig::Arrivals be_arrivals = harness::ClientConfig::Arrivals::kUniform;
  trace::CollocationCase be_rate_case = trace::CollocationCase::kInfInfUniform;
  gpusim::DeviceSpec device = gpusim::DeviceSpec::V100_16GB();
};

// Inf-train temporal sharing is catastrophic (EXPERIMENTS.md): its mean p99
// is at least this multiple of ideal for every high-priority model.
constexpr double kTemporalCatastropheVsIdeal = 10.0;

// Runs the full matrix and prints one table per high-priority model, a
// cross-model summary of p99-vs-ideal ratios and an `ACCEPTANCE <artefact>:`
// line encoding the EXPERIMENTS.md verdict.
inline void RunCollocationMatrix(const char* artefact, const MatrixOptions& options) {
  using harness::SchedulerKind;
  // Per technique, across high-priority models: mean p99 / ideal, and the
  // spread (σ) of p99 across the collocated partners.
  std::map<SchedulerKind, OnlineStats> vs_ideal;
  std::map<SchedulerKind, OnlineStats> sigma;

  for (auto hp_model : AllModels()) {
    const double hp_rps = trace::RequestsPerSecond(hp_model, options.rate_case);
    const harness::ClientConfig hp =
        InferenceClient(hp_model, options.hp_arrivals, hp_rps, /*high_priority=*/true);

    // Partner set: all models except (for inf-inf) the hp model itself.
    std::vector<harness::ClientConfig> partners;
    for (auto be_model : AllModels()) {
      if (options.partners_are_training) {
        partners.push_back(TrainingClient(be_model, false));
      } else if (be_model != hp_model) {
        partners.push_back(InferenceClient(be_model, options.be_arrivals,
                                           trace::RequestsPerSecond(be_model,
                                                                    options.be_rate_case),
                                           false));
      }
    }

    std::cout << "-- high-priority: " << workloads::WorkloadName(hp.workload) << " @ "
              << hp_rps << " rps (mean across " << partners.size() << " collocated "
              << (options.partners_are_training ? "training" : "inference") << " jobs)\n";

    Table table({"technique", "p99_ms_mean", "p99_ms_std", "p99_vs_ideal", "hp_tput_rps",
                 "be_tput_mean"});
    double ideal_p99 = 0.0;
    for (const auto scheduler : CollocationSchedulers()) {
      OnlineStats p99;
      OnlineStats hp_tput;
      OnlineStats be_tput;
      for (const auto& be : partners) {
        const auto result = RunPair(hp, be, scheduler, options.device);
        p99.Add(UsToMs(result.hp().latency.p99()));
        hp_tput.Add(result.hp().throughput_rps);
        be_tput.Add(BeThroughput(result));
      }
      if (scheduler == harness::SchedulerKind::kDedicated) {
        ideal_p99 = p99.mean();
      }
      const double ratio = ideal_p99 > 0 ? p99.mean() / ideal_p99 : 0.0;
      vs_ideal[scheduler].Add(ratio);
      sigma[scheduler].Add(p99.stddev());
      table.AddRow({harness::SchedulerKindName(scheduler), Cell(p99.mean(), 2),
                    Cell(p99.stddev(), 2), Cell(ratio, 2), Cell(hp_tput.mean(), 1),
                    Cell(be_tput.mean(), 2)});
    }
    table.Print(std::cout);
    std::cout << "\n";
  }

  const OnlineStats& orion = vs_ideal[SchedulerKind::kOrion];
  const OnlineStats& reef = vs_ideal[SchedulerKind::kReef];
  std::cout << "summary across all high-priority models:\n"
            << "  Orion p99 / ideal: mean " << Cell(orion.mean(), 2) << "x (max "
            << Cell(orion.max(), 2) << "x)\n"
            << "  REEF  p99 / ideal: mean " << Cell(reef.mean(), 2) << "x (max "
            << Cell(reef.max(), 2) << "x)\n";

  const double passthrough = std::min(vs_ideal[SchedulerKind::kStreams].mean(),
                                      vs_ideal[SchedulerKind::kMps].mean());
  const double orion_sigma = sigma[SchedulerKind::kOrion].mean();
  auto yes = [](bool ok) { return ok ? "yes" : "no"; };
  std::cout << "ACCEPTANCE " << artefact << ": orion<=reef<=streams,mps@mean-p99-vs-ideal="
            << yes(orion.mean() <= reef.mean() && reef.mean() <= passthrough)
            << " orion-sigma-below-streams,mps="
            << yes(orion_sigma < sigma[SchedulerKind::kStreams].mean() &&
                   orion_sigma < sigma[SchedulerKind::kMps].mean());
  if (options.partners_are_training) {
    std::cout << " temporal-p99@>=10x-ideal-every-model="
              << yes(vs_ideal[SchedulerKind::kTemporal].min() >= kTemporalCatastropheVsIdeal);
  }
  std::cout << "\n";
}

}  // namespace bench
}  // namespace orion

#endif  // BENCH_COLLOCATION_BENCH_H_
