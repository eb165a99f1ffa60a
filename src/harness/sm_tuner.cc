#include "src/harness/sm_tuner.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/profiler/profiler.h"

namespace orion {
namespace harness {
namespace {

// Probe run length (shorter than full experiments; tuning is iterative).
constexpr DurationUs kProbeDurationUs = SecToUs(5.0);

double BeThroughputOf(const ExperimentResult& result) {
  double total = 0.0;
  for (const ClientResult& client : result.clients) {
    if (!client.high_priority) {
      total += client.throughput_rps;
    }
  }
  return total;
}

}  // namespace

SmTunerResult TuneSmThreshold(ExperimentConfig config) {
  ORION_CHECK_MSG(config.scheduler == SchedulerKind::kOrion,
                  "SM_THRESHOLD tuning applies to the Orion scheduler");
  config.duration_us = kProbeDurationUs;

  SmTunerResult result;

  // Reference: high-priority job on a dedicated GPU.
  {
    ExperimentConfig dedicated = config;
    dedicated.scheduler = SchedulerKind::kDedicated;
    result.hp_dedicated_metric = RunExperiment(dedicated).hp().throughput_rps;
  }
  const double floor = (1.0 - kMaxHpDegradation) * result.hp_dedicated_metric;

  // Search range: [0, max sm_needed over all best-effort kernels] (§5.1.1).
  // The schedule_be() rule is strict (`sm_needed < SM_THRESHOLD`), so the
  // upper bound is max+1: the most aggressive setting must admit the largest
  // best-effort kernel, otherwise it permanently blocks its queue's head.
  int hi = 0;
  for (const ClientConfig& client : config.clients) {
    if (client.high_priority) {
      continue;
    }
    const auto kernels = workloads::BuildKernels(config.device, client.workload);
    for (const auto& kernel : kernels) {
      hi = std::max(hi, gpusim::SmsNeeded(config.device, kernel.geometry) + 1);
    }
  }
  int lo = 0;

  auto probe = [&](int threshold) {
    config.orion.sm_threshold = std::max(1, threshold);
    const ExperimentResult run = RunExperiment(config);
    SmTunerStep step;
    step.threshold = threshold;
    step.hp_metric = run.hp().throughput_rps;
    step.acceptable = step.hp_metric >= floor;
    result.steps.push_back(step);
    if (step.acceptable && threshold >= result.best_threshold) {
      result.best_threshold = threshold;
      result.hp_metric = step.hp_metric;
      result.be_throughput = BeThroughputOf(run);
    }
    return step.acceptable;
  };

  // Fast path: if the most aggressive threshold already meets the floor
  // (common for throughput-oriented hp jobs), take it without searching.
  if (hi > 0 && probe(hi)) {
    return result;
  }
  hi = std::max(0, hi - 1);

  // Binary search for the largest acceptable threshold. Monotonicity is
  // approximate (larger thresholds admit more interference), which is fine:
  // every probe's outcome is recorded and the best acceptable one wins.
  while (lo < hi) {
    const int mid = lo + (hi - lo + 1) / 2;
    if (probe(mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  if (result.steps.empty() || result.best_threshold == 0) {
    // Even the smallest threshold failed (or there are no be kernels): fall
    // back to the conservative default and record its metrics.
    probe(std::max(1, std::min(lo, config.device.num_sms)));
    if (result.best_threshold == 0 && !result.steps.empty()) {
      result.best_threshold = result.steps.back().threshold;
      result.hp_metric = result.steps.back().hp_metric;
    }
  }
  return result;
}

}  // namespace harness
}  // namespace orion
