#include "src/serving/autoscaler.h"

#include "src/common/check.h"

namespace orion {
namespace serving {

namespace {

constexpr double kTargetAttainment = 0.95;     // scale up when the window dips below
constexpr double kScaleUpUtilization = 0.85;   // mean replica busy fraction
constexpr double kScaleDownUtilization = 0.35;

}  // namespace

double WindowAttainment(const ModelWindowSignals& signals) {
  if (signals.completions == 0) {
    return signals.arrivals == 0 ? 1.0 : 0.0;
  }
  return static_cast<double>(signals.slo_met) / static_cast<double>(signals.completions);
}

const char* ScaleReasonName(ScaleReason reason) {
  switch (reason) {
    case ScaleReason::kNone:
      return "none";
    case ScaleReason::kShedding:
      return "shedding";
    case ScaleReason::kAttainment:
      return "attainment-below-target";
    case ScaleReason::kUtilizationHigh:
      return "utilization-high";
    case ScaleReason::kIdleHealthy:
      return "idle-and-healthy";
  }
  return "unknown";
}

ScaleDecision DecideWithReason(const AutoscalerConfig& config,
                               const ModelWindowSignals& signals, ScaleReason* reason) {
  ORION_CHECK(signals.min_replicas >= 0);
  ORION_CHECK(signals.max_replicas >= signals.min_replicas);
  *reason = ScaleReason::kNone;
  if (!config.enabled) {
    return ScaleDecision::kHold;
  }
  const int total = signals.active_replicas + signals.pending_replicas;
  const double attainment = WindowAttainment(signals);

  const bool overloaded = signals.shed > 0 || attainment < kTargetAttainment ||
                          signals.utilization > kScaleUpUtilization;
  if (overloaded && total < signals.max_replicas && signals.pending_replicas == 0) {
    *reason = signals.shed > 0                 ? ScaleReason::kShedding
              : attainment < kTargetAttainment ? ScaleReason::kAttainment
                                               : ScaleReason::kUtilizationHigh;
    return ScaleDecision::kUp;
  }

  const bool healthy = signals.shed == 0 && attainment >= kTargetAttainment &&
                       signals.utilization < kScaleDownUtilization;
  if (healthy && signals.pending_replicas == 0 && signals.active_replicas > signals.min_replicas) {
    *reason = ScaleReason::kIdleHealthy;
    return ScaleDecision::kDown;
  }
  return ScaleDecision::kHold;
}

}  // namespace serving
}  // namespace orion
