// Autoscaler: per-model replica-count control from windowed load signals.
//
// Every evaluation period the engine hands the autoscaler one window's worth
// of per-model signals — arrivals, completions, SLO attainment, shed count,
// and mean replica busy fraction — and gets back a hold/up/down decision.
// Scale-ups go through the placement engine (serving.cc picks the GPU with
// the least added interference); scale-downs drain the least-loaded replica
// before releasing its GPU memory. The decision logic is pure so tests can
// table-drive it.
//
// Signals are deliberately redundant: shedding or poor attainment catches
// overload *after* it hurts, high busy fraction catches it *before* (the
// queue is still absorbing the excess), and both must look healthy before a
// replica is surrendered.
#ifndef SRC_SERVING_AUTOSCALER_H_
#define SRC_SERVING_AUTOSCALER_H_

#include <cstddef>

#include "src/common/time_types.h"

namespace orion {
namespace serving {

struct AutoscalerConfig {
  bool enabled = false;
  DurationUs eval_period_us = SecToUs(0.5);
};

// One model service's signals over the last evaluation window.
struct ModelWindowSignals {
  std::size_t arrivals = 0;
  std::size_t completions = 0;
  std::size_t slo_met = 0;
  std::size_t shed = 0;
  double utilization = 0.0;  // mean busy fraction across active replicas
  int active_replicas = 0;
  int pending_replicas = 0;  // still provisioning (count against max, and
                             // block further scale-ups until they land)
  int min_replicas = 1;
  int max_replicas = 1;
};

enum class ScaleDecision { kHold, kUp, kDown };

// Which signal drove a decision — exported as the `reason` attribute on the
// serving control track's scale-up/-down instants so a trace answers not
// just *that* the fleet scaled but *why*.
enum class ScaleReason {
  kNone,             // hold
  kShedding,         // requests were shed in the window
  kAttainment,       // window attainment below target
  kUtilizationHigh,  // mean busy fraction above the scale-up bound
  kIdleHealthy,      // healthy and idle enough to surrender a replica
};

const char* ScaleReasonName(ScaleReason reason);

// SLO attainment of the window: slo_met / completions. A window with
// arrivals but no completions is treated as attainment 0 (the service is
// drowning); an idle window as attainment 1.
double WindowAttainment(const ModelWindowSignals& signals);

// Scales up on shedding, window attainment below 0.95 or mean busy fraction
// above 0.85; scales down when healthy and below 0.35 busy. Reports the
// dominant signal behind the decision (the first overload trigger in shed →
// attainment → utilization order; kIdleHealthy for scale-downs, kNone for
// holds).
ScaleDecision DecideWithReason(const AutoscalerConfig& config,
                               const ModelWindowSignals& signals, ScaleReason* reason);

}  // namespace serving
}  // namespace orion

#endif  // SRC_SERVING_AUTOSCALER_H_
