// SM_THRESHOLD auto-tuner (§5.1.1).
//
// By default Orion sets SM_THRESHOLD to the device's SM count. When the
// high-priority job is throughput-oriented (training), the paper tunes the
// threshold with binary search: the range is [0, max SMs needed by any
// best-effort kernel]; each 5 s probe runs the collocation and checks
// whether the high-priority job keeps at least 84% of its dedicated-GPU
// throughput (paper: within 16% for train-train, §6.2.2); the search keeps
// the most aggressive threshold that does.
#ifndef SRC_HARNESS_SM_TUNER_H_
#define SRC_HARNESS_SM_TUNER_H_

#include <vector>

#include "src/harness/experiment.h"

namespace orion {
namespace harness {

// The hp job must keep at least (1 - kMaxHpDegradation) of its dedicated
// throughput at the chosen threshold.
inline constexpr double kMaxHpDegradation = 0.16;

struct SmTunerStep {
  int threshold = 0;
  double hp_metric = 0.0;  // hp throughput (rps) at this threshold
  bool acceptable = false;
};

struct SmTunerResult {
  int best_threshold = 0;
  double hp_dedicated_metric = 0.0;  // hp throughput on a dedicated GPU
  double hp_metric = 0.0;            // hp throughput at best_threshold
  double be_throughput = 0.0;        // best-effort throughput at best_threshold
  std::vector<SmTunerStep> steps;    // binary-search trace
};

// Tunes SM_THRESHOLD for `config` (must use SchedulerKind::kOrion). Returns
// the search trace and the chosen threshold; callers apply it via
// config.orion.sm_threshold.
SmTunerResult TuneSmThreshold(ExperimentConfig config);

}  // namespace harness
}  // namespace orion

#endif  // SRC_HARNESS_SM_TUNER_H_
