// GPU utilization timeline tracking.
//
// The device model reports piecewise-constant utilization between simulator
// events: compute throughput utilization, memory bandwidth utilization, and
// fraction of busy SMs (the three metrics defined in §2 of the paper).
// One merged sample log backs both windowed time-weighted averages
// (Table 1) and downsampled timelines (Figures 1, 8, 9).
#ifndef SRC_GPUSIM_UTILIZATION_H_
#define SRC_GPUSIM_UTILIZATION_H_

#include <vector>

#include "src/common/time_types.h"

namespace orion {
namespace gpusim {

struct UtilizationSample {
  TimeUs start = 0.0;
  TimeUs end = 0.0;
  double compute = 0.0;   // fraction of peak compute throughput in use
  double membw = 0.0;     // fraction of peak memory bandwidth in use
  double sm_busy = 0.0;   // fraction of SMs executing at least one warp
};

class UtilizationTracker {
 public:
  void Record(TimeUs start, TimeUs end, double compute, double membw, double sm_busy);

  // Time-weighted averages over [from, to) — a window skips warm-up.
  UtilizationSample AverageOver(TimeUs from, TimeUs to) const;

  // Downsamples the timeline into `buckets` equal-width windows over
  // [from, to); each bucket holds the time-weighted mean of its window.
  std::vector<UtilizationSample> Timeline(TimeUs from, TimeUs to, int buckets) const;

  const std::vector<UtilizationSample>& samples() const { return samples_; }

 private:
  std::vector<UtilizationSample> samples_;
};

}  // namespace gpusim
}  // namespace orion

#endif  // SRC_GPUSIM_UTILIZATION_H_
