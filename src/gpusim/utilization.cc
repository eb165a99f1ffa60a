#include "src/gpusim/utilization.h"

#include <algorithm>

#include "src/common/check.h"

namespace orion {
namespace gpusim {

void UtilizationTracker::Record(TimeUs start, TimeUs end, double compute, double membw,
                                double sm_busy) {
  ORION_CHECK_MSG(end >= start, "utilization interval reversed");
  if (end <= start) {
    return;
  }
  // Merge with the previous sample when the signal did not change; keeps the
  // sample vector compact over long idle stretches.
  if (!samples_.empty()) {
    UtilizationSample& last = samples_.back();
    if (last.end == start && last.compute == compute && last.membw == membw &&
        last.sm_busy == sm_busy) {
      last.end = end;
      return;
    }
  }
  samples_.push_back(UtilizationSample{start, end, compute, membw, sm_busy});
}

UtilizationSample UtilizationTracker::AverageOver(TimeUs from, TimeUs to) const {
  UtilizationSample out;
  out.start = from;
  out.end = to;
  double total = 0.0;
  double compute_sum = 0.0;
  double membw_sum = 0.0;
  double sm_sum = 0.0;
  for (const UtilizationSample& sample : samples_) {
    const TimeUs lo = std::max(sample.start, from);
    const TimeUs hi = std::min(sample.end, to);
    if (hi <= lo) {
      continue;
    }
    const double width = hi - lo;
    total += width;
    compute_sum += width * sample.compute;
    membw_sum += width * sample.membw;
    sm_sum += width * sample.sm_busy;
  }
  if (total > 0.0) {
    out.compute = compute_sum / total;
    out.membw = membw_sum / total;
    out.sm_busy = sm_sum / total;
  }
  return out;
}

std::vector<UtilizationSample> UtilizationTracker::Timeline(TimeUs from, TimeUs to,
                                                            int buckets) const {
  ORION_CHECK(buckets > 0);
  ORION_CHECK(to > from);
  std::vector<UtilizationSample> out;
  out.reserve(static_cast<std::size_t>(buckets));
  const double width = (to - from) / buckets;
  for (int b = 0; b < buckets; ++b) {
    const TimeUs lo = from + b * width;
    const TimeUs hi = lo + width;
    out.push_back(AverageOver(lo, hi));
  }
  return out;
}

}  // namespace gpusim
}  // namespace orion
