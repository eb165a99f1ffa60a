#include "src/gpusim/utilization.h"

#include <algorithm>
#include <limits>

#include "src/common/check.h"

namespace orion {
namespace gpusim {

void UtilizationTracker::Sums::Add(const UtilizationSample& sample, TimeUs from, TimeUs to) {
  const TimeUs lo = std::max(sample.start, from);
  const TimeUs hi = std::min(sample.end, to);
  if (hi <= lo) {
    return;
  }
  const double width = hi - lo;
  total += width;
  compute += width * sample.compute;
  membw += width * sample.membw;
  sm_busy += width * sample.sm_busy;
}

UtilizationSample UtilizationTracker::Sums::Mean(TimeUs from, TimeUs to) const {
  UtilizationSample out;
  out.start = from;
  out.end = to;
  if (total > 0.0) {
    out.compute = compute / total;
    out.membw = membw / total;
    out.sm_busy = sm_busy / total;
  }
  return out;
}

void UtilizationTracker::Record(TimeUs start, TimeUs end, double compute, double membw,
                                double sm_busy) {
  ORION_CHECK_MSG(end >= start, "utilization interval reversed");
  if (end <= start) {
    return;
  }
  // Merge with the open sample when the signal did not change; keeps long
  // idle or steady stretches to one sample.
  if (has_open_ && open_.end == start && open_.compute == compute && open_.membw == membw &&
      open_.sm_busy == sm_busy) {
    open_.end = end;
    if (keep_samples_) {
      samples_.back().end = end;
    }
    return;
  }
  if (has_open_) {
    // Every closed sample ends before the window does, so only the window
    // start clips it.
    window_.Add(open_, window_start_, std::numeric_limits<TimeUs>::infinity());
    closed_end_ = open_.end;
  }
  open_ = UtilizationSample{start, end, compute, membw, sm_busy};
  has_open_ = true;
  if (keep_samples_) {
    samples_.push_back(open_);
  }
}

void UtilizationTracker::set_window_start(TimeUs from) {
  ORION_CHECK_MSG(closed_end_ <= from, "utilization window starts before a closed sample");
  window_start_ = from;
  window_ = Sums();
}

UtilizationSample UtilizationTracker::Average(TimeUs to) const {
  ORION_CHECK_MSG(closed_end_ <= to, "utilization window ends before a closed sample");
  Sums sums = window_;
  if (has_open_) {
    sums.Add(open_, window_start_, to);
  }
  return sums.Mean(window_start_, to);
}

void UtilizationTracker::KeepSamples() {
  ORION_CHECK_MSG(!has_open_, "KeepSamples after the first sample");
  keep_samples_ = true;
}

std::vector<UtilizationSample> UtilizationTracker::Timeline(TimeUs from, TimeUs to,
                                                            int buckets) const {
  ORION_CHECK_MSG(keep_samples_, "Timeline needs KeepSamples");
  ORION_CHECK(buckets > 0);
  ORION_CHECK(to > from);
  std::vector<UtilizationSample> out;
  out.reserve(static_cast<std::size_t>(buckets));
  const double width = (to - from) / buckets;
  for (int b = 0; b < buckets; ++b) {
    const TimeUs lo = from + b * width;
    const TimeUs hi = lo + width;
    Sums sums;
    for (const UtilizationSample& sample : samples_) {
      sums.Add(sample, lo, hi);
    }
    out.push_back(sums.Mean(lo, hi));
  }
  return out;
}

}  // namespace gpusim
}  // namespace orion
