#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace orion {

void OnlineStats::Add(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

double OnlineStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void LatencyRecorder::Add(double value) {
  samples_.push_back(value);
  sum_ += value;
  sorted_ = false;
}

double LatencyRecorder::mean() const {
  return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
}

double LatencyRecorder::min() const {
  SortIfNeeded();
  return samples_.empty() ? 0.0 : samples_.front();
}

double LatencyRecorder::max() const {
  SortIfNeeded();
  return samples_.empty() ? 0.0 : samples_.back();
}

double LatencyRecorder::Percentile(double p) const {
  ORION_CHECK_MSG(p >= 0.0 && p <= 100.0, "percentile out of range: " << p);
  if (samples_.empty()) {
    return 0.0;
  }
  SortIfNeeded();
  if (samples_.size() == 1) {
    return samples_.front();
  }
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

void LatencyRecorder::SortIfNeeded() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

}  // namespace orion
