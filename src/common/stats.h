// Statistics utilities: streaming moments and percentile recorders.
#ifndef SRC_COMMON_STATS_H_
#define SRC_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace orion {

// Streaming mean / variance / min / max (Welford's algorithm). O(1) memory.
class OnlineStats {
 public:
  void Add(double value);

  std::size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Stores every sample so exact percentiles can be computed afterwards.
// Latency distributions in the evaluation have at most a few hundred thousand
// samples per run, so exact storage is cheap and avoids sketch error bars.
class LatencyRecorder {
 public:
  void Add(double value);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double min() const;
  double max() const;

  // Exact percentile with linear interpolation between order statistics.
  // `p` in [0, 100]. Returns 0 for an empty recorder.
  double Percentile(double p) const;

  double p50() const { return Percentile(50.0); }
  double p95() const { return Percentile(95.0); }
  double p99() const { return Percentile(99.0); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  void SortIfNeeded() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0.0;
};

}  // namespace orion

#endif  // SRC_COMMON_STATS_H_
