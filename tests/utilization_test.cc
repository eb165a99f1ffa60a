// UtilizationTracker unit tests: interval recording, merging, windowed
// averages and timeline downsampling (feed Figures 1, 8, 9 and Table 1),
// and a seeded check that the integrated window average equals, bitwise,
// a scan over the full sample log.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/gpusim/utilization.h"

namespace orion {
namespace gpusim {
namespace {

TEST(UtilizationTrackerTest, RecordsAndAverages) {
  UtilizationTracker tracker;
  tracker.Record(0.0, 10.0, 1.0, 0.5, 0.8);
  tracker.Record(10.0, 30.0, 0.25, 0.5, 0.2);
  const UtilizationSample avg = tracker.Average(30.0);
  EXPECT_NEAR(avg.compute, (10.0 * 1.0 + 20.0 * 0.25) / 30.0, 1e-12);
  EXPECT_NEAR(avg.membw, 0.5, 1e-12);
  EXPECT_NEAR(avg.sm_busy, (10.0 * 0.8 + 20.0 * 0.2) / 30.0, 1e-12);
}

TEST(UtilizationTrackerTest, MergesIdenticalAdjacentSamples) {
  UtilizationTracker tracker;
  tracker.KeepSamples();
  tracker.Record(0.0, 5.0, 0.3, 0.3, 0.3);
  tracker.Record(5.0, 10.0, 0.3, 0.3, 0.3);  // identical: merged
  tracker.Record(10.0, 15.0, 0.6, 0.3, 0.3);  // differs: new sample
  EXPECT_EQ(tracker.samples().size(), 2u);
  EXPECT_DOUBLE_EQ(tracker.samples()[0].end, 10.0);
}

TEST(UtilizationTrackerTest, ZeroWidthIntervalIgnored) {
  UtilizationTracker tracker;
  tracker.KeepSamples();
  tracker.Record(5.0, 5.0, 1.0, 1.0, 1.0);
  EXPECT_TRUE(tracker.samples().empty());
  EXPECT_DOUBLE_EQ(tracker.Average(10.0).compute, 0.0);
}

TEST(UtilizationTrackerTest, WindowedAverageClipsIntervals) {
  UtilizationTracker tracker;
  tracker.set_window_start(50.0);
  tracker.Record(0.0, 100.0, 1.0, 0.0, 0.5);
  tracker.Record(100.0, 200.0, 0.0, 1.0, 0.5);
  // Window [50, 150): half from each interval.
  const UtilizationSample avg = tracker.Average(150.0);
  EXPECT_DOUBLE_EQ(avg.start, 50.0);
  EXPECT_DOUBLE_EQ(avg.end, 150.0);
  EXPECT_NEAR(avg.compute, 0.5, 1e-12);
  EXPECT_NEAR(avg.membw, 0.5, 1e-12);
  EXPECT_NEAR(avg.sm_busy, 0.5, 1e-12);
}

TEST(UtilizationTrackerTest, WindowBeyondDataIsZero) {
  UtilizationTracker tracker;
  tracker.Record(0.0, 10.0, 1.0, 1.0, 1.0);
  tracker.set_window_start(100.0);
  const UtilizationSample avg = tracker.Average(200.0);
  EXPECT_DOUBLE_EQ(avg.compute, 0.0);
  EXPECT_DOUBLE_EQ(avg.membw, 0.0);
}

TEST(UtilizationTrackerTest, TimelineBucketsCoverRange) {
  UtilizationTracker tracker;
  tracker.KeepSamples();
  tracker.Record(0.0, 50.0, 1.0, 0.2, 0.5);
  tracker.Record(50.0, 100.0, 0.0, 0.8, 0.5);
  const auto timeline = tracker.Timeline(0.0, 100.0, 4);
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_DOUBLE_EQ(timeline[0].start, 0.0);
  EXPECT_DOUBLE_EQ(timeline[3].end, 100.0);
  EXPECT_NEAR(timeline[0].compute, 1.0, 1e-12);
  EXPECT_NEAR(timeline[1].compute, 1.0, 1e-12);
  EXPECT_NEAR(timeline[2].compute, 0.0, 1e-12);
  EXPECT_NEAR(timeline[2].membw, 0.8, 1e-12);
}

TEST(UtilizationTrackerTest, TimelineBucketStraddlingBoundaryAverages) {
  UtilizationTracker tracker;
  tracker.KeepSamples();
  tracker.Record(0.0, 50.0, 1.0, 0.0, 1.0);
  tracker.Record(50.0, 100.0, 0.0, 0.0, 0.0);
  const auto timeline = tracker.Timeline(0.0, 100.0, 1);
  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_NEAR(timeline[0].compute, 0.5, 1e-12);
}

TEST(UtilizationTrackerDeathTest, ReversedIntervalAborts) {
  UtilizationTracker tracker;
  EXPECT_DEATH(tracker.Record(10.0, 5.0, 0.5, 0.5, 0.5), "reversed");
}

TEST(UtilizationTrackerDeathTest, WindowStartBeforeAClosedSampleAborts) {
  UtilizationTracker tracker;
  tracker.Record(0.0, 10.0, 0.5, 0.5, 0.5);
  tracker.Record(10.0, 20.0, 1.0, 0.5, 0.5);  // closes [0, 10)
  EXPECT_DEATH(tracker.set_window_start(5.0), "closed sample");
}

// The sample log and windowed scan the tracker replaced: every merged
// sample is kept, and an average clips each one to [from, to) in log order.
class LogScan {
 public:
  void Record(TimeUs start, TimeUs end, double compute, double membw, double sm_busy) {
    if (end <= start) {
      return;
    }
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

  UtilizationSample AverageOver(TimeUs from, TimeUs to) const {
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

  // End of the last sample that a later, different one has closed.
  TimeUs closed_end() const {
    return samples_.size() < 2 ? 0.0 : samples_[samples_.size() - 2].end;
  }
  const std::vector<UtilizationSample>& samples() const { return samples_; }

 private:
  std::vector<UtilizationSample> samples_;
};

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void ExpectBitwiseEqual(const UtilizationSample& a, const UtilizationSample& b) {
  EXPECT_EQ(Bits(a.start), Bits(b.start));
  EXPECT_EQ(Bits(a.end), Bits(b.end));
  EXPECT_EQ(Bits(a.compute), Bits(b.compute));
  EXPECT_EQ(Bits(a.membw), Bits(b.membw));
  EXPECT_EQ(Bits(a.sm_busy), Bits(b.sm_busy));
}

// Random Record sequences with merges, zero-width intervals and window
// starts set in the past (after the closed samples), inside the open sample
// and ahead of the signal: the integrated average must equal the log scan
// bit for bit, and a kept log must equal the reference log.
TEST(UtilizationTrackerPropertyTest, IntegratedAverageEqualsLogScanBitwise) {
  const double levels[] = {0.0, 0.25, 1.0 / 3.0, 0.7, 1.0};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    UtilizationTracker tracker;
    UtilizationTracker kept;
    kept.KeepSamples();
    LogScan reference;
    TimeUs window_start = 0.0;
    TimeUs now = rng.UniformDouble(0.0, 5.0);
    double compute = 0.0;
    double membw = 0.0;
    double sm_busy = 0.0;
    const int steps = static_cast<int>(rng.UniformInt(1, 300));
    for (int step = 0; step < steps; ++step) {
      if (rng.NextDouble() < 0.03) {
        // Anywhere from the last closed sample's end to ahead of the signal.
        window_start = rng.UniformDouble(reference.closed_end(), now + 50.0);
        tracker.set_window_start(window_start);
        kept.set_window_start(window_start);
      }
      if (rng.NextDouble() < 0.6) {  // else repeat the signal: a merge
        const auto pick = [&]() {
          return rng.NextDouble() < 0.5 ? levels[rng.UniformInt(0, 4)] : rng.NextDouble();
        };
        compute = pick();
        membw = pick();
        sm_busy = pick();
      }
      const double u = rng.NextDouble();
      const TimeUs end = u < 0.1 ? now : now + (u < 0.2 ? 1e-9 : rng.UniformDouble(0.0, 10.0));
      tracker.Record(now, end, compute, membw, sm_busy);
      kept.Record(now, end, compute, membw, sm_busy);
      reference.Record(now, end, compute, membw, sm_busy);
      now = end;
    }
    const TimeUs to = rng.NextDouble() < 0.5 ? now : now + rng.UniformDouble(0.0, 20.0);
    SCOPED_TRACE(seed);
    const UtilizationSample want = reference.AverageOver(window_start, to);
    ExpectBitwiseEqual(tracker.Average(to), want);
    ExpectBitwiseEqual(kept.Average(to), want);
    ASSERT_EQ(kept.samples().size(), reference.samples().size());
    for (std::size_t i = 0; i < kept.samples().size(); ++i) {
      ExpectBitwiseEqual(kept.samples()[i], reference.samples()[i]);
    }
    constexpr int kBuckets = 7;
    const std::vector<UtilizationSample> timeline = kept.Timeline(0.0, to, kBuckets);
    const double width = to / kBuckets;
    for (int b = 0; b < kBuckets; ++b) {
      ExpectBitwiseEqual(timeline[static_cast<std::size_t>(b)],
                         reference.AverageOver(b * width, b * width + width));
    }
  }
}

}  // namespace
}  // namespace gpusim
}  // namespace orion
