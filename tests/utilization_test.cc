// UtilizationTracker unit tests: interval recording, merging, windowed
// averages and timeline downsampling (feed Figures 1, 8, 9 and Table 1).
#include <gtest/gtest.h>

#include "src/gpusim/utilization.h"

namespace orion {
namespace gpusim {
namespace {

TEST(UtilizationTrackerTest, RecordsAndAverages) {
  UtilizationTracker tracker;
  tracker.Record(0.0, 10.0, 1.0, 0.5, 0.8);
  tracker.Record(10.0, 30.0, 0.25, 0.5, 0.2);
  const UtilizationSample avg = tracker.AverageOver(0.0, 30.0);
  EXPECT_NEAR(avg.compute, (10.0 * 1.0 + 20.0 * 0.25) / 30.0, 1e-12);
  EXPECT_NEAR(avg.membw, 0.5, 1e-12);
  EXPECT_NEAR(avg.sm_busy, (10.0 * 0.8 + 20.0 * 0.2) / 30.0, 1e-12);
}

TEST(UtilizationTrackerTest, MergesIdenticalAdjacentSamples) {
  UtilizationTracker tracker;
  tracker.Record(0.0, 5.0, 0.3, 0.3, 0.3);
  tracker.Record(5.0, 10.0, 0.3, 0.3, 0.3);  // identical: merged
  tracker.Record(10.0, 15.0, 0.6, 0.3, 0.3);  // differs: new sample
  EXPECT_EQ(tracker.samples().size(), 2u);
  EXPECT_DOUBLE_EQ(tracker.samples()[0].end, 10.0);
}

TEST(UtilizationTrackerTest, ZeroWidthIntervalIgnored) {
  UtilizationTracker tracker;
  tracker.Record(5.0, 5.0, 1.0, 1.0, 1.0);
  EXPECT_TRUE(tracker.samples().empty());
}

TEST(UtilizationTrackerTest, WindowedAverageClipsIntervals) {
  UtilizationTracker tracker;
  tracker.Record(0.0, 100.0, 1.0, 0.0, 0.5);
  tracker.Record(100.0, 200.0, 0.0, 1.0, 0.5);
  // Window [50, 150): half from each interval.
  const UtilizationSample avg = tracker.AverageOver(50.0, 150.0);
  EXPECT_NEAR(avg.compute, 0.5, 1e-12);
  EXPECT_NEAR(avg.membw, 0.5, 1e-12);
  EXPECT_NEAR(avg.sm_busy, 0.5, 1e-12);
}

TEST(UtilizationTrackerTest, WindowBeyondDataIsZero) {
  UtilizationTracker tracker;
  tracker.Record(0.0, 10.0, 1.0, 1.0, 1.0);
  const UtilizationSample avg = tracker.AverageOver(100.0, 200.0);
  EXPECT_DOUBLE_EQ(avg.compute, 0.0);
  EXPECT_DOUBLE_EQ(avg.membw, 0.0);
}

TEST(UtilizationTrackerTest, TimelineBucketsCoverRange) {
  UtilizationTracker tracker;
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

}  // namespace
}  // namespace gpusim
}  // namespace orion
