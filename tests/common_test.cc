// Unit tests for src/common: RNG determinism and distributions, statistics,
// table rendering, the inline callable and the ring FIFO.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/ring.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/time_types.h"

namespace orion {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(10);
  bool seen[5] = {};
  for (int i = 0; i < 1000; ++i) {
    seen[rng.UniformInt(0, 4)] = true;
  }
  for (bool s : seen) {
    EXPECT_TRUE(s);
  }
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    sum += rng.Exponential(50.0);
  }
  EXPECT_NEAR(sum / kSamples, 50.0, 1.0);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng root(42);
  Rng a = root.Fork(1);
  Rng b = root.Fork(2);
  EXPECT_NE(a.NextU64(), b.NextU64());
  // Forking is deterministic.
  Rng root2(42);
  Rng a2 = root2.Fork(1);
  a = Rng(42).Fork(1);
  EXPECT_EQ(a.NextU64(), a2.NextU64());
}

TEST(OnlineStatsTest, BasicMoments) {
  OnlineStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(v);
  }
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);  // sample variance
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(LatencyRecorderTest, ExactPercentiles) {
  LatencyRecorder rec;
  for (int i = 100; i >= 1; --i) {
    rec.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(rec.min(), 1.0);
  EXPECT_DOUBLE_EQ(rec.max(), 100.0);
  EXPECT_NEAR(rec.Percentile(0.0), 1.0, 1e-12);
  EXPECT_NEAR(rec.Percentile(100.0), 100.0, 1e-12);
  EXPECT_NEAR(rec.p50(), 50.5, 1e-12);
  EXPECT_NEAR(rec.Percentile(99.0), 99.01, 1e-9);
}

TEST(LatencyRecorderTest, SingleSample) {
  LatencyRecorder rec;
  rec.Add(42.0);
  EXPECT_DOUBLE_EQ(rec.p50(), 42.0);
  EXPECT_DOUBLE_EQ(rec.p99(), 42.0);
}

TEST(LatencyRecorderTest, EmptyReturnsZero) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.Percentile(50.0), 0.0);
  EXPECT_EQ(rec.mean(), 0.0);
}

TEST(LatencyRecorderTest, InterleavedAddAndQuery) {
  LatencyRecorder rec;
  rec.Add(10.0);
  EXPECT_DOUBLE_EQ(rec.p50(), 10.0);
  rec.Add(20.0);  // re-sorting must happen after the new sample
  EXPECT_DOUBLE_EQ(rec.p50(), 15.0);
}

TEST(TableTest, RendersAlignedTable) {
  Table table({"name", "value"});
  table.AddRow({"alpha", Cell(1.5)});
  table.AddRow({"b", Cell(22)});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TimeTypesTest, Conversions) {
  EXPECT_DOUBLE_EQ(MsToUs(1.5), 1500.0);
  EXPECT_DOUBLE_EQ(SecToUs(2.0), 2e6);
  EXPECT_DOUBLE_EQ(UsToMs(2500.0), 2.5);
  EXPECT_DOUBLE_EQ(UsToSec(5e5), 0.5);
}

// --- InlineFunction: the simulator's small-buffer callback type. ---

using TestFn = common::InlineFunction<int(), 48>;

TEST(InlineFunctionTest, EmptyAndNullptrSemantics) {
  TestFn f;
  EXPECT_FALSE(static_cast<bool>(f));
  EXPECT_TRUE(f == nullptr);
  f = []() { return 3; };
  EXPECT_TRUE(f != nullptr);
  EXPECT_EQ(f(), 3);
  f = nullptr;
  EXPECT_TRUE(f == nullptr);
}

TEST(InlineFunctionTest, SmallCaptureStaysInline) {
  int x = 41;
  TestFn f = [px = &x]() { return *px + 1; };
  EXPECT_TRUE(f.is_inline());
  EXPECT_EQ(f(), 42);
}

TEST(InlineFunctionTest, OversizedCaptureFallsBackToHeap) {
  struct Big {
    unsigned char pad[128];
  };
  Big big{};
  big.pad[0] = 9;
  TestFn f = [big]() { return static_cast<int>(big.pad[0]); };
  EXPECT_FALSE(f.is_inline());
  EXPECT_EQ(f(), 9);
  // Heap targets still move correctly (pointer steal, no reallocation).
  TestFn g = std::move(f);
  EXPECT_FALSE(g.is_inline());
  EXPECT_EQ(g(), 9);
}

TEST(InlineFunctionTest, MoveTransfersTargetAndEmptiesSource) {
  int calls = 0;
  TestFn f = [&calls]() { return ++calls; };
  TestFn g = std::move(f);
  EXPECT_TRUE(f == nullptr);  // NOLINT(bugprone-use-after-move): tested on purpose
  EXPECT_EQ(g(), 1);
  EXPECT_EQ(g(), 2);
}

TEST(InlineFunctionTest, MoveOnlyCaptureSupported) {
  auto p = std::make_unique<int>(13);
  common::InlineFunction<int(), 48> f = [p = std::move(p)]() { return *p; };
  EXPECT_EQ(f(), 13);
  // std::function would reject this capture (it requires copyability).
}

TEST(InlineFunctionTest, DestructorRunsOnResetAndDestruction) {
  int alive = 0;
  struct Token {
    int* alive;
    explicit Token(int* a) : alive(a) { ++*alive; }
    Token(const Token& o) : alive(o.alive) { ++*alive; }
    Token(Token&& o) noexcept : alive(o.alive) { o.alive = nullptr; }
    ~Token() {
      if (alive != nullptr) {
        --*alive;
      }
    }
  };
  {
    common::InlineFunction<int(), 48> f =
        [t = Token(&alive)]() { return t.alive != nullptr ? 1 : 0; };
    EXPECT_EQ(alive, 1);
    f = nullptr;
    EXPECT_EQ(alive, 0);
    f = [t = Token(&alive)]() { return t.alive != nullptr ? 2 : 0; };
    EXPECT_EQ(alive, 1);
  }
  EXPECT_EQ(alive, 0);  // destructor path
}

TEST(InlineFunctionTest, ArgumentsAndReturnForwarded) {
  common::InlineFunction<int(int, int), 48> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(20, 22), 42);
}

TEST(InlineFunctionDeathTest, InvokingEmptyIsChecked) {
  TestFn f;
  EXPECT_DEATH(f(), "empty InlineFunction");
}

// A completion hook passed on through a wider callback type keeps testing
// false when empty, as std::function does, so "no callback" survives every
// hop from the scheduler to the device.
TEST(InlineFunctionTest, WrappingAnEmptyCallableStaysEmpty) {
  common::InlineFunction<int(), 16> narrow;
  TestFn wide = std::move(narrow);
  EXPECT_TRUE(wide == nullptr);
  wide = std::function<int()>();
  EXPECT_TRUE(wide == nullptr);
  int (*null_fn)() = nullptr;
  wide = null_fn;
  EXPECT_TRUE(wide == nullptr);

  // Fills the 16-byte buffer, so the relocation copies no unset bytes.
  common::InlineFunction<int(), 16> seven = [a = std::int64_t{3}, b = std::int64_t{4}]() {
    return static_cast<int>(a + b);
  };
  wide = std::move(seven);
  ASSERT_TRUE(wide != nullptr);
  EXPECT_TRUE(wide.is_inline());
  EXPECT_EQ(wide(), 7);
}

// Pops `count` elements from the front of `ring` into a vector.
std::vector<int> PopFront(common::Ring<int>& ring, std::size_t count) {
  std::vector<int> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(ring.front());
    ring.pop_front();
  }
  return out;
}

TEST(RingTest, FifoOrderAndIndexing) {
  common::Ring<int> ring;
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 5; ++i) {
    ring.push_back(i);
  }
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring[3], 3);
  EXPECT_EQ(ring[4], 4);
  EXPECT_EQ(PopFront(ring, 5), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(ring.empty());
}

// The buffer fills while its head sits mid-buffer, so growth has to unwrap
// the elements oldest first.
TEST(RingTest, GrowsWhileWrapped) {
  common::Ring<int> ring;
  for (int i = 0; i < 8; ++i) {
    ring.push_back(i);
  }
  const std::size_t capacity = ring.capacity();
  ASSERT_EQ(capacity, 8u);
  EXPECT_EQ(PopFront(ring, 5), (std::vector<int>{0, 1, 2, 3, 4}));
  for (int i = 8; i < 13; ++i) {
    ring.push_back(i);  // wraps around the end of the buffer
  }
  EXPECT_EQ(ring.capacity(), capacity);
  ring.push_back(13);  // full and wrapped: grows
  EXPECT_EQ(ring.capacity(), 2 * capacity);
  std::vector<int> all(ring.begin(), ring.end());
  EXPECT_EQ(all, (std::vector<int>{5, 6, 7, 8, 9, 10, 11, 12, 13}));
  EXPECT_EQ(PopFront(ring, 9), all);
}

TEST(RingTest, PushFrontPrecedesTheQueue) {
  common::Ring<int> ring;
  ring.push_back(2);
  ring.push_back(3);
  ring.push_front(1);  // wraps the head below slot 0
  ring.push_front(0);
  EXPECT_EQ(ring.front(), 0);
  for (int i = 4; i < 12; ++i) {
    ring.push_back(i);  // grows with the head wrapped
  }
  EXPECT_EQ(PopFront(ring, 12), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
}

TEST(RingTest, HoldsMoveOnlyElementsAndDestroysThem) {
  auto alive = std::make_shared<int>(0);
  {
    common::Ring<std::unique_ptr<std::shared_ptr<int>>> ring;
    for (int i = 0; i < 20; ++i) {
      ring.push_back(std::make_unique<std::shared_ptr<int>>(alive));
    }
    EXPECT_EQ(alive.use_count(), 21);
    std::unique_ptr<std::shared_ptr<int>> first = std::move(ring.front());
    ring.pop_front();
    first.reset();
    EXPECT_EQ(alive.use_count(), 20);
    common::Ring<std::unique_ptr<std::shared_ptr<int>>> moved = std::move(ring);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(moved.size(), 19u);
    moved.clear();
    EXPECT_EQ(alive.use_count(), 1);
    EXPECT_GE(moved.capacity(), 19u);  // clear keeps the buffer
    moved.push_back(std::make_unique<std::shared_ptr<int>>(alive));
  }
  EXPECT_EQ(alive.use_count(), 1);  // the destructor destroyed the rest
}

}  // namespace
}  // namespace orion
