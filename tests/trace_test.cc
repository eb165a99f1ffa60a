// Arrival process tests: rates, determinism, distribution shapes, Table 3.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/trace/arrivals.h"
#include "src/trace/request_rates.h"

namespace orion {
namespace trace {
namespace {

TEST(ArrivalsTest, UniformIsExactlyPeriodic) {
  const auto arrivals = MakeArrivals(ArrivalKind::kUniform, 100.0);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(arrivals->NextInterarrival(rng), 10000.0);  // 1/100s in µs
  }
  EXPECT_FALSE(arrivals->closed_loop());
}

TEST(ArrivalsTest, PoissonMeanMatchesRate) {
  const auto arrivals = MakeArrivals(ArrivalKind::kPoisson, 50.0);
  Rng rng(2);
  OnlineStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.Add(arrivals->NextInterarrival(rng));
  }
  EXPECT_NEAR(stats.mean(), 20000.0, 300.0);
  // Exponential: stddev ~= mean.
  EXPECT_NEAR(stats.stddev(), 20000.0, 600.0);
}

TEST(ArrivalsTest, PoissonDeterministicAcrossSeeds) {
  const auto arrivals = MakeArrivals(ArrivalKind::kPoisson, 50.0);
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(arrivals->NextInterarrival(a), arrivals->NextInterarrival(b));
  }
}

TEST(ArrivalsTest, ApolloMeanRateNearTarget) {
  const auto arrivals = MakeArrivals(ArrivalKind::kApollo, 40.0);
  Rng rng(3);
  double total = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    total += arrivals->NextInterarrival(rng);
  }
  const double achieved_rps = kN / (total / 1e6);
  // Bursts add requests on top of the base rate.
  EXPECT_GT(achieved_rps, 40.0);
  EXPECT_LT(achieved_rps, 60.0);
}

TEST(ArrivalsTest, ApolloHasBursts) {
  const auto arrivals = MakeArrivals(ArrivalKind::kApollo, 40.0);
  Rng rng(4);
  const double period = 1e6 / 40.0;
  int burst_gaps = 0;
  for (int i = 0; i < 10000; ++i) {
    if (arrivals->NextInterarrival(rng) < 0.1 * period) {
      ++burst_gaps;
    }
  }
  EXPECT_GT(burst_gaps, 100);  // bursts exist
  EXPECT_LT(burst_gaps, 5000);  // but are not the common case
}

TEST(ArrivalsTest, ApolloInterarrivalsPositive) {
  const auto arrivals = MakeArrivals(ArrivalKind::kApollo, 40.0);
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(arrivals->NextInterarrival(rng), 0.0);
  }
}

TEST(ArrivalsTest, ClosedLoopFlag) {
  const auto arrivals = MakeArrivals(ArrivalKind::kClosedLoop, 0.0);
  Rng rng(6);
  EXPECT_TRUE(arrivals->closed_loop());
  EXPECT_DOUBLE_EQ(arrivals->NextInterarrival(rng), 0.0);
}

TEST(ArrivalsTest, ClosedLoopZeroThinkTimeConsumesNoRandomness) {
  // Zero think time: every gap is exactly 0, no matter how often it's
  // drawn, and the RNG stream is left untouched — a closed-loop client in a
  // mixed fleet must not shift any open-loop client's arrival sequence.
  const auto arrivals = MakeArrivals(ArrivalKind::kClosedLoop, 0.0);
  Rng used(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_DOUBLE_EQ(arrivals->NextInterarrival(used), 0.0);
  }
  Rng fresh(9);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(used.NextU64(), fresh.NextU64());
  }
}

TEST(ArrivalsTest, ReseedingReproducesEverySequence) {
  // Recreating the process and the rng from the same seed must replay the
  // identical inter-arrival sequence for every generator kind — the property
  // the serving determinism tests lean on.
  const auto sequence = [](ArrivalProcess& process, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<DurationUs> gaps;
    for (int i = 0; i < 500; ++i) {
      gaps.push_back(process.NextInterarrival(rng));
    }
    return gaps;
  };
  for (const ArrivalKind kind :
       {ArrivalKind::kUniform, ArrivalKind::kPoisson, ArrivalKind::kApollo,
        ArrivalKind::kDiurnal}) {
    const auto make = [&] { return MakeArrivals(kind, 80.0); };
    const auto a = make();
    const auto b = make();
    EXPECT_EQ(sequence(*a, 42), sequence(*b, 42)) << static_cast<int>(kind);
    // Apollo keeps burst state across draws; a fresh instance with a fresh
    // rng of a different seed must diverge (uniform is seed-free by design).
    if (kind != ArrivalKind::kUniform) {
      const auto c = make();
      const auto d = make();
      EXPECT_NE(sequence(*c, 42), sequence(*d, 43)) << static_cast<int>(kind);
    }
  }
}

TEST(ArrivalsTest, DiurnalMeanFallsBackToRps) {
  // kDiurnal with diurnal.mean_rps <= 0 runs at the caller's rps; a flat
  // shape without bursts is then a plain Poisson stream at that rate.
  DiurnalConfig diurnal;
  diurnal.mean_rps = 0.0;
  diurnal.shape.peak_to_trough = 1.0;
  const auto arrivals = MakeArrivals(ArrivalKind::kDiurnal, 50.0, diurnal);
  Rng rng(8);
  OnlineStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.Add(arrivals->NextInterarrival(rng));
  }
  EXPECT_NEAR(stats.mean(), 20000.0, 300.0);
}

TEST(ArrivalsTest, Factories) {
  for (const ArrivalKind kind :
       {ArrivalKind::kClosedLoop, ArrivalKind::kUniform, ArrivalKind::kPoisson,
        ArrivalKind::kApollo, ArrivalKind::kDiurnal}) {
    const auto arrivals = MakeArrivals(kind, 10.0);
    ASSERT_NE(arrivals, nullptr);
    EXPECT_EQ(arrivals->closed_loop(), kind == ArrivalKind::kClosedLoop);
  }
}

TEST(RequestRatesTest, Table3Values) {
  using workloads::ModelId;
  // Spot-check the published Table 3 numbers.
  EXPECT_DOUBLE_EQ(RequestsPerSecond(ModelId::kResNet50, CollocationCase::kInfInfUniform), 80.0);
  EXPECT_DOUBLE_EQ(RequestsPerSecond(ModelId::kMobileNetV2, CollocationCase::kInfInfUniform),
                   100.0);
  EXPECT_DOUBLE_EQ(RequestsPerSecond(ModelId::kBert, CollocationCase::kInfInfPoisson), 5.0);
  EXPECT_DOUBLE_EQ(RequestsPerSecond(ModelId::kResNet101, CollocationCase::kInfTrainPoisson),
                   9.0);
  EXPECT_DOUBLE_EQ(RequestsPerSecond(ModelId::kTransformer, CollocationCase::kInfTrainPoisson),
                   8.0);
}

TEST(RequestRatesTest, InfTrainRatesAreLowest) {
  // Table 3: inf-train rates are below inf-inf rates for every model (the
  // training job consumes most of the GPU).
  using workloads::ModelId;
  for (ModelId model : workloads::kAllModels) {
    EXPECT_LE(RequestsPerSecond(model, CollocationCase::kInfTrainPoisson),
              RequestsPerSecond(model, CollocationCase::kInfInfPoisson));
    EXPECT_LE(RequestsPerSecond(model, CollocationCase::kInfInfPoisson),
              RequestsPerSecond(model, CollocationCase::kInfInfUniform));
  }
}

}  // namespace
}  // namespace trace
}  // namespace orion
