// Diurnal arrival synthesis tests (src/trace/diurnal): mean-1 modulators,
// generated moments under reseeding, the rate wave, and the service mix.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/trace/diurnal.h"

namespace orion {
namespace trace {
namespace {

// Mean rate (1/s) and squared interarrival CV over `n` draws from `process`.
std::pair<double, double> RateAndCv2(ArrivalProcess& process, Rng& rng, int n) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double gap = process.NextInterarrival(rng);
    sum += gap;
    sum_sq += gap * gap;
  }
  const double mean = sum / n;
  return {kUsPerSec / mean, (sum_sq / n - mean * mean) / (mean * mean)};
}

// --- Modulators. ---

TEST(DiurnalShapeTest, MultiplierAveragesToOneOverAPeriod) {
  DiurnalShape shape;
  shape.period_us = SecToUs(100.0);
  shape.peak_to_trough = 4.0;
  double sum = 0.0;
  const int steps = 10000;
  for (int i = 0; i < steps; ++i) {
    sum += shape.Multiplier(shape.period_us * i / steps);
  }
  EXPECT_NEAR(sum / steps, 1.0, 1e-3);
  // Peak / trough hits the configured ratio.
  const double peak = 1.0 + shape.amplitude();
  const double trough = 1.0 - shape.amplitude();
  EXPECT_NEAR(peak / trough, 4.0, 1e-9);
}

TEST(DiurnalShapeTest, FlatShapeIsIdentity) {
  DiurnalShape flat;
  flat.peak_to_trough = 1.0;
  EXPECT_DOUBLE_EQ(flat.Multiplier(0.0), 1.0);
  EXPECT_DOUBLE_EQ(flat.Multiplier(SecToUs(12345.0)), 1.0);
}

TEST(BurstMixTest, ExpectedMultiplierIsOne) {
  BurstMix burst;
  burst.burst_factor = 5.0;
  burst.burst_fraction = 0.1;
  ASSERT_TRUE(burst.enabled());
  const double mean = burst.burst_fraction * burst.burst_factor +
                      (1.0 - burst.burst_fraction) * burst.calm_multiplier();
  EXPECT_NEAR(mean, 1.0, 1e-12);
  EXPECT_LT(burst.calm_multiplier(), 1.0);
}

// --- Fitting. ---

// --- Generation. ---

TEST(DiurnalArrivalsTest, SameSeedReproducesExactStream) {
  DiurnalConfig config;
  config.mean_rps = 100.0;
  config.shape.period_us = SecToUs(60.0);
  config.burst.burst_factor = 4.0;
  config.burst.burst_fraction = 0.1;
  auto a = MakeDiurnal(config);
  auto b = MakeDiurnal(config);
  Rng rng_a(42);
  Rng rng_b(42);
  for (int i = 0; i < 500; ++i) {
    EXPECT_DOUBLE_EQ(a->NextInterarrival(rng_a), b->NextInterarrival(rng_b));
  }
  // A different seed gives a different stream.
  auto c = MakeDiurnal(config);
  Rng rng_c(43);
  bool any_diff = false;
  auto d = MakeDiurnal(config);
  Rng rng_d(42);
  for (int i = 0; i < 50; ++i) {
    if (c->NextInterarrival(rng_c) != d->NextInterarrival(rng_d)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(DiurnalArrivalsTest, FitGenerateReproducesUnderReseeding) {
  // Generate under two seeds: the synthesized stream's moments match the
  // configured parameters, independent of the seed.
  DiurnalConfig config;
  config.mean_rps = 150.0;
  config.shape.peak_to_trough = 1.0;  // flat, so the mean is exact
  config.burst.burst_factor = 3.0;
  config.burst.burst_fraction = 0.15;
  config.burst.mean_burst_us = SecToUs(0.5);
  for (const std::uint64_t seed : {1ull, 99ull}) {
    auto process = MakeDiurnal(config);
    Rng rng(seed);
    const auto [mean_rps, cv2] = RateAndCv2(*process, rng, 20000);
    EXPECT_NEAR(mean_rps, 150.0, 15.0) << "seed " << seed;
    EXPECT_GT(cv2, 1.1) << "seed " << seed;
  }
}

TEST(DiurnalArrivalsTest, MeanRateIsPreservedOverAFullPeriod) {
  DiurnalConfig config;
  config.mean_rps = 200.0;
  config.shape.period_us = SecToUs(50.0);
  config.shape.peak_to_trough = 3.0;
  auto process = MakeDiurnal(config);
  Rng rng(5);
  std::size_t count = 0;
  TimeUs t = 0.0;
  while (t < config.shape.period_us) {
    t += process->NextInterarrival(rng);
    ++count;
  }
  const double measured_rps = static_cast<double>(count) / UsToSec(config.shape.period_us);
  EXPECT_NEAR(measured_rps, 200.0, 10.0);
}

TEST(DiurnalArrivalsTest, RateFollowsTheWave) {
  // Count arrivals in the peak vs trough half-period: the ratio should
  // reflect the configured peak-to-trough shape (3:1 halves ≈ 1.8:1 after
  // integrating the sinusoid over each half).
  DiurnalConfig config;
  config.mean_rps = 500.0;
  config.shape.period_us = SecToUs(40.0);
  config.shape.peak_to_trough = 3.0;
  auto process = MakeDiurnal(config);
  Rng rng(3);
  std::size_t peak_half = 0;
  std::size_t trough_half = 0;
  TimeUs t = 0.0;
  while (t < config.shape.period_us) {
    t += process->NextInterarrival(rng);
    if (t < config.shape.period_us / 2.0) {
      ++peak_half;  // sin > 0: above the mean
    } else if (t < config.shape.period_us) {
      ++trough_half;
    }
  }
  EXPECT_GT(static_cast<double>(peak_half), 1.4 * static_cast<double>(trough_half));
}

// --- DiurnalMix. ---

TEST(DiurnalMixTest, AddServiceKeepsPhaseAndSharesPeriod) {
  DiurnalShape shape;
  shape.period_us = SecToUs(240.0);
  shape.peak_to_trough = 2.0;
  DiurnalMix mix(shape);
  DiurnalConfig a;
  a.mean_rps = 500.0;
  a.shape.period_us = SecToUs(10.0);  // overridden by the mix's period
  DiurnalConfig b = a;
  b.shape.phase_rad = 1.5;
  mix.AddService("a", a);
  mix.AddService("b", b);
  ASSERT_EQ(mix.size(), 2u);
  EXPECT_EQ(mix.service_name(0), "a");
  EXPECT_EQ(mix.service_name(1), "b");
  // The caller's phase is kept; period and peak-to-trough come from the mix.
  EXPECT_DOUBLE_EQ(mix.service_config(0).shape.phase_rad, 0.0);
  EXPECT_DOUBLE_EQ(mix.service_config(1).shape.phase_rad, 1.5);
  for (std::size_t i = 0; i < mix.size(); ++i) {
    EXPECT_DOUBLE_EQ(mix.service_config(i).shape.period_us, SecToUs(240.0));
    EXPECT_DOUBLE_EQ(mix.service_config(i).shape.peak_to_trough, 2.0);
    EXPECT_DOUBLE_EQ(mix.service_config(i).mean_rps, 500.0);
  }
  // A service's config drives a process that is deterministic per seed.
  auto p0 = MakeDiurnal(mix.service_config(1));
  auto p1 = MakeDiurnal(mix.service_config(1));
  Rng ra(9);
  Rng rb(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(p0->NextInterarrival(ra), p1->NextInterarrival(rb));
  }
}

}  // namespace
}  // namespace trace
}  // namespace orion
