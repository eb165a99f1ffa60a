#include "src/trace/diurnal.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"

namespace orion {
namespace trace {

namespace {
constexpr double kTwoPi = 6.283185307179586;
}  // namespace

double DiurnalShape::Multiplier(TimeUs t) const {
  ORION_CHECK(period_us > 0.0);
  ORION_CHECK(peak_to_trough >= 1.0);
  return 1.0 + amplitude() * std::sin(kTwoPi * t / period_us + phase_rad);
}

double BurstMix::calm_multiplier() const {
  if (!enabled()) {
    return 1.0;
  }
  ORION_CHECK_MSG(burst_fraction * burst_factor < 1.0,
                  "burst mix cannot average to 1: fraction * factor must be < 1");
  ORION_CHECK(burst_fraction < 1.0);
  return (1.0 - burst_fraction * burst_factor) / (1.0 - burst_fraction);
}

DiurnalArrivals::DiurnalArrivals(const DiurnalConfig& config) : config_(config) {
  ORION_CHECK(config.mean_rps > 0.0);
  ORION_CHECK(config.shape.period_us > 0.0);
  ORION_CHECK(config.shape.peak_to_trough >= 1.0);
  const double base_per_us = config.mean_rps / kUsPerSec;
  const double burst_peak = std::max(config.burst.enabled() ? config.burst.burst_factor : 1.0,
                                     config.burst.calm_multiplier());
  peak_rate_per_us_ = base_per_us * (1.0 + config.shape.amplitude()) * burst_peak;
  ORION_CHECK(peak_rate_per_us_ > 0.0);
}

void DiurnalArrivals::AdvanceBurstState(Rng& rng, TimeUs until) {
  if (!config_.burst.enabled()) {
    return;
  }
  if (!burst_seeded_) {
    // Start calm; the first transition is one mean calm period out.
    burst_seeded_ = true;
    bursting_ = false;
    const double mean_calm =
        config_.burst.mean_burst_us * (1.0 - config_.burst.burst_fraction) /
        config_.burst.burst_fraction;
    burst_edge_us_ = rng.Exponential(mean_calm);
  }
  while (burst_edge_us_ <= until) {
    bursting_ = !bursting_;
    const double mean_calm =
        config_.burst.mean_burst_us * (1.0 - config_.burst.burst_fraction) /
        config_.burst.burst_fraction;
    burst_edge_us_ += rng.Exponential(bursting_ ? config_.burst.mean_burst_us : mean_calm);
  }
}

double DiurnalArrivals::RateAt(TimeUs t) const {
  const double base_per_us = config_.mean_rps / kUsPerSec;
  double rate = base_per_us * config_.shape.Multiplier(t);
  if (config_.burst.enabled()) {
    rate *= bursting_ ? config_.burst.burst_factor : config_.burst.calm_multiplier();
  }
  return rate;
}

DurationUs DiurnalArrivals::NextInterarrival(Rng& rng) {
  // Lewis-Shedler thinning: propose from the homogeneous envelope at the
  // peak rate, accept with probability rate(t)/peak. Every proposal draws
  // exactly two variates, so the stream is reproducible under reseeding.
  const TimeUs start = now_us_;
  while (true) {
    now_us_ += rng.Exponential(1.0 / peak_rate_per_us_);
    AdvanceBurstState(rng, now_us_);
    const double accept = RateAt(now_us_) / peak_rate_per_us_;
    if (rng.NextDouble() < accept) {
      return now_us_ - start;
    }
  }
}

std::string DiurnalArrivals::name() const {
  return "diurnal-" + std::to_string(static_cast<int>(config_.mean_rps + 0.5)) + "rps";
}

std::unique_ptr<ArrivalProcess> MakeDiurnal(const DiurnalConfig& config) {
  return std::make_unique<DiurnalArrivals>(config);
}

void DiurnalMix::AddService(const std::string& service, const DiurnalConfig& config) {
  Entry entry;
  entry.name = service;
  entry.config = config;
  const double phase = entry.config.shape.phase_rad;
  entry.config.shape = shape_;
  entry.config.shape.phase_rad = phase;
  services_.push_back(std::move(entry));
}

}  // namespace trace
}  // namespace orion
