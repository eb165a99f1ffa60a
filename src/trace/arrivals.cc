#include "src/trace/arrivals.h"

#include <algorithm>

#include "src/common/check.h"

namespace orion {
namespace trace {

namespace {

class ClosedLoopArrivals : public ArrivalProcess {
 public:
  DurationUs NextInterarrival(Rng& rng) override {
    (void)rng;
    return 0.0;
  }
  bool closed_loop() const override { return true; }
};

class UniformArrivals : public ArrivalProcess {
 public:
  explicit UniformArrivals(double requests_per_second)
      : period_us_(kUsPerSec / requests_per_second) {}

  DurationUs NextInterarrival(Rng& rng) override {
    (void)rng;
    return period_us_;
  }

 private:
  DurationUs period_us_;
};

class PoissonArrivals : public ArrivalProcess {
 public:
  explicit PoissonArrivals(double requests_per_second)
      : mean_us_(kUsPerSec / requests_per_second) {}

  DurationUs NextInterarrival(Rng& rng) override { return rng.Exponential(mean_us_); }

 private:
  DurationUs mean_us_;
};

// `requests_per_second` sets the base camera frame rate; bursts add ~10%
// extra requests on top.
class ApolloArrivals : public ArrivalProcess {
 public:
  explicit ApolloArrivals(double requests_per_second)
      : period_us_(kUsPerSec / requests_per_second) {}

  DurationUs NextInterarrival(Rng& rng) override {
    if (burst_remaining_ > 0) {
      --burst_remaining_;
      // Burst members land within a small fraction of the frame window.
      return rng.UniformDouble(0.02, 0.08) * period_us_;
    }
    // ~8% of frames carry a burst of 1-3 extra detector invocations.
    if (rng.NextDouble() < 0.08) {
      burst_remaining_ = static_cast<int>(rng.UniformInt(1, 3));
    }
    // Near-periodic with bounded jitter (sensor clock drift, pipeline delay).
    const double jitter = rng.UniformDouble(-0.15, 0.15);
    return std::max(0.05 * period_us_, period_us_ * (1.0 + jitter));
  }

 private:
  DurationUs period_us_;
  int burst_remaining_ = 0;
};

// Non-homogeneous Poisson arrivals: rate(t) = mean_rps * shape(t) * mmpp(t),
// generated by thinning against the peak rate. Owns its absolute clock
// (accumulated interarrivals), so each instance is an independent stream.
class DiurnalArrivals : public ArrivalProcess {
 public:
  explicit DiurnalArrivals(const DiurnalConfig& config) : config_(config) {
    ORION_CHECK(config.mean_rps > 0.0);
    ORION_CHECK(config.shape.period_us > 0.0);
    ORION_CHECK(config.shape.peak_to_trough >= 1.0);
    const double base_per_us = config.mean_rps / kUsPerSec;
    const double burst_peak = std::max(
        config.burst.enabled() ? config.burst.burst_factor : 1.0, config.burst.calm_multiplier());
    peak_rate_per_us_ = base_per_us * (1.0 + config.shape.amplitude()) * burst_peak;
    ORION_CHECK(peak_rate_per_us_ > 0.0);
  }

  DurationUs NextInterarrival(Rng& rng) override {
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

 private:
  double RateAt(TimeUs t) const {
    const double base_per_us = config_.mean_rps / kUsPerSec;
    double rate = base_per_us * config_.shape.Multiplier(t);
    if (config_.burst.enabled()) {
      rate *= bursting_ ? config_.burst.burst_factor : config_.burst.calm_multiplier();
    }
    return rate;
  }

  void AdvanceBurstState(Rng& rng, TimeUs until) {
    if (!config_.burst.enabled()) {
      return;
    }
    const double mean_calm = config_.burst.mean_burst_us *
                             (1.0 - config_.burst.burst_fraction) /
                             config_.burst.burst_fraction;
    if (!burst_seeded_) {
      // Start calm; the first transition is one mean calm period out.
      burst_seeded_ = true;
      bursting_ = false;
      burst_edge_us_ = rng.Exponential(mean_calm);
    }
    while (burst_edge_us_ <= until) {
      bursting_ = !bursting_;
      burst_edge_us_ += rng.Exponential(bursting_ ? config_.burst.mean_burst_us : mean_calm);
    }
  }

  DiurnalConfig config_;
  double peak_rate_per_us_ = 0.0;  // thinning envelope
  TimeUs now_us_ = 0.0;            // accumulated synthetic clock
  bool bursting_ = false;
  TimeUs burst_edge_us_ = 0.0;     // next calm<->burst transition
  bool burst_seeded_ = false;
};

}  // namespace

std::unique_ptr<ArrivalProcess> MakeArrivals(ArrivalKind kind, double rps,
                                             const DiurnalConfig& diurnal) {
  if (kind == ArrivalKind::kClosedLoop) {
    return std::make_unique<ClosedLoopArrivals>();
  }
  ORION_CHECK(rps > 0.0);
  switch (kind) {
    case ArrivalKind::kUniform:
      return std::make_unique<UniformArrivals>(rps);
    case ArrivalKind::kPoisson:
      return std::make_unique<PoissonArrivals>(rps);
    case ArrivalKind::kApollo:
      return std::make_unique<ApolloArrivals>(rps);
    case ArrivalKind::kDiurnal: {
      DiurnalConfig config = diurnal;
      if (config.mean_rps <= 0.0) {
        config.mean_rps = rps;
      }
      return std::make_unique<DiurnalArrivals>(config);
    }
    case ArrivalKind::kClosedLoop:
      break;
  }
  ORION_CHECK_MSG(false, "unknown arrival kind");
  return nullptr;
}

}  // namespace trace
}  // namespace orion
