// Diurnal arrival synthesis: multi-hour non-stationary load shapes.
//
// Production inference traffic is not stationary: request rate follows a
// daily cycle (diurnal wave) with short bursty episodes superimposed. This
// module synthesizes such traffic for the datacenter serving experiments:
//
//   * DiurnalShape       — a sinusoidal rate multiplier with mean exactly 1,
//                          parameterized by period, peak-to-trough ratio and
//                          phase, so `mean_rps` stays the long-run average.
//   * BurstMix           — a two-state MMPP (calm/burst) whose expected
//                          multiplier is also 1: bursts raise the rate by
//                          `burst_factor` for exponentially-distributed
//                          episodes, calm periods compensate below 1.
//   * DiurnalConfig      — both modulators around a long-run mean rate: the
//                          parameters of the ArrivalKind::kDiurnal process
//                          (arrivals.h), a non-homogeneous Poisson process
//                          generated by thinning against the peak rate
//                          (Lewis & Shedler), bit-deterministic under a
//                          fixed Rng.
//   * DiurnalMix         — a per-service bundle of DiurnalConfigs with a
//                          shared shape, the front door used by the
//                          datacenter bench's 24h-compressed mix.
#ifndef SRC_TRACE_DIURNAL_H_
#define SRC_TRACE_DIURNAL_H_

#include <string>
#include <vector>

#include "src/common/time_types.h"

namespace orion {
namespace trace {

// Sinusoidal mean-1 rate multiplier:
//   shape(t) = 1 + a * sin(2*pi*t/period + phase),  a = (R-1)/(R+1)
// where R = peak_to_trough >= 1. R == 1 gives a flat multiplier of 1.
struct DiurnalShape {
  DurationUs period_us = SecToUs(24.0 * 3600.0);
  double peak_to_trough = 3.0;  // peak rate / trough rate, >= 1
  double phase_rad = 0.0;       // 0: run starts at the mean, rising edge

  double amplitude() const { return (peak_to_trough - 1.0) / (peak_to_trough + 1.0); }
  // The multiplier at absolute time t (mean 1 over a full period).
  double Multiplier(TimeUs t) const;
};

// Two-state MMPP burst modulator with E[multiplier] == 1. While bursting the
// rate is multiplied by `burst_factor`; while calm, by
//   calm = (1 - p * burst_factor) / (1 - p),   p = expected burst fraction,
// which requires p * burst_factor < 1. burst_factor <= 1 disables bursts.
struct BurstMix {
  double burst_factor = 1.0;              // rate multiplier inside a burst
  double burst_fraction = 0.0;            // long-run fraction of time bursting
  DurationUs mean_burst_us = SecToUs(2.0);  // mean burst episode length

  bool enabled() const { return burst_factor > 1.0 && burst_fraction > 0.0; }
  double calm_multiplier() const;
};

struct DiurnalConfig {
  double mean_rps = 0.0;  // long-run average rate; <= 0: MakeArrivals' rps
  DiurnalShape shape;
  BurstMix burst;
};

// Per-service diurnal configs sharing one shape (each service keeps its own
// phase so peaks need not align). Front door for multi-model datacenter mixes.
class DiurnalMix {
 public:
  explicit DiurnalMix(const DiurnalShape& shape) : shape_(shape) {}

  // Adds a service with an explicit config (shape overridden by the mix's,
  // keeping the caller's phase if it set one explicitly via `phase_rad`).
  void AddService(const std::string& service, const DiurnalConfig& config);

  std::size_t size() const { return services_.size(); }
  const std::string& service_name(std::size_t i) const { return services_[i].name; }
  const DiurnalConfig& service_config(std::size_t i) const { return services_[i].config; }

 private:
  struct Entry {
    std::string name;
    DiurnalConfig config;
  };
  DiurnalShape shape_;
  std::vector<Entry> services_;
};

}  // namespace trace
}  // namespace orion

#endif  // SRC_TRACE_DIURNAL_H_
