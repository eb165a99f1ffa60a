#include "src/trace/diurnal.h"

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
