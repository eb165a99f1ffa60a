#include "src/common/rng.h"

#include <cmath>

#include "src/common/check.h"

namespace orion {

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  ORION_CHECK(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {
    // Full 64-bit range requested.
    return static_cast<std::int64_t>(NextU64());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t draw = NextU64();
  while (draw >= limit) {
    draw = NextU64();
  }
  return lo + static_cast<std::int64_t>(draw % span);
}

double Rng::Exponential(double mean) {
  ORION_CHECK(mean > 0.0);
  // 1 - NextDouble() is in (0, 1], so the log argument never hits zero.
  return -mean * std::log(1.0 - NextDouble());
}

Rng Rng::Fork(std::uint64_t stream_id) const {
  std::uint64_t sm = state_[0] ^ (stream_id * 0x9e3779b97f4a7c15ULL) ^ state_[3];
  return Rng(SplitMix64(sm));
}

}  // namespace orion
