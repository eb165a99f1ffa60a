// Deterministic random number generation for the simulator.
//
// Every stochastic component (arrival processes, jitter, tie-breaking noise)
// draws from an explicitly seeded Rng so that experiments are reproducible
// bit-for-bit across runs and platforms. The generator is xoshiro256**,
// seeded via SplitMix64, which is fast, high quality, and has a trivially
// portable implementation (unlike std::mt19937 whose distributions are not
// specified identically across standard libraries).
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>

namespace orion {

// SplitMix64: used to expand a single seed into xoshiro state and as a cheap
// standalone mixer for deriving per-component seeds.
inline std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) {
      word = SplitMix64(sm);
    }
  }

  // Uniform on [0, 2^64).
  std::uint64_t NextU64() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform double on [0, 1).
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

  // Uniform double on [lo, hi).
  double UniformDouble(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  // Uniform integer on [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  // Exponential with the given mean (inverse of the rate parameter).
  double Exponential(double mean);

  // Derives an independent child generator; `stream_id` selects the stream.
  Rng Fork(std::uint64_t stream_id) const;

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t state_[4];
};

}  // namespace orion

#endif  // SRC_COMMON_RNG_H_
