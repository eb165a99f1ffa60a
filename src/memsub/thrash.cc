#include "src/memsub/thrash.h"

#include <algorithm>

namespace orion {
namespace memsub {

namespace {

// Paging-busy fraction (paging bytes / PCIe capacity of the window) at or
// above which a window counts as "high", and at or below which it is "low".
constexpr double kEnterBusy = 0.20;
constexpr double kExitBusy = 0.05;
constexpr int kEnterWindows = 2;  // consecutive high windows before entering
constexpr int kExitWindows = 5;   // consecutive low windows before exiting

constexpr DurationUs kMaxQuantumUs = SecToUs(2.0);
// Quantum as a multiple of the measured working-set swap cost: the client
// runs this many times longer than it took to page back in.
constexpr double kSwapCostFactor = 8.0;

}  // namespace

bool ThrashDetector::Observe(double paging_busy_fraction, bool oversubscribed) {
  const bool high = paging_busy_fraction >= kEnterBusy;
  const bool low = paging_busy_fraction <= kExitBusy;
  high_streak_ = high ? high_streak_ + 1 : 0;
  low_streak_ = low ? low_streak_ + 1 : 0;
  if (!thrashing_) {
    if (oversubscribed && high_streak_ >= kEnterWindows) {
      thrashing_ = true;
      low_streak_ = 0;
    }
  } else {
    // One-way while oversubscribed: reverting to free sharing would thrash
    // again immediately. Only a real capacity change (client exit) plus a
    // sustained quiet period ends the exclusive schedule.
    if (!oversubscribed && low_streak_ >= kExitWindows) {
      thrashing_ = false;
      high_streak_ = 0;
    }
  }
  return thrashing_;
}

void ThrashDetector::Reset() {
  thrashing_ = false;
  high_streak_ = 0;
  low_streak_ = 0;
}

DurationUs QuantumFromSwapCost(DurationUs measured_swap_us) {
  return std::clamp(kSwapCostFactor * measured_swap_us, kMinQuantumUs, kMaxQuantumUs);
}

}  // namespace memsub
}  // namespace orion
