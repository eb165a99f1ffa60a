// Anti-thrashing policy for nvshare-style time-quantum sharing.
//
// nvshare's scheduler watches the unified-memory fault stream: as long as
// the collocation's working sets co-fit, everyone shares the GPU freely;
// once sustained fault traffic shows the clients evicting each other's pages
// (thrashing), it falls back to an exclusive time-quantum schedule — one
// client resident at a time, quanta long enough to amortise the swap-in.
//
// The two policy pieces live here as pure logic so the unit suite can drive
// them without a simulator:
//
//   * ThrashDetector — hysteresis over sampled paging-busy fractions. Enters
//     thrashing only when memory is actually oversubscribed AND the PCIe
//     paging duty-cycle stays above the enter threshold for two consecutive
//     samples (one cold-start burst is not thrash). Exits only when
//     oversubscription itself has ended (a client released/crashed) and the
//     duty-cycle has stayed low for five samples — while memory stays oversubscribed the
//     exclusive schedule holds, because leaving it would immediately thrash
//     again (the oscillation nvshare avoids by never reverting).
//
//   * QuantumPolicy — sizes the exclusive quantum from the measured swap
//     cost: quantum = clamp(8 * measured_swap_us, 50 ms, 2 s),
//     so a client always gets enough uninterrupted time to amortise paging
//     its working set back in.
#ifndef SRC_MEMSUB_THRASH_H_
#define SRC_MEMSUB_THRASH_H_

#include "src/common/time_types.h"

namespace orion {
namespace memsub {

class ThrashDetector {
 public:
  // Feeds one sampling window; returns the (possibly updated) state.
  bool Observe(double paging_busy_fraction, bool oversubscribed);

  bool thrashing() const { return thrashing_; }
  void Reset();

 private:
  bool thrashing_ = false;
  int high_streak_ = 0;
  int low_streak_ = 0;
};

// Shortest exclusive quantum: what a client gets before any swap-in was
// measured.
inline constexpr DurationUs kMinQuantumUs = MsToUs(50.0);

// Quantum length for a client whose last working-set swap-in took
// `measured_swap_us` (0 when never measured: the minimum quantum applies).
DurationUs QuantumFromSwapCost(DurationUs measured_swap_us);

}  // namespace memsub
}  // namespace orion

#endif  // SRC_MEMSUB_THRASH_H_
