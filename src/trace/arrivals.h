// Request arrival processes (§6.1): the one arrival model every client and
// serving front-end draws from.
//
// The paper drives inference jobs with three arrival patterns:
//   * Uniform inter-arrival — autonomous-driving style periodic requests,
//   * Poisson — event-driven services (rates from the Azure Functions trace,
//     Table 3),
//   * the Apollo object-detection trace from the DISB benchmark.
// Training jobs submit iterations in a closed loop. Multi-hour datacenter
// runs add a fifth, non-stationary shape: a diurnal wave with bursts
// (diurnal.h).
//
// The real Apollo trace is not redistributable here; the kApollo process is a
// seeded synthetic stand-in: near-periodic camera-frame arrivals with bounded
// jitter plus occasional short bursts (multiple sensor events in one frame
// window), which reproduces the queueing pressure the trace exerts.
#ifndef SRC_TRACE_ARRIVALS_H_
#define SRC_TRACE_ARRIVALS_H_

#include <cstdint>
#include <memory>

#include "src/common/rng.h"
#include "src/common/time_types.h"
#include "src/trace/diurnal.h"

namespace orion {
namespace trace {

enum class ArrivalKind : std::uint8_t {
  kClosedLoop,  // back-to-back requests (training jobs, offline inference)
  kUniform,     // inter-arrival exactly 1/rps
  kPoisson,     // exponential inter-arrival with mean 1/rps
  kApollo,      // synthetic Apollo-like trace; bursts add ~10% over rps
  kDiurnal,     // non-homogeneous Poisson: sinusoidal wave times MMPP bursts
};

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  // Time until the next request arrives. Called once per arrival.
  virtual DurationUs NextInterarrival(Rng& rng) = 0;

  // True for closed-loop processes: the next request is issued immediately
  // after the previous one completes, and NextInterarrival is not used.
  virtual bool closed_loop() const { return false; }
};

// The arrival process of `kind` at `rps` > 0 requests per second (unused by
// kClosedLoop). kDiurnal takes its shape and bursts from `diurnal` and runs
// at a long-run mean of `rps`, unless diurnal.mean_rps (default 0) is set.
std::unique_ptr<ArrivalProcess> MakeArrivals(ArrivalKind kind, double rps,
                                             const DiurnalConfig& diurnal = {});

}  // namespace trace
}  // namespace orion

#endif  // SRC_TRACE_ARRIVALS_H_
