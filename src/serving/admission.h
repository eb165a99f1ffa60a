// SLO-aware admission control: early rejection of doomed requests.
//
// A request that will miss its deadline anyway is worse than a rejected one:
// it burns device time and pushes every request behind it past *its*
// deadline too (the queueing cascade that melts p99 at saturation). The
// controller predicts a request's completion time as the best candidate
// replica's outstanding-work drain time plus the request's own service cost,
// and sheds the request at arrival when that prediction exceeds the
// deadline.
//
// Priority tiers map to Orion's streams: best-effort services are shed more
// eagerly (slack < 1) so latency-critical traffic keeps its
// headroom during overload — the serving-tier analogue of the scheduler
// prioritising the hp stream.
#ifndef SRC_SERVING_ADMISSION_H_
#define SRC_SERVING_ADMISSION_H_

#include "src/common/time_types.h"
#include "src/serving/request.h"

namespace orion {
namespace serving {

struct AdmissionConfig {
  bool enabled = true;
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config);

  // `predicted_wait_us` is the best replica's predicted drain time;
  // `service_us` the request's own (batch-amortised) service cost. Returns
  // true to admit.
  bool Admit(const Request& request, PriorityTier tier, DurationUs predicted_wait_us,
             DurationUs service_us) const;

  const AdmissionConfig& config() const { return config_; }

 private:
  AdmissionConfig config_;
};

}  // namespace serving
}  // namespace orion

#endif  // SRC_SERVING_ADMISSION_H_
