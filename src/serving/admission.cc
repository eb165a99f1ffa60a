#include "src/serving/admission.h"

namespace orion {
namespace serving {

namespace {

// Shed when predicted completion > arrival + slack * slo. 1.0 sheds exactly
// at the predicted deadline miss; lower values shed earlier.
constexpr double kLcSlack = 1.0;  // latency-critical services
constexpr double kBeSlack = 0.7;  // best-effort services yield headroom first

}  // namespace

AdmissionController::AdmissionController(const AdmissionConfig& config) : config_(config) {}

bool AdmissionController::Admit(const Request& request, PriorityTier tier,
                                DurationUs predicted_wait_us, DurationUs service_us) const {
  if (!config_.enabled) {
    return true;
  }
  const double slack =
      tier == PriorityTier::kLatencyCritical ? kLcSlack : kBeSlack;
  const DurationUs slo = request.deadline_us - request.arrival_us;
  const TimeUs predicted_completion = request.arrival_us + predicted_wait_us + service_us;
  return predicted_completion <= request.arrival_us + slack * slo;
}

}  // namespace serving
}  // namespace orion
