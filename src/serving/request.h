// Online serving request model.
//
// The serving front-end (serving.h) sits one level above the per-GPU Orion
// scheduler: its unit of work is a whole inference request, not a kernel.
// Each request belongs to one model service, carries the arrival timestamp
// and the latency deadline derived from the service's SLO, and ends in
// exactly one terminal outcome. Priority tiers map onto Orion's two stream
// classes: latency-critical services run in the hp stream of their GPU
// (small interference penalty, one per GPU), best-effort services in the be
// stream (they harvest leftover capacity and absorb most of the contention).
#ifndef SRC_SERVING_REQUEST_H_
#define SRC_SERVING_REQUEST_H_

#include <cstdint>

#include "src/common/time_types.h"
#include "src/telemetry/attribution/ledger.h"

namespace orion {
namespace serving {

// Maps to the Orion stream the replica's kernels run in (§5.1.2).
enum class PriorityTier : std::uint8_t {
  kLatencyCritical,  // hp stream: protected, one such replica per GPU
  kBestEffort,       // be stream: harvests idle capacity, absorbs contention
};

const char* PriorityTierName(PriorityTier tier);

// Terminal state of a request. Every admitted or shed request ends in
// exactly one of these; the accounting identity
//   offered == completed + shed + dropped + left_in_system
// is asserted by the engine at the end of every run.
enum class RequestOutcome : std::uint8_t {
  kPending,    // still queued or in flight
  kCompleted,  // served (SLO met or violated — recorded separately)
  kShed,       // rejected at admission (predicted deadline miss)
  kDropped,    // lost: no surviving or pending replica could take it
};

// Why a request landed on its replica; recorded as the `route_reason`
// attribute on request spans so a trace distinguishes a first-choice pick
// from a failover rehome or a limbo drain.
enum class RouteReason : std::uint8_t {
  kOnlyCandidate,      // a single active replica — no choice to make
  kRoundRobin,         // round-robin cursor pick
  kLeastOutstanding,   // fewest queued + in-flight
  kInterferenceAware,  // least slowdown-scaled drain time
  kFailoverRehome,     // re-routed after its replica or node died
  kLimboDrain,         // parked in limbo, drained when a replica activated
};

const char* RouteReasonName(RouteReason reason);

struct Request {
  std::uint64_t id = 0;
  int model = -1;              // index into ServingConfig::models
  int node = -1;               // datacenter node serving it (-1: single-node)
  TimeUs arrival_us = 0.0;
  // Arrival + the service's SLO. For LLM services this is the TTFT deadline
  // (arrival + ttft_slo_us), the per-token deadline admission gates on.
  TimeUs deadline_us = 0.0;
  TimeUs enqueue_us = 0.0;     // last time it entered a replica queue
  TimeUs start_service_us = 0.0;
  int failovers = 0;           // times re-routed after a replica death
  RouteReason route_reason = RouteReason::kOnlyCandidate;
  RequestOutcome outcome = RequestOutcome::kPending;

  // LLM sequence state (services with ModelServiceConfig::llm.enabled; zero
  // otherwise). A sequence's live KV context is prompt_tokens + generated.
  int prompt_tokens = 0;       // prompt length (prefill input)
  int target_tokens = 0;       // decode tokens this request wants
  int generated = 0;           // decode tokens produced so far
  int evictions = 0;           // KV-pressure preemptions (recompute on rejoin)
  TimeUs first_token_us = -1.0;  // TTFT landmark; < 0 until the first token

  // Per-request latency attribution (DESIGN.md §15). Inert unless the run's
  // telemetry hub has attribution enabled; the engines drive its phase
  // transitions and finalize it at completion.
  attribution::LatencyLedger ledger;
};

}  // namespace serving
}  // namespace orion

#endif  // SRC_SERVING_REQUEST_H_
