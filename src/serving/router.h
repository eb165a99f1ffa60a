// Front-end router: picks a replica for each admitted request.
//
// Three pluggable policies:
//   * round-robin         — rotates over the model's active replicas,
//                           load-blind (the baseline).
//   * least-outstanding   — fewest queued + in-flight requests; classic
//                           join-shortest-queue.
//   * interference-aware  — least predicted *time* to drain the replica's
//                           outstanding work, where each replica's work is
//                           scaled by its current interference slowdown
//                           (cluster::PairInterference pressure from its GPU
//                           co-residents). Two replicas with equal queue
//                           lengths are not equal if one shares its GPU with
//                           a memory-hungry co-resident — this policy is the
//                           serving-tier consumer of the placement engine's
//                           interference predictions.
//
// All ties break towards the lowest replica id, so routing is deterministic.
#ifndef SRC_SERVING_ROUTER_H_
#define SRC_SERVING_ROUTER_H_

#include <cstdint>
#include <vector>

#include "src/common/time_types.h"
#include "src/serving/request.h"

namespace orion {
namespace serving {

enum class RoutePolicy : std::uint8_t {
  kRoundRobin,
  kLeastOutstanding,
  kInterferenceAware,
};

const char* RoutePolicyName(RoutePolicy policy);

// The RouteReason (request.h) a fresh Pick would report, given the
// candidate count.
RouteReason PickReason(RoutePolicy policy, std::size_t num_candidates);

// What the router sees of one candidate replica.
struct ReplicaView {
  int replica_id = -1;
  std::size_t queued = 0;          // waiting in the replica's batcher
  std::size_t in_flight = 0;       // in the batch currently on the device
  // Predicted drain time incl. slowdown. Only kInterferenceAware reads it,
  // so the engine leaves it 0 under the other policies.
  DurationUs outstanding_us = 0.0;
};

class Router {
 public:
  Router(RoutePolicy policy, std::size_t num_models);

  // Returns the chosen candidate's index (not replica id). `candidates` must
  // be non-empty and sorted by replica_id ascending (the engine guarantees
  // this); `model` selects the round-robin cursor.
  std::size_t Pick(std::size_t model, const std::vector<ReplicaView>& candidates);

  RoutePolicy policy() const { return policy_; }

 private:
  RoutePolicy policy_;
  std::vector<std::uint64_t> rr_cursor_;  // one per model service
};

}  // namespace serving
}  // namespace orion

#endif  // SRC_SERVING_ROUTER_H_
