#include "src/serving/serving.h"

// The serving engine itself is the cluster engine in
// src/datacenter/cluster_engine.cc; RunServing is defined there as the
// num_nodes == 1 case. This file keeps the pure helpers on the public
// serving types.

namespace orion {
namespace serving {

const char* PriorityTierName(PriorityTier tier) {
  switch (tier) {
    case PriorityTier::kLatencyCritical:
      return "latency-critical";
    case PriorityTier::kBestEffort:
      return "best-effort";
  }
  return "unknown";
}

double ServingResult::MeanAttainment() const {
  std::size_t offered = 0;
  std::size_t met = 0;
  for (const ModelServingResult& model : models) {
    offered += model.offered;
    met += model.slo_met;
  }
  return offered > 0 ? static_cast<double>(met) / static_cast<double>(offered) : 1.0;
}

}  // namespace serving
}  // namespace orion
