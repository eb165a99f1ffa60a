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

}  // namespace serving
}  // namespace orion
