// Datacenter-scale serving: N nodes x M GPUs behind a network fabric
// (DESIGN.md §12).
//
// The serving engine (src/serving) answers "how do routing, batching,
// admission, autoscaling and failover behave on ONE multi-GPU node". This
// subsystem scales that question out: a ClusterTopology of `num_nodes`
// server nodes, each with `gpus_per_node` GPUs, joined by a datacenter
// network modeled as an interconnect::Fabric over a NIC/ToR star topology —
// the same fluid-flow link model that times PCIe and NVLink transfers inside
// a node, reused at NIC bandwidth and switch latency.
//
// Control is two-level:
//   * a global front-end owns arrivals, SLO admission, the service limbo
//     queues, the autoscaler and fault handling, and picks a *node* for each
//     admitted request (least-outstanding across nodes);
//   * a per-node engine (node_engine.h) owns that node's GPUs and replicas
//     and picks the *replica* (the serving::Router policy), then batches and
//     serves exactly as the single-node engine did.
//
// With num_nodes == 1 the network is not modeled and the cluster path
// reduces to the original single-node engine — serving::RunServing is now a
// thin wrapper over RunCluster and reproduces its previous results exactly.
//
// Faults: the fault::FaultPlan gains kNodeDown at this level. A node death
// kills every replica on it, zeroes its NIC, and cancels in-flight transfers
// touching it; queued and in-flight requests re-route to surviving nodes
// through the same limbo-queue machinery replica failover uses, and
// replacements provision on survivors (state transfer over the fabric, then
// the usual provisioning delay).
#ifndef SRC_DATACENTER_CLUSTER_H_
#define SRC_DATACENTER_CLUSTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/serving/serving.h"

namespace orion {
namespace datacenter {

// Physical shape of the cluster and its network.
struct ClusterSpec {
  int num_nodes = 1;
  int gpus_per_node = 4;

  // NIC/ToR star fabric (per direction, full duplex). Defaults roughly match
  // a 100 GbE NIC through one switch hop.
  double nic_gbps = 12.5;
  double nic_latency_us = 10.0;

  // Request/response payloads crossing the network (serialized tensors).
  std::size_t request_bytes = 32 * 1024;
  std::size_t response_bytes = 128 * 1024;

  // Model the network fabric (transfers, contention, NIC faults). Only takes
  // effect with num_nodes > 1; a single node never crosses the network.
  bool model_network = true;
};

// How the front-end picks a node for an admitted request. The replica within
// the node is always picked by the serving::Router policy.
enum class NodePolicy : std::uint8_t {
  kLeastOutstanding,  // node whose best replica has the least predicted wait
  kRoundRobin,        // rotate over nodes with an active replica
};

const char* NodePolicyName(NodePolicy policy);

struct ClusterConfig {
  ClusterSpec cluster;
  NodePolicy node_policy = NodePolicy::kLeastOutstanding;
  // Per-service workloads, policies, faults, telemetry. `serving.num_gpus`
  // is ignored here: the GPU count is cluster.num_nodes * gpus_per_node.
  serving::ServingConfig serving;

  // Kept only because perfbench/workloads.cc sets it to 1; RunCluster
  // checks that it is 1.
  int lp_threads = 1;
};

// Per-node activity over the whole run.
struct NodeSummary {
  int node = 0;
  bool alive_end = true;
  std::size_t replicas_created = 0;
  std::size_t replicas_killed = 0;  // lost to faults (drained retires excluded)
  std::size_t batches = 0;          // batches served on this node
  std::size_t requests = 0;         // requests served on this node
};

struct ClusterResult {
  // The familiar per-service results; identical to the single-node engine's
  // output when num_nodes == 1.
  serving::ServingResult serving;

  std::vector<NodeSummary> nodes;
  std::size_t nodes_alive_end = 0;
  std::size_t node_faults = 0;          // kNodeDown events applied
  std::size_t requests_forwarded = 0;   // front-end -> node network sends
  double request_bytes_moved = 0.0;     // toward nodes (requests + state)
  double response_bytes_moved = 0.0;    // toward the front-end
};

ClusterResult RunCluster(const ClusterConfig& config);

// True when the two results are indistinguishable down to the last bit:
// every counter equal, every double bit-identical (std::bit_cast, so -0.0
// != 0.0 and NaN payloads count), every latency recorder's raw sample
// sequence identical element-wise and in order. Same-seed runs must satisfy
// it; the determinism tests and perfbench's repeat check assert it.
bool ClusterResultsBitIdentical(const ClusterResult& a, const ClusterResult& b);

}  // namespace datacenter
}  // namespace orion

#endif  // SRC_DATACENTER_CLUSTER_H_
