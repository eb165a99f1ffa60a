// Datacenter-scale serving: N nodes x M GPUs behind a network fabric
// (DESIGN.md §12).
//
// The serving engine (src/serving) answers "how do routing, batching,
// admission, autoscaling and failover behave on ONE multi-GPU node". This
// subsystem scales that question out: `num_nodes` server nodes, each with
// `gpus_per_node` GPUs, joined by a datacenter network (NicNetwork, in
// nic_network.h: the PCIe/NVLink fabric model at NIC bandwidth).
//
// One engine (cluster_engine.cc) owns every replica and GPU. GPUs are
// indexed node-major (global = node * gpus_per_node + local), so fault plans
// written against the single-node GPU space keep meaning on a cluster.
// Routing is two-level: the front-end picks a *node* for each admitted
// request (least-outstanding across nodes), then the serving::Router policy
// picks a replica on that node, which batches and serves it.
//
// With num_nodes == 1 the network is not modeled; serving::RunServing is a
// thin wrapper over RunCluster on a one-node cluster.
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

// Physical shape of the cluster. The network is modeled whenever
// num_nodes > 1; a single node never crosses it.
struct ClusterSpec {
  int num_nodes = 1;
  int gpus_per_node = 4;
};

struct ClusterConfig {
  ClusterSpec cluster;
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

  bool operator==(const NodeSummary&) const = default;
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
