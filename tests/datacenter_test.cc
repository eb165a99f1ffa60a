// Datacenter subsystem tests (src/datacenter): cluster topology arithmetic,
// N=1 equivalence with the single-node serving engine, multi-node serving
// over the NIC/ToR network, node-granularity faults with cross-node
// failover, and the request accounting identity under all of it.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/datacenter/cluster.h"
#include "src/datacenter/cluster_topology.h"
#include "src/fault/fault_plan.h"
#include "src/serving/serving.h"

namespace orion {
namespace datacenter {
namespace {

using serving::ModelServiceConfig;
using serving::ModelServingResult;
using serving::PriorityTier;
using serving::ServingConfig;
using serving::ServingResult;
using workloads::MakeWorkload;
using workloads::ModelId;
using workloads::TaskType;

ModelServiceConfig Service(ModelId model, PriorityTier tier, double rps, DurationUs slo_us,
                           int initial_replicas = 1, int max_replicas = 8) {
  ModelServiceConfig cfg;
  cfg.workload = MakeWorkload(model, TaskType::kInference);
  cfg.tier = tier;
  cfg.rps = rps;
  cfg.slo_us = slo_us;
  cfg.initial_replicas = initial_replicas;
  cfg.max_replicas = max_replicas;
  return cfg;
}

ServingConfig BaseServing() {
  ServingConfig config;
  config.warmup_us = SecToUs(0.5);
  config.duration_us = SecToUs(4.0);
  config.models = {Service(ModelId::kResNet50, PriorityTier::kLatencyCritical, 200.0,
                           MsToUs(50.0), 2)};
  return config;
}

void ExpectModelResultsEqual(const ModelServingResult& a, const ModelServingResult& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.slo_met, b.slo_met);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.failed_over, b.failed_over);
  EXPECT_DOUBLE_EQ(a.slo_attainment, b.slo_attainment);
  EXPECT_DOUBLE_EQ(a.throughput_rps, b.throughput_rps);
  ASSERT_EQ(a.latency.count(), b.latency.count());
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_DOUBLE_EQ(a.latency.p99(), b.latency.p99());
  EXPECT_DOUBLE_EQ(a.queueing.mean(), b.queueing.mean());
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_DOUBLE_EQ(a.mean_batch_size, b.mean_batch_size);
  EXPECT_EQ(a.final_replicas, b.final_replicas);
  EXPECT_EQ(a.total_offered, b.total_offered);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_EQ(a.total_shed, b.total_shed);
  EXPECT_EQ(a.total_dropped, b.total_dropped);
  EXPECT_EQ(a.left_in_system, b.left_in_system);
}

void ExpectServingResultsEqual(const ServingResult& a, const ServingResult& b) {
  ASSERT_EQ(a.models.size(), b.models.size());
  for (std::size_t m = 0; m < a.models.size(); ++m) {
    ExpectModelResultsEqual(a.models[m], b.models[m]);
  }
  EXPECT_EQ(a.scale_ups, b.scale_ups);
  EXPECT_EQ(a.scale_downs, b.scale_downs);
  EXPECT_EQ(a.scale_failures, b.scale_failures);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.faults_skipped, b.faults_skipped);
  EXPECT_EQ(a.replicas_lost, b.replicas_lost);
  EXPECT_EQ(a.replacements, b.replacements);
  EXPECT_EQ(a.replacement_failures, b.replacement_failures);
  EXPECT_EQ(a.gpus_alive_end, b.gpus_alive_end);
  EXPECT_DOUBLE_EQ(a.replica_seconds, b.replica_seconds);
}

// --- Topology arithmetic. ---

TEST(ClusterTopologyTest, NodeMajorGpuIndexing) {
  ClusterSpec spec;
  spec.num_nodes = 3;
  spec.gpus_per_node = 4;
  const ClusterTopology topo(spec);
  EXPECT_EQ(topo.total_gpus(), 12);
  EXPECT_EQ(topo.GlobalGpu(0, 0), 0);
  EXPECT_EQ(topo.GlobalGpu(1, 0), 4);
  EXPECT_EQ(topo.GlobalGpu(2, 3), 11);
  for (int g = 0; g < topo.total_gpus(); ++g) {
    EXPECT_EQ(topo.GlobalGpu(topo.NodeOfGpu(g), topo.LocalGpu(g)), g);
  }
  EXPECT_EQ(topo.NodeOfGpu(7), 1);
  EXPECT_EQ(topo.LocalGpu(7), 3);
}

TEST(ClusterTopologyTest, NetworkIsANicStar) {
  ClusterSpec spec;
  spec.num_nodes = 4;
  spec.gpus_per_node = 2;
  spec.nic_gbps = 25.0;
  const ClusterTopology topo(spec);
  const interconnect::NodeTopology net = topo.MakeNetwork();
  // One NIC link per node, addressable for fault injection.
  for (int n = 0; n < spec.num_nodes; ++n) {
    const interconnect::LinkId link = topo.NicLink(n);
    EXPECT_EQ(net.links()[static_cast<std::size_t>(link)].kind,
              interconnect::LinkKind::kNic);
  }
}

// --- N=1 equivalence: the compatibility contract of the engine split. ---

TEST(DatacenterTest, SingleNodeClusterReproducesRunServingExactly) {
  // A config that exercises autoscaling, admission shedding AND failover.
  ServingConfig config = BaseServing();
  config.num_gpus = 3;
  config.models[0].rps = 350.0;
  config.autoscaler.enabled = true;
  config.autoscaler.eval_period_us = SecToUs(0.25);
  fault::FaultEvent death;
  death.kind = fault::FaultKind::kGpuDown;
  death.at_us = SecToUs(2.0);
  death.gpu = 0;
  config.fault_plan.events.push_back(death);

  const ServingResult direct = serving::RunServing(config);

  ClusterConfig cluster_config;
  cluster_config.cluster.num_nodes = 1;
  cluster_config.cluster.gpus_per_node = config.num_gpus;
  cluster_config.serving = config;
  const ClusterResult via_cluster = RunCluster(cluster_config);

  ExpectServingResultsEqual(direct, via_cluster.serving);
  ASSERT_EQ(via_cluster.nodes.size(), 1u);
  EXPECT_EQ(via_cluster.nodes_alive_end, 1u);
  EXPECT_EQ(via_cluster.node_faults, 0u);
  // N=1 never touches a network.
  EXPECT_EQ(via_cluster.requests_forwarded, 0u);
  EXPECT_DOUBLE_EQ(via_cluster.request_bytes_moved, 0.0);
}

// --- Multi-node serving. ---

ClusterConfig SmallCluster(int num_nodes, int gpus_per_node) {
  ClusterConfig config;
  config.cluster.num_nodes = num_nodes;
  config.cluster.gpus_per_node = gpus_per_node;
  config.serving = BaseServing();
  config.serving.models[0].initial_replicas = num_nodes;  // one per node
  config.serving.models[0].max_replicas = 2 * num_nodes;
  return config;
}

TEST(DatacenterTest, MultiNodeClusterServesOverTheNetwork) {
  const ClusterResult result = RunCluster(SmallCluster(4, 2));
  const ModelServingResult& model = result.serving.models[0];
  EXPECT_GT(model.offered, 600u);
  EXPECT_GE(model.slo_attainment, 0.9);
  EXPECT_EQ(model.dropped, 0u);
  // Every admitted request crossed the network, and both legs moved bytes.
  EXPECT_GE(result.requests_forwarded, model.total_completed);
  EXPECT_GT(result.request_bytes_moved, 0.0);
  EXPECT_GT(result.response_bytes_moved, result.request_bytes_moved);
  ASSERT_EQ(result.nodes.size(), 4u);
  EXPECT_EQ(result.nodes_alive_end, 4u);
  std::size_t total_requests = 0;
  for (const NodeSummary& node : result.nodes) {
    EXPECT_TRUE(node.alive_end);
    total_requests += node.requests;
  }
  EXPECT_EQ(total_requests, model.total_completed);
}

TEST(DatacenterTest, LeastOutstandingSpreadsLoadAcrossNodes) {
  // Fill every GPU (placement tie-breaks stack replicas on the lowest node
  // first, so one-replica-per-node needs a full fleet) and check every node
  // serves a non-trivial share.
  ClusterConfig config = SmallCluster(3, 2);
  config.serving.models[0].initial_replicas = 6;
  config.serving.models[0].max_replicas = 8;
  const ClusterResult result = RunCluster(config);
  for (const NodeSummary& node : result.nodes) {
    EXPECT_GT(node.requests, result.serving.models[0].total_completed / 10)
        << "node " << node.node;
  }
}

TEST(DatacenterTest, RoundRobinNodePolicyAlsoBalances) {
  ClusterConfig config = SmallCluster(3, 2);
  config.serving.models[0].initial_replicas = 6;
  config.serving.models[0].max_replicas = 8;
  config.node_policy = NodePolicy::kRoundRobin;
  const ClusterResult result = RunCluster(config);
  for (const NodeSummary& node : result.nodes) {
    EXPECT_GT(node.requests, 0u);
  }
  EXPECT_GE(result.serving.models[0].slo_attainment, 0.85);
}

TEST(DatacenterTest, NetworkLatencyShowsUpInEndToEndLatency) {
  ClusterConfig networked = SmallCluster(2, 2);
  ClusterConfig instant = SmallCluster(2, 2);
  instant.cluster.model_network = false;
  const ClusterResult with_net = RunCluster(networked);
  const ClusterResult without = RunCluster(instant);
  // Two NIC hops per request: the networked mean latency is strictly larger.
  EXPECT_GT(with_net.serving.models[0].latency.mean(),
            without.serving.models[0].latency.mean());
  EXPECT_EQ(without.requests_forwarded, 0u);
}

// --- Node-granularity faults. ---

ClusterConfig FailoverCluster() {
  ClusterConfig config = SmallCluster(3, 2);
  config.serving.models[0].rps = 240.0;
  fault::FaultEvent down;
  down.kind = fault::FaultKind::kNodeDown;
  down.at_us = SecToUs(2.0);
  down.node = 0;
  config.serving.fault_plan.events.push_back(down);
  return config;
}

TEST(DatacenterTest, NodeDownKillsItsReplicasAndFailsOverToSurvivors) {
  const ClusterResult result = RunCluster(FailoverCluster());
  const ModelServingResult& model = result.serving.models[0];
  EXPECT_EQ(result.node_faults, 1u);
  EXPECT_EQ(result.nodes_alive_end, 2u);
  EXPECT_EQ(result.serving.faults_injected, 1u);
  EXPECT_GE(result.serving.replicas_lost, 1u);
  // Every lost replica re-homed onto a surviving node's free GPU.
  EXPECT_EQ(result.serving.replacements, result.serving.replicas_lost);
  EXPECT_EQ(result.serving.replacement_failures, 0u);
  EXPECT_FALSE(result.nodes[0].alive_end);
  EXPECT_GT(model.failed_over, 0u);
  // Survivors plus the replacement absorb the full stream.
  EXPECT_EQ(model.total_dropped, 0u);
  EXPECT_GT(model.completed + model.left_in_system, model.offered * 9 / 10);
  // The dead node's GPUs are gone from the fleet.
  EXPECT_EQ(result.serving.gpus_alive_end, 4u);
}

TEST(DatacenterTest, SloAttainmentRecoversAfterNodeDeath) {
  // Compare the fault run against a fault-free twin: the post-failover
  // cluster keeps serving (attainment degrades boundedly, not to zero).
  ClusterConfig faulty = FailoverCluster();
  ClusterConfig healthy = FailoverCluster();
  healthy.serving.fault_plan.events.clear();
  const ClusterResult with_fault = RunCluster(faulty);
  const ClusterResult without = RunCluster(healthy);
  EXPECT_GE(without.serving.models[0].slo_attainment, 0.95);
  EXPECT_GE(with_fault.serving.models[0].slo_attainment, 0.5);
  EXPECT_GT(with_fault.serving.models[0].completed,
            without.serving.models[0].completed / 2);
}

TEST(DatacenterTest, AccountingIdentityHoldsThroughNodeDeath) {
  // One death (node 0), then two (node 0, then node 1 while node 0's
  // replacements and re-homed requests are still settling on the survivors).
  ClusterConfig twice = FailoverCluster();
  fault::FaultEvent second = twice.serving.fault_plan.events[0];
  second.at_us = SecToUs(3.0);
  second.node = 1;
  twice.serving.fault_plan.events.push_back(second);
  for (const ClusterConfig& config : {FailoverCluster(), twice}) {
    const std::size_t deaths = config.serving.fault_plan.events.size();
    const ClusterResult result = RunCluster(config);
    const ModelServingResult& model = result.serving.models[0];
    EXPECT_EQ(result.node_faults, deaths);
    EXPECT_EQ(result.nodes_alive_end, 3u - deaths);
    // The engine CHECKs the identity internally (including requests cut off
    // mid-network by the NIC going dark); assert it end-to-end here too.
    EXPECT_EQ(model.total_offered, model.total_completed + model.total_shed +
                                       model.total_dropped + model.left_in_system)
        << deaths << " node death(s)";
  }
}

// Node-fault churn on a 4-node cluster: two kills mid-run while requests are
// in flight over the network. No request is lost in transit — every offered
// request is accounted for — and a same-seed rerun is bit-identical.
TEST(ParallelBitIdentityTest, NoMessageLossUnderNodeFaultChurn) {
  for (std::uint64_t seed : {5u, 17u}) {
    ClusterConfig config = SmallCluster(4, 2);
    config.serving.seed = seed;
    config.serving.models[0].rps = 240.0;
    for (int i = 0; i < 2; ++i) {
      fault::FaultEvent down;
      down.kind = fault::FaultKind::kNodeDown;
      down.at_us = SecToUs(1.0 + 0.7 * i);
      down.node = i;  // nodes 0 then 1 die mid-run
      config.serving.fault_plan.events.push_back(down);
    }
    const ClusterResult first = RunCluster(config);
    const ClusterResult again = RunCluster(config);
    EXPECT_EQ(first.node_faults, 2u);
    EXPECT_GT(first.requests_forwarded, 0u);
    const ModelServingResult& m = first.serving.models[0];
    EXPECT_EQ(m.total_offered, m.total_completed + m.total_shed + m.total_dropped +
                                   m.left_in_system)
        << "seed=" << seed;
    EXPECT_TRUE(ClusterResultsBitIdentical(first, again)) << "seed=" << seed;
  }
}

TEST(DatacenterTest, NodeDownOnDeadNodeIsSkipped) {
  ClusterConfig config = FailoverCluster();
  fault::FaultEvent again = config.serving.fault_plan.events[0];
  again.at_us = SecToUs(3.0);  // second kill of the same node
  config.serving.fault_plan.events.push_back(again);
  const ClusterResult result = RunCluster(config);
  EXPECT_EQ(result.node_faults, 1u);
  EXPECT_EQ(result.serving.faults_injected, 1u);
  EXPECT_EQ(result.serving.faults_skipped, 1u);
}

TEST(DatacenterTest, SameSeedClusterRunsAreIdentical) {
  const ClusterConfig config = FailoverCluster();
  const ClusterResult a = RunCluster(config);
  const ClusterResult b = RunCluster(config);
  EXPECT_TRUE(ClusterResultsBitIdentical(a, b));
}

}  // namespace
}  // namespace datacenter
}  // namespace orion
