#include "src/datacenter/cluster_topology.h"

#include "src/common/check.h"

namespace orion {
namespace datacenter {

ClusterTopology::ClusterTopology(const ClusterSpec& spec) : spec_(spec) {
  ORION_CHECK(spec.num_nodes >= 1);
  ORION_CHECK(spec.gpus_per_node >= 1);
  ORION_CHECK(spec.nic_gbps > 0.0);
  ORION_CHECK(spec.nic_latency_us >= 0.0);
}

int ClusterTopology::NodeOfGpu(int global_gpu) const {
  ORION_CHECK(global_gpu >= 0 && global_gpu < total_gpus());
  return global_gpu / spec_.gpus_per_node;
}

int ClusterTopology::LocalGpu(int global_gpu) const {
  ORION_CHECK(global_gpu >= 0 && global_gpu < total_gpus());
  return global_gpu % spec_.gpus_per_node;
}

int ClusterTopology::GlobalGpu(int node, int local_gpu) const {
  ORION_CHECK(node >= 0 && node < spec_.num_nodes);
  ORION_CHECK(local_gpu >= 0 && local_gpu < spec_.gpus_per_node);
  return node * spec_.gpus_per_node + local_gpu;
}

interconnect::NodeTopology ClusterTopology::MakeNetwork() const {
  return interconnect::NodeTopology::NicStar(spec_.num_nodes, spec_.nic_gbps,
                                             spec_.nic_latency_us);
}

interconnect::LinkId ClusterTopology::NicLink(int node) const {
  ORION_CHECK(node >= 0 && node < spec_.num_nodes);
  // NicStar appends one link per endpoint in node order.
  return static_cast<interconnect::LinkId>(node);
}

}  // namespace datacenter
}  // namespace orion
