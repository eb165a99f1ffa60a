#include "src/interconnect/topology.h"

#include <algorithm>

#include "src/common/check.h"

namespace orion {
namespace interconnect {

const char* LinkKindName(LinkKind kind) {
  switch (kind) {
    case LinkKind::kPcie:
      return "pcie";
    case LinkKind::kNvLink:
      return "nvlink";
    case LinkKind::kNic:
      return "nic";
  }
  return "invalid";
}

NodeTopology NodeTopology::WithPcieHostLinks(int num_gpus, double pcie_gbps) {
  ORION_CHECK(num_gpus >= 1);
  ORION_CHECK(pcie_gbps > 0.0);
  NodeTopology topo;
  topo.num_gpus_ = num_gpus;
  for (int gpu = 0; gpu < num_gpus; ++gpu) {
    Link link;
    link.id = static_cast<LinkId>(topo.links_.size());
    link.name = "pcie" + std::to_string(gpu);
    link.kind = LinkKind::kPcie;
    link.node_a = kHostNode;
    link.node_b = gpu;
    link.gbps = pcie_gbps;
    link.latency_us = kDefaultLinkLatencyUs;
    topo.pcie_links_.push_back(link.id);
    topo.links_.push_back(std::move(link));
  }
  return topo;
}

void NodeTopology::AddNvLink(int gpu_a, int gpu_b, double gbps) {
  ORION_CHECK(gpu_a >= 0 && gpu_a < num_gpus_);
  ORION_CHECK(gpu_b >= 0 && gpu_b < num_gpus_);
  ORION_CHECK(gpu_a != gpu_b);
  Link link;
  link.id = static_cast<LinkId>(links_.size());
  link.name = "nvlink" + std::to_string(gpu_a) + "-" + std::to_string(gpu_b);
  link.kind = LinkKind::kNvLink;
  link.node_a = std::min(gpu_a, gpu_b);
  link.node_b = std::max(gpu_a, gpu_b);
  link.gbps = gbps;
  link.latency_us = kDefaultLinkLatencyUs / 2.0;  // no root-complex traversal
  links_.push_back(std::move(link));
}

NodeTopology NodeTopology::PcieOnly(int num_gpus, double pcie_gbps) {
  return WithPcieHostLinks(num_gpus, pcie_gbps);
}

NodeTopology NodeTopology::NvLinkPairs(int num_gpus, double nvlink_gbps, double pcie_gbps) {
  NodeTopology topo = WithPcieHostLinks(num_gpus, pcie_gbps);
  for (int gpu = 0; gpu + 1 < num_gpus; gpu += 2) {
    topo.AddNvLink(gpu, gpu + 1, nvlink_gbps);
  }
  return topo;
}

NodeTopology NodeTopology::NicStar(double nic_gbps, double nic_latency_us) {
  ORION_CHECK(nic_gbps > 0.0);
  ORION_CHECK(nic_latency_us >= 0.0);
  NodeTopology topo;
  topo.num_gpus_ = 1;
  Link link;
  link.id = 0;
  link.name = "nic";
  link.kind = LinkKind::kNic;
  link.node_a = kHostNode;
  link.node_b = 0;
  link.gbps = nic_gbps;
  link.latency_us = nic_latency_us;
  topo.pcie_links_.push_back(link.id);  // the node's host link (Route uses it)
  topo.links_.push_back(std::move(link));
  return topo;
}

NodeTopology NodeTopology::FullNvLink(int num_gpus, double nvlink_gbps, double pcie_gbps) {
  NodeTopology topo = WithPcieHostLinks(num_gpus, pcie_gbps);
  for (int a = 0; a < num_gpus; ++a) {
    for (int b = a + 1; b < num_gpus; ++b) {
      topo.AddNvLink(a, b, nvlink_gbps);
    }
  }
  return topo;
}

const Link& NodeTopology::link(LinkId id) const {
  ORION_CHECK(id >= 0 && id < static_cast<LinkId>(links_.size()));
  return links_[static_cast<std::size_t>(id)];
}

LinkId NodeTopology::PcieLink(int gpu) const {
  ORION_CHECK(gpu >= 0 && gpu < num_gpus_);
  return pcie_links_[static_cast<std::size_t>(gpu)];
}

LinkId NodeTopology::NvLinkBetween(int gpu_a, int gpu_b) const {
  const int lo = std::min(gpu_a, gpu_b);
  const int hi = std::max(gpu_a, gpu_b);
  for (const Link& link : links_) {
    if (link.kind == LinkKind::kNvLink && link.node_a == lo && link.node_b == hi) {
      return link.id;
    }
  }
  return kInvalidLink;
}

Path NodeTopology::Route(int src, int dst) const {
  ORION_CHECK(src != dst);
  ORION_CHECK(src == kHostNode || (src >= 0 && src < num_gpus_));
  ORION_CHECK(dst == kHostNode || (dst >= 0 && dst < num_gpus_));
  if (src == kHostNode) {
    return Path(Hop{PcieLink(dst), true});
  }
  if (dst == kHostNode) {
    return Path(Hop{PcieLink(src), false});
  }
  const LinkId nv = NvLinkBetween(src, dst);
  if (nv != kInvalidLink) {
    return Path(Hop{nv, link(nv).node_a == src});
  }
  // Bounce through the root complex: up the source's link, down the
  // destination's. Each direction of each PCIe link is an independent
  // resource, so this transfer contends with host traffic of both GPUs.
  return Path(Hop{PcieLink(src), false}, Hop{PcieLink(dst), true});
}

std::vector<int> NodeTopology::PreferredRing(std::vector<int> gpus) const {
  if (gpus.size() <= 1) {
    return gpus;
  }
  std::sort(gpus.begin(), gpus.end());
  std::vector<int> ring;
  std::vector<bool> used(gpus.size(), false);
  ring.push_back(gpus[0]);
  used[0] = true;
  while (ring.size() < gpus.size()) {
    const int current = ring.back();
    std::size_t pick = gpus.size();
    // Prefer an unused NVLink neighbour; else the lowest unused id.
    for (std::size_t i = 0; i < gpus.size(); ++i) {
      if (used[i]) {
        continue;
      }
      if (NvLinkBetween(current, gpus[i]) != kInvalidLink) {
        pick = i;
        break;
      }
      if (pick == gpus.size()) {
        pick = i;
      }
    }
    used[pick] = true;
    ring.push_back(gpus[pick]);
  }
  return ring;
}

}  // namespace interconnect
}  // namespace orion
