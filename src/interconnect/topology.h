// Intra-node GPU interconnect topology.
//
// Models the link fabric of one multi-GPU server: GPUs attached to a shared
// PCIe root complex (one x16 link per GPU) plus optional direct NVLink
// connections between GPU pairs. Every link is full duplex — each direction
// has its own bandwidth, so a send and a receive on the same link do not
// contend. Transfers route over the fewest links: a direct NVLink when one
// exists, otherwise up the source's PCIe link and down the destination's
// (through the root complex, which itself is not a bottleneck here).
//
// The topology is pure data: bandwidth sharing and transfer timing live in
// Fabric (fabric.h); ring construction helpers here are shared by the
// collective layer and the cluster placement engine.
#ifndef SRC_INTERCONNECT_TOPOLOGY_H_
#define SRC_INTERCONNECT_TOPOLOGY_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace orion {
namespace interconnect {

using LinkId = int;
constexpr LinkId kInvalidLink = -1;

// Node id of the host / PCIe root complex in routes and transfer endpoints.
constexpr int kHostNode = -1;

// kNic marks datacenter NIC/ToR links: the datacenter layer (src/datacenter)
// reuses this topology + Fabric at node granularity, with each *node* as an
// endpoint, its NIC as the host link and the ToR switch as the root.
enum class LinkKind : std::uint8_t { kPcie, kNvLink, kNic };

const char* LinkKindName(LinkKind kind);

struct Link {
  LinkId id = kInvalidLink;
  std::string name;
  LinkKind kind = LinkKind::kPcie;
  // Endpoints. PCIe links connect the host root complex (node_a == kHostNode)
  // to one GPU; NVLink links connect two GPUs directly.
  int node_a = kHostNode;
  int node_b = 0;
  double gbps = 0.0;        // per direction (full duplex)
  double latency_us = 0.0;  // fixed per-transfer setup cost
};

// One traversal of a link. `forward` means node_a -> node_b.
struct Hop {
  LinkId link = kInvalidLink;
  bool forward = true;

  bool operator==(const Hop&) const = default;
};

// The hops of one route, stored inline: a route is a direct link or the
// bounce up the source's host link and down the destination's, never more
// than two hops, so a transfer's route costs no allocation.
class Path {
 public:
  Path() = default;
  explicit Path(Hop only) : hops_{only}, size_(1) {}
  Path(Hop first, Hop second) : hops_{first, second}, size_(2) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Hop& operator[](std::size_t i) const { return hops_[i]; }
  const Hop* begin() const { return hops_.data(); }
  const Hop* end() const { return hops_.data() + size_; }

 private:
  std::array<Hop, 2> hops_{};
  std::size_t size_ = 0;
};

// Default link speeds (GB/s per direction), roughly PCIe 3.0 x16 effective
// throughput and a 2-brick V100 NVLink pair.
constexpr double kDefaultPcieGbps = 12.0;
constexpr double kDefaultNvLinkGbps = 90.0;
constexpr double kDefaultLinkLatencyUs = 2.0;

class NodeTopology {
 public:
  NodeTopology() = default;

  // All GPUs hang off the shared PCIe root; no NVLink (e.g. a cloud
  // inference box). Peer transfers bounce through the root complex.
  static NodeTopology PcieOnly(int num_gpus, double pcie_gbps = kDefaultPcieGbps);

  // DGX-style pairing: GPUs (0,1), (2,3), ... get a direct NVLink, everyone
  // shares the PCIe root for host traffic and cross-pair transfers.
  static NodeTopology NvLinkPairs(int num_gpus, double nvlink_gbps = kDefaultNvLinkGbps,
                                  double pcie_gbps = kDefaultPcieGbps);

  // NVSwitch-style all-to-all NVLink (every GPU pair directly connected).
  static NodeTopology FullNvLink(int num_gpus, double nvlink_gbps = kDefaultNvLinkGbps,
                                 double pcie_gbps = kDefaultPcieGbps);

  // One server node's datacenter-network hop: a full-duplex NIC link (kNic)
  // from endpoint 0 — the *node*, not a GPU — to a non-blocking ToR switch at
  // the root (kHostNode). The Fabric over it models cross-node traffic with
  // NIC bandwidth and switch latency in place of PCIe/NVLink numbers.
  static NodeTopology NicStar(double nic_gbps, double nic_latency_us);

  int num_gpus() const { return num_gpus_; }
  const std::vector<Link>& links() const { return links_; }
  const Link& link(LinkId id) const;

  // The PCIe host link of `gpu`.
  LinkId PcieLink(int gpu) const;
  // Direct NVLink between two GPUs, or kInvalidLink.
  LinkId NvLinkBetween(int gpu_a, int gpu_b) const;

  // Route of a transfer src -> dst; either endpoint may be kHostNode.
  // GPU pairs use their NVLink when present, otherwise PCIe via the root.
  Path Route(int src, int dst) const;

  // Orders `gpus` into a ring that maximises NVLink adjacency (greedy
  // nearest-neighbour from the lowest id; deterministic). The collective
  // layer runs rings in this order.
  std::vector<int> PreferredRing(std::vector<int> gpus) const;

 private:
  int num_gpus_ = 0;
  std::vector<Link> links_;
  std::vector<LinkId> pcie_links_;  // indexed by GPU

  static NodeTopology WithPcieHostLinks(int num_gpus, double pcie_gbps);
  void AddNvLink(int gpu_a, int gpu_b, double gbps);
};

}  // namespace interconnect
}  // namespace orion

#endif  // SRC_INTERCONNECT_TOPOLOGY_H_
