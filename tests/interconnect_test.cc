// Tests for the node interconnect: topology routing and the fluid-flow
// fabric's fair-share bandwidth division.
//
// Property (ISSUE): concurrent transfers sharing a PCIe link direction see
// fair-share bandwidth — k equal transfers finish together in k times the
// alone time, and a transfer crossing an uncontended link is unaffected.
#include <gtest/gtest.h>

#include <vector>

#include "src/interconnect/fabric.h"
#include "src/interconnect/topology.h"
#include "src/sim/simulator.h"

namespace orion {
namespace interconnect {
namespace {

constexpr std::size_t kMb = 1 << 20;

// Alone wall time of a transfer: summed route latency plus streaming time.
double AloneUs(const NodeTopology& topo, int src, int dst, std::size_t bytes) {
  double latency = 0.0;
  double rate = std::numeric_limits<double>::infinity();
  for (const Hop& hop : topo.Route(src, dst)) {
    latency += topo.link(hop.link).latency_us;
    rate = std::min(rate, topo.link(hop.link).gbps * 1e3);
  }
  return latency + static_cast<double>(bytes) / rate;
}

TEST(TopologyTest, PcieOnlyRoutes) {
  const NodeTopology topo = NodeTopology::PcieOnly(4);
  EXPECT_EQ(topo.num_gpus(), 4);
  EXPECT_EQ(topo.links().size(), 4u);  // one host link per GPU

  // Host <-> GPU: single hop on the GPU's own link.
  const Path h2d = topo.Route(kHostNode, 2);
  ASSERT_EQ(h2d.size(), 1u);
  EXPECT_EQ(h2d[0].link, topo.PcieLink(2));
  EXPECT_TRUE(h2d[0].forward);
  const Path d2h = topo.Route(2, kHostNode);
  ASSERT_EQ(d2h.size(), 1u);
  EXPECT_FALSE(d2h[0].forward);

  // Peer transfer bounces through the root: up src's link, down dst's.
  const Path p2p = topo.Route(0, 3);
  ASSERT_EQ(p2p.size(), 2u);
  EXPECT_EQ(p2p[0].link, topo.PcieLink(0));
  EXPECT_FALSE(p2p[0].forward);
  EXPECT_EQ(p2p[1].link, topo.PcieLink(3));
  EXPECT_TRUE(p2p[1].forward);
}

TEST(TopologyTest, NvLinkPairsRouting) {
  const NodeTopology topo = NodeTopology::NvLinkPairs(4);
  // Paired GPUs have a direct link; cross-pair transfers fall back to PCIe.
  EXPECT_NE(topo.NvLinkBetween(0, 1), kInvalidLink);
  EXPECT_NE(topo.NvLinkBetween(2, 3), kInvalidLink);
  EXPECT_EQ(topo.NvLinkBetween(1, 2), kInvalidLink);
  EXPECT_EQ(topo.NvLinkBetween(0, 3), kInvalidLink);

  const Path direct = topo.Route(1, 0);
  ASSERT_EQ(direct.size(), 1u);
  EXPECT_EQ(direct[0].link, topo.NvLinkBetween(0, 1));
  EXPECT_EQ(topo.Route(1, 2).size(), 2u);
}

TEST(TopologyTest, PreferredRingUsesNvLinkPairs) {
  // Ring-adjacent GPU pairs (the 2-ring has one adjacency) without a
  // direct NVLink: each pushes collective traffic through the PCIe root.
  auto pcie_hops = [](const NodeTopology& topo, const std::vector<int>& ring) {
    int hops = 0;
    const std::size_t adjacencies = ring.size() == 2 ? 1 : ring.size();
    for (std::size_t i = 0; i < adjacencies; ++i) {
      hops += topo.NvLinkBetween(ring[i], ring[(i + 1) % ring.size()]) == kInvalidLink ? 1 : 0;
    }
    return hops;
  };
  const NodeTopology topo = NodeTopology::NvLinkPairs(4);
  const auto ring = topo.PreferredRing({0, 1, 2, 3});
  ASSERT_EQ(ring.size(), 4u);
  // Pairs stay adjacent: only the two pair-to-pair seams cross PCIe.
  EXPECT_EQ(pcie_hops(topo, ring), 2);
  // The ring keeps pairs together even when handed a pair-splitting order,
  // which would cross PCIe on every hop.
  EXPECT_EQ(topo.PreferredRing({0, 2, 1, 3}), ring);
  EXPECT_EQ(pcie_hops(topo, {0, 2, 1, 3}), 4);
  // A linked pair forms an all-NVLink ring.
  EXPECT_EQ(pcie_hops(topo, topo.PreferredRing({2, 3})), 0);
  // Full NVLink: any ring is all-NVLink.
  EXPECT_EQ(pcie_hops(NodeTopology::FullNvLink(4), {0, 2, 1, 3}), 0);
}

TEST(FabricTest, SingleTransferMatchesAloneTime) {
  const NodeTopology topo = NodeTopology::PcieOnly(2);
  Simulator sim;
  Fabric fabric(&sim, topo);
  TimeUs completed = -1.0;
  fabric.StartTransfer(kHostNode, 0, 24 * kMb, [&]() { completed = sim.now(); });
  sim.RunUntilIdle();
  EXPECT_NEAR(completed, AloneUs(topo, kHostNode, 0, 24 * kMb), 1e-6);
  EXPECT_EQ(fabric.transfers_completed(), 1u);
  EXPECT_NEAR(fabric.BytesMoved(topo.PcieLink(0), true), 24.0 * kMb, 1e-3);
  EXPECT_NEAR(fabric.BytesMoved(topo.PcieLink(0), false), 0.0, 1e-9);
}

// ISSUE property: k concurrent equal transfers on one PCIe link direction
// each get 1/k of the bandwidth and finish together in ~k * alone time.
TEST(FabricTest, FairShareOnSharedPcieDirection) {
  const NodeTopology topo = NodeTopology::PcieOnly(2);
  const std::size_t bytes = 12 * kMb;
  const double alone = AloneUs(topo, kHostNode, 0, bytes);
  for (const int k : {2, 3, 4}) {
    Simulator sim;
    Fabric fabric(&sim, topo);
    std::vector<TimeUs> completions;
    for (int i = 0; i < k; ++i) {
      fabric.StartTransfer(kHostNode, 0, bytes, [&]() { completions.push_back(sim.now()); });
    }
    sim.RunUntilIdle();
    ASSERT_EQ(completions.size(), static_cast<std::size_t>(k));
    const double latency = topo.link(topo.PcieLink(0)).latency_us;
    const double expected = latency + k * (alone - latency);
    for (const TimeUs t : completions) {
      EXPECT_NEAR(t, expected, 1e-6) << "k=" << k;
    }
  }
}

// Full duplex: opposite directions of one link do not contend.
TEST(FabricTest, OppositeDirectionsIndependent) {
  const NodeTopology topo = NodeTopology::PcieOnly(2);
  const std::size_t bytes = 12 * kMb;
  Simulator sim;
  Fabric fabric(&sim, topo);
  TimeUs up = -1.0;
  TimeUs down = -1.0;
  fabric.StartTransfer(kHostNode, 0, bytes, [&]() { down = sim.now(); });
  fabric.StartTransfer(0, kHostNode, bytes, [&]() { up = sim.now(); });
  sim.RunUntilIdle();
  EXPECT_NEAR(down, AloneUs(topo, kHostNode, 0, bytes), 1e-6);
  EXPECT_NEAR(up, AloneUs(topo, 0, kHostNode, bytes), 1e-6);
}

// A transfer on an uncontended NVLink is unaffected by PCIe congestion, and
// a two-hop PCIe transfer is limited by its most-contended hop.
TEST(FabricTest, ContentionIsPerLinkDirection) {
  const NodeTopology topo = NodeTopology::NvLinkPairs(4);
  const std::size_t bytes = 12 * kMb;
  Simulator sim;
  Fabric fabric(&sim, topo);
  TimeUs nv = -1.0;
  TimeUs p2p = -1.0;
  // Congest gpu2's host link downstream with two long-lived transfers (big
  // enough to outlast the peer copy, keeping the 3-way split in effect).
  fabric.StartTransfer(kHostNode, 2, 100 * kMb, nullptr);
  fabric.StartTransfer(kHostNode, 2, 100 * kMb, nullptr);
  // Cross-pair peer copy 0 -> 2: shares gpu2's downstream with the two hogs.
  fabric.StartTransfer(0, 2, bytes, [&]() { p2p = sim.now(); });
  // NVLink transfer 2 -> 3 is on a different link entirely.
  fabric.StartTransfer(2, 3, bytes, [&]() { nv = sim.now(); });
  sim.RunUntilIdle();
  EXPECT_NEAR(nv, AloneUs(topo, 2, 3, bytes), 1e-6);
  // Three-way split on the bottleneck hop.
  const Path route = topo.Route(0, 2);
  const double latency = topo.link(route[0].link).latency_us * 2;
  const double rate = topo.link(route[1].link).gbps * 1e3 / 3.0;
  EXPECT_NEAR(p2p, latency + static_cast<double>(bytes) / rate, 1e-6);
}

TEST(FabricTest, DeterministicAcrossRuns) {
  auto run = [] {
    const NodeTopology topo = NodeTopology::NvLinkPairs(4);
    Simulator sim;
    Fabric fabric(&sim, topo);
    std::vector<double> completions;
    for (int i = 0; i < 6; ++i) {
      fabric.StartTransfer(i % 4, (i + 1) % 4, (5 + static_cast<std::size_t>(i)) * kMb,
                           [&]() { completions.push_back(sim.now()); });
    }
    sim.RunUntilIdle();
    return completions;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace interconnect
}  // namespace orion
