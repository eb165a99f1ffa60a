// Tests for ring collectives over the fabric.
//
// Property (ISSUE): a ring all-reduce of B bytes on N GPUs moves exactly
// 2*(N-1)/N * B bytes over every ring link direction it uses.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/collective/collective.h"
#include "src/gpusim/device.h"
#include "src/gpusim/device_spec.h"
#include "src/interconnect/fabric.h"
#include "src/interconnect/topology.h"
#include "src/sim/simulator.h"

namespace orion {
namespace collective {
namespace {

using interconnect::Fabric;
using interconnect::kHostNode;
using interconnect::NodeTopology;

constexpr std::size_t kMb = 1 << 20;

std::vector<int> Iota(int n) {
  std::vector<int> ring;
  for (int i = 0; i < n; ++i) {
    ring.push_back(i);
  }
  return ring;
}

// ISSUE property: per-ring-link-direction traffic of an all-reduce is
// exactly 2*(N-1)/N * B, for N in {2, 3, 4, 8}.
TEST(CollectiveTest, AllReduceMovesExactRingTraffic) {
  for (const int n : {2, 3, 4, 8}) {
    const std::size_t bytes = static_cast<std::size_t>(n) * 3 * kMb;  // divisible by n
    const NodeTopology topo = NodeTopology::FullNvLink(n);
    Simulator sim;
    Fabric fabric(&sim, topo);
    CollectiveEngine engine(&sim, &fabric);
    bool done = false;
    engine.AllReduce(Iota(n), bytes, [&]() { done = true; });
    sim.RunUntilIdle();
    ASSERT_TRUE(done) << "n=" << n;

    const double expected =
        2.0 * (n - 1) / static_cast<double>(n) * static_cast<double>(bytes);
    for (int i = 0; i < n; ++i) {
      const int next = (i + 1) % n;
      const auto link = topo.NvLinkBetween(i, next);
      ASSERT_NE(link, interconnect::kInvalidLink);
      const interconnect::Path route = topo.Route(i, next);
      ASSERT_EQ(route.size(), 1u);
      EXPECT_NEAR(fabric.BytesMoved(link, route[0].forward), expected, 1.0)
          << "n=" << n << " link " << i << "->" << next;
    }
  }
}

TEST(CollectiveTest, AllReduceTimeMatchesRingModel) {
  // On a symmetric ring every step moves one chunk per link concurrently, so
  // wall time is 2*(N-1) * (latency + chunk/bw).
  const int n = 4;
  const std::size_t bytes = 40 * kMb;
  const NodeTopology topo = NodeTopology::FullNvLink(n);
  Simulator sim;
  Fabric fabric(&sim, topo);
  CollectiveEngine engine(&sim, &fabric);
  TimeUs completed = -1.0;
  engine.AllReduce(Iota(n), bytes, [&]() { completed = sim.now(); });
  sim.RunUntilIdle();
  const double chunk = static_cast<double>(bytes) / n;
  const auto& link = topo.link(topo.NvLinkBetween(0, 1));
  const double per_step = link.latency_us + chunk / (link.gbps * 1e3);
  EXPECT_NEAR(completed, 2.0 * (n - 1) * per_step, 1e-6);
}

TEST(CollectiveTest, TrivialRingsCompleteImmediately) {
  Simulator sim;
  Fabric fabric(&sim, NodeTopology::PcieOnly(2));
  CollectiveEngine engine(&sim, &fabric);
  int done = 0;
  engine.AllReduce({0}, 64 * kMb, [&]() { ++done; });
  engine.AllReduce({0, 1}, 0, [&]() { ++done; });
  sim.RunUntilIdle();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(engine.collectives_completed(), 2u);
  EXPECT_EQ(fabric.transfers_completed(), 0u);
}

// Sends bound to a comm stream occupy it: the stream is busy while the
// collective is in flight and idle after, and device sync covers it.
TEST(CollectiveTest, CommStreamBindingMakesSendsVisible) {
  const NodeTopology topo = NodeTopology::PcieOnly(2);
  Simulator sim;
  Fabric fabric(&sim, topo);
  CollectiveEngine engine(&sim, &fabric);
  std::vector<std::unique_ptr<gpusim::Device>> devices;
  std::vector<gpusim::StreamId> comm;
  for (int g = 0; g < 2; ++g) {
    devices.push_back(std::make_unique<gpusim::Device>(&sim, gpusim::DeviceSpec::V100_16GB()));
    devices.back()->AttachHostLink(&fabric, g);
    comm.push_back(devices.back()->CreateStream());
    engine.BindCommStream(g, devices.back().get(), comm.back());
  }
  bool done = false;
  engine.AllReduce({0, 1}, 16 * kMb, [&]() { done = true; });
  bool busy_observed = false;
  sim.ScheduleAfter(10.0, [&]() {
    busy_observed = !devices[0]->StreamIdle(comm[0]) && !devices[1]->StreamIdle(comm[1]);
  });
  sim.RunUntilIdle();
  ASSERT_TRUE(done);
  EXPECT_TRUE(busy_observed);
  EXPECT_TRUE(devices[0]->StreamIdle(comm[0]));
  EXPECT_TRUE(devices[1]->StreamIdle(comm[1]));
}

TEST(CollectiveTest, DeterministicAcrossRuns) {
  auto run = [] {
    const NodeTopology topo = NodeTopology::NvLinkPairs(4);
    Simulator sim;
    Fabric fabric(&sim, topo);
    CollectiveEngine engine(&sim, &fabric);
    std::vector<double> completions;
    engine.AllReduce(topo.PreferredRing({0, 1, 2, 3}), 30 * kMb,
                     [&]() { completions.push_back(sim.now()); });
    // A second, overlapping all-reduce contends for the same links.
    engine.AllReduce({0, 1, 2}, 7 * kMb, [&]() { completions.push_back(sim.now()); });
    sim.RunUntilIdle();
    return completions;
  };
  const std::vector<double> first = run();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first, run());
}

}  // namespace
}  // namespace collective
}  // namespace orion
