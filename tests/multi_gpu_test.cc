// Tests for the DDP plan and the multi-GPU experiment harness.
#include <gtest/gtest.h>

#include <numeric>

#include "src/harness/multi_gpu.h"
#include "src/workloads/ddp.h"

namespace orion {
namespace harness {
namespace {

workloads::DdpConfig ResNetDdp(int num_gpus, int global_batch = 32) {
  workloads::DdpConfig ddp;
  ddp.model = workloads::ModelId::kResNet50;
  ddp.num_gpus = num_gpus;
  ddp.global_batch_size = global_batch;
  return ddp;
}

TEST(DdpPlanTest, BucketsCoverParameterBytesInOrder) {
  const auto plan = PlanDdpIteration(gpusim::DeviceSpec::V100_16GB(), ResNetDdp(4));
  ASSERT_GT(plan.param_bytes, 0u);
  ASSERT_FALSE(plan.buckets.empty());
  std::size_t total = 0;
  double last_fraction = 0.0;
  for (const auto& bucket : plan.buckets) {
    ASSERT_GT(bucket.bytes, 0u);
    ASSERT_LE(bucket.bytes, workloads::kDdpBucketBytes);
    total += bucket.bytes;
    EXPECT_GT(bucket.ready_fraction, last_fraction);
    last_fraction = bucket.ready_fraction;
  }
  EXPECT_EQ(total, plan.param_bytes);
  EXPECT_DOUBLE_EQ(plan.buckets.back().ready_fraction, 1.0);
  EXPECT_GT(plan.backward_us, 0.0);
  EXPECT_GT(plan.update_us, 0.0);
}

TEST(DdpPlanTest, SingleGpuHasNoBuckets) {
  const auto plan = PlanDdpIteration(gpusim::DeviceSpec::V100_16GB(), ResNetDdp(1));
  EXPECT_TRUE(plan.buckets.empty());
}

TEST(DdpPlanTest, PerGpuComputeShrinksWithGpuCount) {
  const auto device = gpusim::DeviceSpec::V100_16GB();
  const auto one = PlanDdpIteration(device, ResNetDdp(1));
  const auto four = PlanDdpIteration(device, ResNetDdp(4));
  EXPECT_LT(four.forward_backward_us, one.forward_backward_us);
  EXPECT_EQ(four.param_bytes, one.param_bytes);  // gradient volume is batch-free
}

MultiGpuConfig BaseConfig(int num_gpus, interconnect::NodeTopology topology) {
  MultiGpuConfig config;
  config.topology = std::move(topology);
  config.ddp = ResNetDdp(num_gpus);
  config.iterations = 3;
  return config;
}

// Acceptance (a): with a fixed global batch, iteration time decreases
// 1 -> 2 -> 4 GPUs for a compute-bound model on an NVLink node.
TEST(MultiGpuTest, IterationTimeDecreasesWithGpuCount) {
  const auto one = RunDdpExperiment(BaseConfig(1, interconnect::NodeTopology::NvLinkPairs(4)));
  const auto two = RunDdpExperiment(BaseConfig(2, interconnect::NodeTopology::NvLinkPairs(4)));
  const auto four = RunDdpExperiment(BaseConfig(4, interconnect::NodeTopology::NvLinkPairs(4)));
  ASSERT_EQ(one.iterations, 3u);
  ASSERT_EQ(two.iterations, 3u);
  ASSERT_EQ(four.iterations, 3u);
  EXPECT_LT(two.iteration_us.mean(), one.iteration_us.mean());
  EXPECT_LT(four.iteration_us.mean(), two.iteration_us.mean());
  // All-reduce happened: every bucket, every iteration.
  EXPECT_EQ(two.allreduce_us.count(), 3 * two.buckets_per_iteration);
  EXPECT_GT(two.buckets_per_iteration, 1u);
}

// Acceptance (b): a bandwidth hog on a DDP GPU inflates all-reduce time on a
// shared-PCIe ring but not on an NVLink-only ring.
TEST(MultiGpuTest, PcieHogInflatesPcieRingOnly) {
  auto with_hog = [](interconnect::NodeTopology topology, bool hog) {
    auto config = BaseConfig(2, std::move(topology));
    if (hog) {
      config.hog = BandwidthHogConfig{};
    }
    return RunDdpExperiment(config);
  };
  const auto pcie = with_hog(interconnect::NodeTopology::PcieOnly(2), false);
  const auto pcie_hog = with_hog(interconnect::NodeTopology::PcieOnly(2), true);
  const auto nvlink = with_hog(interconnect::NodeTopology::NvLinkPairs(2), false);
  const auto nvlink_hog = with_hog(interconnect::NodeTopology::NvLinkPairs(2), true);

  EXPECT_GT(pcie_hog.hog_copies, 0u);
  EXPECT_GT(nvlink_hog.hog_copies, 0u);
  // Measurable inflation on PCIe (fair share halves the contended hop)...
  EXPECT_GT(pcie_hog.allreduce_us.mean(), 1.2 * pcie.allreduce_us.mean());
  // ...and none on the NVLink ring.
  EXPECT_NEAR(nvlink_hog.allreduce_us.mean(), nvlink.allreduce_us.mean(),
              1e-6 * nvlink.allreduce_us.mean());
}

// Ring traffic accounting: each ring link direction carries
// 2*(N-1)/N * bytes per all-reduce, summed over buckets and iterations.
TEST(MultiGpuTest, RingLinkTrafficMatchesAllReduceVolume) {
  const auto result = RunDdpExperiment(BaseConfig(2, interconnect::NodeTopology::NvLinkPairs(2)));
  const double expected = result.iterations *
                          (2.0 * (2 - 1) / 2.0) * static_cast<double>(result.param_bytes);
  double nvlink_fwd = 0.0;
  double nvlink_bwd = 0.0;
  for (const auto& link : result.link_traffic) {
    if (link.kind == interconnect::LinkKind::kNvLink) {
      nvlink_fwd += link.forward_bytes;
      nvlink_bwd += link.backward_bytes;
    }
  }
  EXPECT_NEAR(nvlink_fwd, expected, 16.0);
  EXPECT_NEAR(nvlink_bwd, expected, 16.0);
}

TEST(MultiGpuTest, DeterministicAcrossRuns) {
  auto run = [] {
    auto config = BaseConfig(2, interconnect::NodeTopology::PcieOnly(2));
    config.hog = BandwidthHogConfig{};
    const auto result = RunDdpExperiment(config);
    return std::make_tuple(result.total_us, result.iteration_us.mean(),
                           result.allreduce_us.mean(), result.hog_copies);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace harness
}  // namespace orion
