// Cluster placement engine tests (§7 co-design extension).
#include <gtest/gtest.h>

#include "src/cluster/placement.h"

namespace orion {
namespace cluster {
namespace {

using workloads::MakeWorkload;
using workloads::ModelId;
using workloads::TaskType;

const gpusim::DeviceSpec kV100 = gpusim::DeviceSpec::V100_16GB();

JobSignature Synthetic(const std::string& name, double compute, double memory,
                       double compute_frac, std::size_t bytes, bool hp = false) {
  JobSignature sig;
  sig.name = name;
  sig.high_priority = hp;
  sig.compute_intensity = compute;
  sig.memory_intensity = memory;
  sig.compute_bound_fraction = compute_frac;
  sig.state_bytes = bytes;
  return sig;
}

TEST(SignatureTest, BuiltFromRealWorkloads) {
  const JobSignature sig =
      MakeSignature(kV100, MakeWorkload(ModelId::kResNet50, TaskType::kTraining), true);
  EXPECT_EQ(sig.name, "resnet50-train-bs32");
  EXPECT_TRUE(sig.high_priority);
  EXPECT_GT(sig.compute_intensity, 0.05);
  EXPECT_GT(sig.memory_intensity, 0.05);
  EXPECT_GT(sig.compute_bound_fraction, 0.1);
  EXPECT_LT(sig.compute_bound_fraction, 0.95);
  EXPECT_GT(sig.state_bytes, std::size_t{1} << 30);
}

TEST(SignatureTest, MobileNetMoreMemoryLeaningThanResNet) {
  const auto mnv2 =
      MakeSignature(kV100, MakeWorkload(ModelId::kMobileNetV2, TaskType::kInference), false);
  const auto rn50 =
      MakeSignature(kV100, MakeWorkload(ModelId::kResNet50, TaskType::kInference), false);
  EXPECT_LT(mnv2.compute_bound_fraction, rn50.compute_bound_fraction);
}

TEST(PairInterferenceTest, ComplementaryPairsScoreLower) {
  const auto compute_job = Synthetic("compute", 0.7, 0.1, 0.9, 1 << 20);
  const auto memory_job = Synthetic("memory", 0.1, 0.7, 0.1, 1 << 20);
  const double clash_cc = PairInterference(compute_job, compute_job);
  const double clash_mm = PairInterference(memory_job, memory_job);
  const double complementary = PairInterference(compute_job, memory_job);
  EXPECT_LT(complementary, clash_cc);
  EXPECT_LT(complementary, clash_mm);
}

TEST(PairInterferenceTest, Symmetric) {
  const auto a = Synthetic("a", 0.5, 0.3, 0.6, 1 << 20);
  const auto b = Synthetic("b", 0.2, 0.8, 0.2, 1 << 20);
  EXPECT_DOUBLE_EQ(PairInterference(a, b), PairInterference(b, a));
}

TEST(PlacementTest, PairsComplementaryJobs) {
  // Two compute-heavy + two memory-heavy jobs on two GPUs: the engine must
  // pair one of each per GPU, not the clashing pairs.
  std::vector<JobSignature> jobs = {
      Synthetic("c1", 0.7, 0.1, 0.9, 1 << 28), Synthetic("c2", 0.7, 0.1, 0.9, 1 << 28),
      Synthetic("m1", 0.1, 0.7, 0.1, 1 << 28), Synthetic("m2", 0.1, 0.7, 0.1, 1 << 28)};
  PlacementOptions options;
  options.num_gpus = 2;
  const auto placement = PlacementEngine::Place(jobs, options);
  ASSERT_TRUE(placement.has_value());
  for (const auto& gpu : placement->gpu_jobs) {
    ASSERT_EQ(gpu.size(), 2u);
    const bool first_compute = jobs[gpu[0]].compute_bound_fraction > 0.5;
    const bool second_compute = jobs[gpu[1]].compute_bound_fraction > 0.5;
    EXPECT_NE(first_compute, second_compute) << "clashing pair placed together";
  }
  // And its score beats round-robin (which pairs c1+m1/c2+m2 here... verify
  // generic inequality instead).
  const auto rr = PlacementEngine::PlaceRoundRobin(jobs, options);
  ASSERT_TRUE(rr.has_value());
  EXPECT_LE(placement->predicted_interference, rr->predicted_interference + 1e-9);
}

TEST(PlacementTest, RespectsMemoryCapacity) {
  std::vector<JobSignature> jobs = {
      Synthetic("big1", 0.5, 0.5, 0.5, std::size_t{10} << 30),
      Synthetic("big2", 0.5, 0.5, 0.5, std::size_t{10} << 30)};
  PlacementOptions options;
  options.num_gpus = 1;  // 16 GB: only one 10 GB job fits
  const auto placement = PlacementEngine::Place(jobs, options);
  EXPECT_FALSE(placement.has_value());
  options.num_gpus = 2;
  EXPECT_TRUE(PlacementEngine::Place(jobs, options).has_value());
}

TEST(PlacementTest, RespectsJobSlotLimit) {
  std::vector<JobSignature> jobs(5, Synthetic("j", 0.2, 0.2, 0.5, 1 << 20));
  PlacementOptions options;
  options.num_gpus = 2;  // two jobs per GPU at most
  EXPECT_FALSE(PlacementEngine::Place(jobs, options).has_value());
  options.num_gpus = 3;
  EXPECT_TRUE(PlacementEngine::Place(jobs, options).has_value());
}

TEST(PlacementTest, OneLatencyCriticalJobPerGpu) {
  std::vector<JobSignature> jobs = {Synthetic("hp1", 0.3, 0.3, 0.5, 1 << 20, true),
                                    Synthetic("hp2", 0.3, 0.3, 0.5, 1 << 20, true),
                                    Synthetic("be", 0.3, 0.3, 0.5, 1 << 20, false)};
  PlacementOptions options;
  options.num_gpus = 2;
  const auto placement = PlacementEngine::Place(jobs, options);
  ASSERT_TRUE(placement.has_value());
  for (const auto& gpu : placement->gpu_jobs) {
    int hp_count = 0;
    for (std::size_t job : gpu) {
      hp_count += jobs[job].high_priority ? 1 : 0;
    }
    EXPECT_LE(hp_count, 1);
  }
  // Two hp jobs on one GPU is infeasible, though the GPU has room for two.
  options.num_gpus = 1;
  EXPECT_FALSE(PlacementEngine::Place({jobs[0], jobs[1]}, options).has_value());
  EXPECT_TRUE(PlacementEngine::Place({jobs[0], jobs[2]}, options).has_value());
}

TEST(PlacementTest, DeterministicForSameInput) {
  std::vector<JobSignature> jobs;
  for (auto model : workloads::kAllModels) {
    jobs.push_back(MakeSignature(kV100, MakeWorkload(model, TaskType::kInference), false));
  }
  PlacementOptions options;
  options.num_gpus = 3;
  const auto a = PlacementEngine::Place(jobs, options);
  const auto b = PlacementEngine::Place(jobs, options);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(a->gpu_jobs, b->gpu_jobs);
}

// ISSUE: on a 4-GPU node with NVLink pairs, a 2-GPU DDP job lands on a
// linked pair; only when both pairs are taken does it fall back to a
// cross-PCIe GPU set.
TEST(PlacementTest, MultiGpuJobPrefersNvLinkPair) {
  auto ddp_job = [](const std::string& name) {
    JobSignature sig = Synthetic(name, 0.5, 0.3, 0.6, 1 << 28);
    sig.gpus_required = 2;
    return sig;
  };
  PlacementOptions options;
  options.num_gpus = 4;
  options.topology = interconnect::NodeTopology::NvLinkPairs(4);

  const auto one = PlacementEngine::Place({ddp_job("ddp1")}, options);
  ASSERT_TRUE(one.has_value());
  ASSERT_EQ(one->job_gpus.size(), 1u);
  EXPECT_EQ(one->job_gpus[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(options.topology->CrossPcieHops(
                options.topology->PreferredRing(one->job_gpus[0])),
            0);

  const auto two = PlacementEngine::Place({ddp_job("ddp1"), ddp_job("ddp2")}, options);
  ASSERT_TRUE(two.has_value());
  EXPECT_EQ(two->job_gpus[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(two->job_gpus[1], (std::vector<int>{2, 3}));
}

TEST(PlacementTest, MultiGpuJobFallsBackToCrossPcieWhenPairsFull) {
  // Greedy fill leaves GPUs 1 and 2 without room (two near-capacity
  // jobs land there after the small hp job anchors GPU 0), so both NVLink
  // pairs are broken for a later 10 GB-per-GPU DDP job: its only feasible
  // set is the cross-PCIe {0, 3}.
  JobSignature ddp = Synthetic("ddp", 0.5, 0.3, 0.6, std::size_t{10} << 30);
  ddp.gpus_required = 2;
  const JobSignature anchor = Synthetic("anchor", 0.3, 0.3, 0.5, std::size_t{1} << 30, true);
  const JobSignature big = Synthetic("big", 0.4, 0.4, 0.5, (std::size_t{15} << 30) + (1 << 29));
  PlacementOptions options;
  options.num_gpus = 4;
  options.topology = interconnect::NodeTopology::NvLinkPairs(4);

  const auto placement = PlacementEngine::Place({anchor, big, big, ddp}, options);
  ASSERT_TRUE(placement.has_value());
  // Sanity: the fill really broke both pairs (big jobs on GPUs 1 and 2).
  EXPECT_EQ(placement->job_gpus[0], (std::vector<int>{0}));
  EXPECT_EQ(placement->job_gpus[1], (std::vector<int>{1}));
  EXPECT_EQ(placement->job_gpus[2], (std::vector<int>{2}));
  const auto& gpus = placement->job_gpus[3];
  EXPECT_EQ(gpus, (std::vector<int>{0, 3}));
  EXPECT_GT(options.topology->CrossPcieHops(options.topology->PreferredRing(gpus)), 0);
}

TEST(PlacementTest, MultiGpuJobCountsAgainstEveryGpu) {
  JobSignature ddp = Synthetic("ddp", 0.5, 0.3, 0.6, std::size_t{10} << 30);
  ddp.gpus_required = 2;
  PlacementOptions options;
  options.num_gpus = 2;
  // Memory: a second 10 GB-per-GPU wide job cannot fit anywhere.
  EXPECT_TRUE(PlacementEngine::Place({ddp}, options).has_value());
  EXPECT_FALSE(PlacementEngine::Place({ddp, ddp}, options).has_value());
  // Width beyond the node is infeasible outright.
  ddp.gpus_required = 3;
  EXPECT_FALSE(PlacementEngine::Place({ddp}, options).has_value());
}

TEST(PlacementTest, ScoreMatchesIncrementalAccounting) {
  std::vector<JobSignature> jobs = {
      Synthetic("a", 0.6, 0.2, 0.7, 1 << 20), Synthetic("b", 0.2, 0.6, 0.2, 1 << 20),
      Synthetic("c", 0.5, 0.5, 0.5, 1 << 20), Synthetic("d", 0.3, 0.3, 0.4, 1 << 20)};
  PlacementOptions options;
  options.num_gpus = 2;
  const auto placement = PlacementEngine::Place(jobs, options);
  ASSERT_TRUE(placement.has_value());
  EXPECT_NEAR(placement->predicted_interference,
              PlacementEngine::ScorePlacement(jobs, *placement), 1e-9);
}

}  // namespace
}  // namespace cluster
}  // namespace orion
