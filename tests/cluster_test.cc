// Job signature and pair-interference tests (§7 co-design extension).
// Incremental placement (BestGpuFor) is tested in serving_test.
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

}  // namespace
}  // namespace cluster
}  // namespace orion
