// Model zoo and cost model tests: kernel sequences are well-formed, ids are
// stable, phases and classifications match the paper's observations (Fig. 4,
// Table 1 trends), and the cost model obeys its roofline contract.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/gpusim/kernel.h"
#include "src/workloads/cost_model.h"
#include "src/workloads/models.h"

namespace orion {
namespace workloads {
namespace {

const gpusim::DeviceSpec kV100 = gpusim::DeviceSpec::V100_16GB();

TEST(CostModelTest, ComputeBoundKernelClassifiedCompute) {
  KernelWork work;
  work.name = "gemm";
  work.flops = 5e9;  // heavy math
  work.bytes = 1e6;
  work.geometry.num_blocks = 400;
  work.geometry.threads_per_block = 256;
  work.geometry.registers_per_thread = 96;
  const gpusim::KernelDesc desc = BuildKernel(kV100, work, 1);
  EXPECT_EQ(gpusim::ClassifyKernel(desc), gpusim::ResourceProfile::kComputeBound);
  EXPECT_GT(desc.compute_util, desc.membw_util);
  EXPECT_GT(desc.duration_us, 100.0);
}

TEST(CostModelTest, MemoryBoundKernelClassifiedMemory) {
  KernelWork work;
  work.name = "bn";
  work.flops = 1e6;
  work.bytes = 2e8;  // heavy traffic
  work.geometry.num_blocks = 4000;
  work.geometry.threads_per_block = 256;
  work.geometry.registers_per_thread = 20;
  const gpusim::KernelDesc desc = BuildKernel(kV100, work, 2);
  EXPECT_EQ(gpusim::ClassifyKernel(desc), gpusim::ResourceProfile::kMemoryBound);
  EXPECT_GT(desc.membw_util, desc.compute_util);
}

TEST(CostModelTest, TinyKernelHasNoRoofline) {
  KernelWork work;
  work.name = "tiny";
  work.flops = 100.0;
  work.bytes = 400.0;
  work.geometry.num_blocks = 1;
  const gpusim::KernelDesc desc = BuildKernel(kV100, work, 3);
  EXPECT_FALSE(desc.has_roofline);
  EXPECT_EQ(gpusim::ClassifyKernel(desc), gpusim::ResourceProfile::kUnknown);
  EXPECT_GE(desc.duration_us, kMinKernelDurationUs);
}

TEST(CostModelTest, UtilizationsNeverExceedOne) {
  KernelWork work;
  work.name = "huge";
  work.flops = 1e12;
  work.bytes = 1e11;
  work.geometry.num_blocks = 100000;
  work.geometry.threads_per_block = 256;
  const gpusim::KernelDesc desc = BuildKernel(kV100, work, 4);
  EXPECT_LE(desc.compute_util, 1.0);
  EXPECT_LE(desc.membw_util, 1.0);
}

TEST(CostModelTest, SmallGridIsSlowerPerFlop) {
  KernelWork small;
  small.name = "small-grid";
  small.flops = 1e9;
  small.geometry.num_blocks = 8;
  small.geometry.threads_per_block = 1024;
  small.geometry.registers_per_thread = 64;
  KernelWork large = small;
  large.name = "large-grid";
  large.geometry.num_blocks = 200;
  const auto small_desc = BuildKernel(kV100, small, 5);
  const auto large_desc = BuildKernel(kV100, large, 6);
  EXPECT_GT(small_desc.duration_us, large_desc.duration_us);
}

class ModelZooTest : public ::testing::TestWithParam<std::tuple<ModelId, TaskType>> {};

TEST_P(ModelZooTest, KernelSequenceWellFormed) {
  const auto [model, task] = GetParam();
  const WorkloadSpec spec = MakeWorkload(model, task);
  const auto kernels = BuildKernels(kV100, spec);
  ASSERT_GT(kernels.size(), 20u);
  std::unordered_set<std::uint64_t> ids;
  for (const auto& kernel : kernels) {
    EXPECT_GT(kernel.duration_us, 0.0) << kernel.name;
    EXPECT_GE(kernel.compute_util, 0.0);
    EXPECT_LE(kernel.compute_util, 1.0);
    EXPECT_GE(kernel.membw_util, 0.0);
    EXPECT_LE(kernel.membw_util, 1.0);
    EXPECT_GE(kernel.geometry.num_blocks, 1);
    EXPECT_TRUE(ids.insert(kernel.kernel_id).second) << "duplicate id for " << kernel.name;
  }
}

TEST_P(ModelZooTest, KernelIdsStableAcrossBuilds) {
  const auto [model, task] = GetParam();
  const WorkloadSpec spec = MakeWorkload(model, task);
  const auto a = BuildKernels(kV100, spec);
  const auto b = BuildKernels(kV100, spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kernel_id, b[i].kernel_id);
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_DOUBLE_EQ(a[i].duration_us, b[i].duration_us);
  }
}

TEST_P(ModelZooTest, HasBothComputeAndMemoryKernels) {
  // Fig. 4: every workload mixes compute- and memory-intensive kernels.
  const auto [model, task] = GetParam();
  const auto kernels = BuildKernels(kV100, MakeWorkload(model, task));
  int compute = 0;
  int memory = 0;
  for (const auto& kernel : kernels) {
    switch (gpusim::ClassifyKernel(kernel)) {
      case gpusim::ResourceProfile::kComputeBound:
        ++compute;
        break;
      case gpusim::ResourceProfile::kMemoryBound:
        ++memory;
        break;
      case gpusim::ResourceProfile::kUnknown:
        break;
    }
  }
  EXPECT_GT(compute, 0);
  EXPECT_GT(memory, 0);
}

TEST_P(ModelZooTest, RequestOpsBracketedByCopies) {
  const auto [model, task] = GetParam();
  const WorkloadSpec spec = MakeWorkload(model, task);
  const auto ops = BuildRequestOps(kV100, spec);
  ASSERT_GT(ops.size(), 2u);
  EXPECT_EQ(ops.front().type, runtime::OpType::kMemcpyH2D);
  if (task == TaskType::kInference) {
    EXPECT_EQ(ops.back().type, runtime::OpType::kMemcpyD2H);
    EXPECT_TRUE(ops.back().blocking);
  }
  // Exactly one end-of-request marker, on the last op.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(ops[i].end_of_request, i + 1 == ops.size());
    EXPECT_EQ(ops[i].index_in_request, i);
  }
}

// Field by field, doubles bitwise.
void ExpectSameKernel(const gpusim::KernelDesc& a, const gpusim::KernelDesc& b) {
  EXPECT_EQ(a.kernel_id, b.kernel_id);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.geometry.num_blocks, b.geometry.num_blocks);
  EXPECT_EQ(a.geometry.threads_per_block, b.geometry.threads_per_block);
  EXPECT_EQ(a.geometry.registers_per_thread, b.geometry.registers_per_thread);
  EXPECT_EQ(a.geometry.shared_mem_per_block, b.geometry.shared_mem_per_block);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.duration_us),
            std::bit_cast<std::uint64_t>(b.duration_us));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.compute_util),
            std::bit_cast<std::uint64_t>(b.compute_util));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.membw_util), std::bit_cast<std::uint64_t>(b.membw_util));
  EXPECT_EQ(a.sm_needed, b.sm_needed);
  EXPECT_EQ(a.has_roofline, b.has_roofline);
  EXPECT_EQ(a.roofline_class, b.roofline_class);
  EXPECT_EQ(a.phase, b.phase);
}

void ExpectSameOps(const std::vector<runtime::Op>& a, const std::vector<runtime::Op>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].type, b[i].type);
    ExpectSameKernel(a[i].kernel, b[i].kernel);
    ASSERT_EQ(a[i].graph_kernels.size(), b[i].graph_kernels.size());
    for (std::size_t k = 0; k < a[i].graph_kernels.size(); ++k) {
      ExpectSameKernel(a[i].graph_kernels[k], b[i].graph_kernels[k]);
    }
    EXPECT_EQ(a[i].bytes, b[i].bytes);
    EXPECT_EQ(a[i].blocking, b[i].blocking);
    EXPECT_EQ(a[i].client_id, b[i].client_id);
    EXPECT_EQ(a[i].request_id, b[i].request_id);
    EXPECT_EQ(a[i].index_in_request, b[i].index_in_request);
    EXPECT_EQ(a[i].end_of_request, b[i].end_of_request);
  }
}

// The memoized template is exactly what a fresh build produces, on both
// devices (their occupancy differs) and with and without graph capture.
TEST_P(ModelZooTest, SharedTemplateEqualsFreshBuild) {
  const auto [model, task] = GetParam();
  const WorkloadSpec spec = MakeWorkload(model, task);
  for (const gpusim::DeviceSpec& device :
       {gpusim::DeviceSpec::V100_16GB(), gpusim::DeviceSpec::A100_40GB()}) {
    for (const bool graphs : {false, true}) {
      SCOPED_TRACE(device.name + (graphs ? " graphs" : " kernels"));
      const RequestTemplate& shared = SharedRequestTemplate(device, spec, graphs);
      const std::vector<runtime::Op> fresh = BuildRequestOps(device, spec);
      std::vector<gpusim::KernelDesc> fresh_kernels;
      ExpectSameOps(shared.ops, graphs ? CaptureCudaGraphs(fresh, &fresh_kernels) : fresh);
      EXPECT_EQ(shared.state_bytes, ApproxModelStateBytes(spec));
      EXPECT_EQ(&SharedRequestTemplate(device, spec, graphs), &shared);  // built once
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ModelZooTest,
    ::testing::Combine(::testing::Values(ModelId::kResNet50, ModelId::kMobileNetV2,
                                         ModelId::kResNet101, ModelId::kBert,
                                         ModelId::kTransformer),
                       ::testing::Values(TaskType::kInference, TaskType::kTraining)),
    [](const auto& info) {
      return std::string(ModelName(std::get<0>(info.param))) +
             (std::get<1>(info.param) == TaskType::kInference ? "_inf" : "_train");
    });

// Concurrent runs share the memo: four threads asking for every paper
// workload at once on a device no other test uses (so every entry is built
// here) all get the same entries, equal to fresh builds.
TEST(RequestTemplateTest, ConcurrentBuildsAgree) {
  gpusim::DeviceSpec device = gpusim::DeviceSpec::V100_16GB();
  device.memory_bytes += 4096;  // a key of its own; occupancy and costs unchanged
  std::vector<WorkloadSpec> specs;
  for (const ModelId model : kAllModels) {
    for (const TaskType task : {TaskType::kInference, TaskType::kTraining}) {
      specs.push_back(MakeWorkload(model, task));
    }
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<const RequestTemplate*>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&device, &specs, &seen, t]() {
      for (const WorkloadSpec& spec : specs) {
        seen[static_cast<std::size_t>(t)].push_back(&SharedRequestTemplate(device, spec));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t w = 0; w < specs.size(); ++w) {
    SCOPED_TRACE(WorkloadName(specs[w]));
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[static_cast<std::size_t>(t)][w], seen[0][w]);
    }
    ExpectSameOps(seen[0][w]->ops, BuildRequestOps(device, specs[w]));
  }
}

TEST(ModelZooTest, TrainingHasBackwardAndUpdatePhases) {
  const auto kernels = BuildKernels(kV100, MakeWorkload(ModelId::kResNet50, TaskType::kTraining));
  int fwd = 0;
  int bwd = 0;
  int update = 0;
  bool seen_backward = false;
  bool update_after_backward = true;
  for (const auto& kernel : kernels) {
    switch (kernel.phase) {
      case gpusim::KernelPhase::kForward:
        ++fwd;
        if (seen_backward) {
          // Forward kernels never appear after backward started.
          ADD_FAILURE() << "forward kernel after backward: " << kernel.name;
        }
        break;
      case gpusim::KernelPhase::kBackward:
        ++bwd;
        seen_backward = true;
        break;
      case gpusim::KernelPhase::kUpdate:
        ++update;
        if (!seen_backward) {
          update_after_backward = false;
        }
        break;
      case gpusim::KernelPhase::kNone:
        break;
    }
  }
  EXPECT_GT(fwd, 50);
  EXPECT_GT(bwd, 50);
  EXPECT_GT(update, 10);
  EXPECT_TRUE(update_after_backward);
}

TEST(ModelZooTest, InferenceHasNoBackwardKernels) {
  const auto kernels =
      BuildKernels(kV100, MakeWorkload(ModelId::kResNet50, TaskType::kInference));
  for (const auto& kernel : kernels) {
    EXPECT_NE(kernel.phase, gpusim::KernelPhase::kBackward) << kernel.name;
    EXPECT_NE(kernel.phase, gpusim::KernelPhase::kUpdate) << kernel.name;
  }
}

TEST(ModelZooTest, UpdateKernelsProfileUnknown) {
  // §5.2: unknown-profile kernels occur mostly in the update phase.
  const auto kernels = BuildKernels(kV100, MakeWorkload(ModelId::kResNet50, TaskType::kTraining));
  int update_unknown = 0;
  int update_total = 0;
  for (const auto& kernel : kernels) {
    if (kernel.phase == gpusim::KernelPhase::kUpdate) {
      ++update_total;
      if (gpusim::ClassifyKernel(kernel) == gpusim::ResourceProfile::kUnknown) {
        ++update_unknown;
      }
    }
  }
  ASSERT_GT(update_total, 0);
  EXPECT_GT(static_cast<double>(update_unknown) / update_total, 0.8);
}

TEST(ModelZooTest, DepthwiseConvIsMemoryBound) {
  // MobileNetV2's depthwise convolutions drive its memory-bound profile.
  const auto kernels =
      BuildKernels(kV100, MakeWorkload(ModelId::kMobileNetV2, TaskType::kInference));
  int dw_memory = 0;
  int dw_total = 0;
  for (const auto& kernel : kernels) {
    if (kernel.name.str().find(".dw") != std::string::npos &&
        kernel.name.str().find("bn") == std::string::npos &&
        kernel.name.str().find("relu") == std::string::npos) {
      ++dw_total;
      if (gpusim::ClassifyKernel(kernel) == gpusim::ResourceProfile::kMemoryBound) {
        ++dw_memory;
      }
    }
  }
  ASSERT_GT(dw_total, 10);
  EXPECT_GT(static_cast<double>(dw_memory) / dw_total, 0.7);
}

TEST(ModelZooTest, ResNet101HasMoreKernelsThanResNet50) {
  const auto r50 = BuildKernels(kV100, MakeWorkload(ModelId::kResNet50, TaskType::kInference));
  const auto r101 =
      BuildKernels(kV100, MakeWorkload(ModelId::kResNet101, TaskType::kInference));
  EXPECT_GT(r101.size(), r50.size() * 1.5);
}

TEST(ModelZooTest, BatchSizeScalesWork) {
  double total_small = 0.0;
  double total_large = 0.0;
  for (const auto& kernel :
       BuildKernels(kV100, MakeWorkload(ModelId::kResNet50, TaskType::kInference, 4))) {
    total_small += kernel.duration_us;
  }
  for (const auto& kernel :
       BuildKernels(kV100, MakeWorkload(ModelId::kResNet50, TaskType::kInference, 32))) {
    total_large += kernel.duration_us;
  }
  EXPECT_GT(total_large, total_small * 2.0);
  EXPECT_LT(total_large, total_small * 10.0);  // sublinear: better utilization
}

TEST(ModelZooTest, DefaultBatchSizesMatchTable1) {
  EXPECT_EQ(MakeWorkload(ModelId::kResNet50, TaskType::kInference).batch_size, 4);
  EXPECT_EQ(MakeWorkload(ModelId::kBert, TaskType::kInference).batch_size, 2);
  EXPECT_EQ(MakeWorkload(ModelId::kResNet50, TaskType::kTraining).batch_size, 32);
  EXPECT_EQ(MakeWorkload(ModelId::kMobileNetV2, TaskType::kTraining).batch_size, 64);
  EXPECT_EQ(MakeWorkload(ModelId::kBert, TaskType::kTraining).batch_size, 8);
  EXPECT_EQ(MakeWorkload(ModelId::kTransformer, TaskType::kTraining).batch_size, 8);
}

TEST(ModelZooTest, ModelStateFitsCollocationsOnV100) {
  // §5.1.3: the evaluation collocates jobs whose aggregate state fits in
  // 16 GB; our estimates must respect that for the paper's pairs.
  const std::size_t inf = ApproxModelStateBytes(MakeWorkload(ModelId::kResNet50, TaskType::kInference));
  const std::size_t train =
      ApproxModelStateBytes(MakeWorkload(ModelId::kResNet50, TaskType::kTraining));
  EXPECT_LT(inf + train, kV100.memory_bytes);
  EXPECT_GT(train, inf);  // training keeps gradients + momentum + activations
}

TEST(ModelZooTest, WorkloadNames) {
  EXPECT_EQ(WorkloadName(MakeWorkload(ModelId::kBert, TaskType::kInference)), "bert-inf-bs2");
  EXPECT_EQ(WorkloadName(MakeWorkload(ModelId::kMobileNetV2, TaskType::kTraining)),
            "mobilenetv2-train-bs64");
  EXPECT_TRUE(IsVisionModel(ModelId::kResNet101));
  EXPECT_FALSE(IsVisionModel(ModelId::kTransformer));
}

}  // namespace
}  // namespace workloads
}  // namespace orion
