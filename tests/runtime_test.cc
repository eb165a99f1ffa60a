// Runtime facade tests: op submission semantics, memory accounting, and the
// device-synchronising behaviour of malloc/free.
#include <gtest/gtest.h>

#include "src/runtime/gpu_runtime.h"
#include "src/sim/simulator.h"
#include "tests/test_util.h"

namespace orion {
namespace runtime {
namespace {

using testutil::MakeKernel;

class RuntimeTest : public ::testing::Test {
 protected:
  Simulator sim_;
  gpusim::DeviceSpec spec_ = gpusim::DeviceSpec::V100_16GB();
};

TEST_F(RuntimeTest, KernelOpRoundTrip) {
  GpuRuntime rt(&sim_, spec_);
  const auto stream = rt.CreateStream();
  Op op;
  op.type = OpType::kKernelLaunch;
  op.kernel = MakeKernel("k", 75.0, 0.5, 0.2, 10);
  TimeUs done = -1.0;
  rt.Submit(op, stream, [&]() { done = sim_.now(); });
  sim_.RunUntilIdle();
  EXPECT_DOUBLE_EQ(done, 75.0);
  EXPECT_EQ(rt.device().kernels_completed(), 1u);
}

TEST_F(RuntimeTest, MemcpyOps) {
  GpuRuntime rt(&sim_, spec_);
  const auto stream = rt.CreateStream();
  Op h2d;
  h2d.type = OpType::kMemcpyH2D;
  h2d.bytes = 12 * 1000 * 1000;
  Op d2h;
  d2h.type = OpType::kMemcpyD2H;
  d2h.bytes = 12 * 1000 * 1000;
  int copies = 0;
  rt.Submit(h2d, stream, [&]() { ++copies; });
  rt.Submit(d2h, stream, [&]() { ++copies; });
  sim_.RunUntilIdle();
  EXPECT_EQ(copies, 2);
  EXPECT_EQ(rt.device().memcpys_completed(), 2u);
}

TEST_F(RuntimeTest, MallocSynchronisesDevice) {
  GpuRuntime rt(&sim_, spec_);
  const auto stream = rt.CreateStream();
  Op kernel;
  kernel.type = OpType::kKernelLaunch;
  kernel.kernel = MakeKernel("busy", 200.0, 0.5, 0.2, 10);
  rt.Submit(kernel, stream, nullptr);

  Op malloc_op;
  malloc_op.type = OpType::kMalloc;
  malloc_op.bytes = 1024 * 1024;
  TimeUs malloc_done = -1.0;
  rt.Submit(malloc_op, stream, [&]() { malloc_done = sim_.now(); });
  sim_.RunUntilIdle();
  // cudaMalloc waits for the device to drain (§5.1.3).
  EXPECT_DOUBLE_EQ(malloc_done, 200.0);
  EXPECT_EQ(rt.memory().used(), std::size_t{1024 * 1024});
}

TEST_F(RuntimeTest, FreeReleasesTheClientsOldestAllocation) {
  GpuRuntime rt(&sim_, spec_);
  const auto stream = rt.CreateStream();
  Op malloc_op;
  malloc_op.type = OpType::kMalloc;
  malloc_op.bytes = 1024 * 1024;
  malloc_op.client_id = 3;
  Op free_op = malloc_op;
  free_op.type = OpType::kFree;
  bool freed = false;
  rt.Submit(malloc_op, stream, nullptr);
  rt.Submit(free_op, stream, [&]() { freed = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(freed);
  EXPECT_EQ(rt.memory().used(), 0u);
  EXPECT_EQ(rt.memory().live_allocations(), 0u);
}

TEST(MemoryManagerTest, OldestPicksTheFirstMatchingAllocation) {
  MemoryManager mem(1000);
  const MemHandle a = mem.Allocate(100, 1);
  mem.Allocate(200, 1);
  const MemHandle c = mem.Allocate(100, 1);
  mem.Allocate(100, 2);
  EXPECT_EQ(mem.Oldest(100, 1), a);
  mem.Free(a);
  EXPECT_EQ(mem.Oldest(100, 1), c);
  EXPECT_EQ(mem.Oldest(300, 1), kInvalidMemHandle);
}

TEST_F(RuntimeTest, EventQueryNonBlocking) {
  GpuRuntime rt(&sim_, spec_);
  const auto stream = rt.CreateStream();
  Op kernel;
  kernel.type = OpType::kKernelLaunch;
  kernel.kernel = MakeKernel("k", 100.0, 0.5, 0.2, 10);
  rt.Submit(kernel, stream, nullptr);
  gpusim::GpuEvent event;
  rt.RecordEvent(stream, &event);
  EXPECT_FALSE(GpuRuntime::EventQuery(event));
  sim_.RunUntilIdle();
  EXPECT_TRUE(GpuRuntime::EventQuery(event));
}

TEST(MemoryManagerTest, AllocateFreeCycle) {
  MemoryManager mem(1000);
  const MemHandle a = mem.Allocate(400);
  const MemHandle b = mem.Allocate(500);
  EXPECT_NE(a, kInvalidMemHandle);
  EXPECT_NE(b, kInvalidMemHandle);
  EXPECT_EQ(mem.used(), 900u);
  EXPECT_EQ(mem.available(), 100u);
  EXPECT_EQ(mem.live_allocations(), 2u);
  mem.Free(a);
  EXPECT_EQ(mem.used(), 500u);
}

TEST(MemoryManagerTest, RejectsOverCapacity) {
  MemoryManager mem(1000);
  EXPECT_NE(mem.Allocate(1000), kInvalidMemHandle);
  EXPECT_EQ(mem.Allocate(1), kInvalidMemHandle);
  EXPECT_DOUBLE_EQ(mem.utilization(), 1.0);
}

TEST(MemoryManagerDeathTest, DoubleFreeAborts) {
  MemoryManager mem(1000);
  const MemHandle a = mem.Allocate(10);
  mem.Free(a);
  EXPECT_DEATH(mem.Free(a), "unknown handle");
}

}  // namespace
}  // namespace runtime
}  // namespace orion
