#include "src/runtime/gpu_runtime.h"

#include <utility>

#include "src/common/check.h"

namespace orion {
namespace runtime {

GpuRuntime::GpuRuntime(Simulator* sim, gpusim::DeviceSpec spec)
    : sim_(sim), device_(sim, spec), memory_(spec.memory_bytes) {
  ORION_CHECK(sim != nullptr);
}

gpusim::StreamId GpuRuntime::CreateStream(int priority) {
  return device_.CreateStream(priority);
}

void GpuRuntime::Submit(const Op& op, gpusim::StreamId stream, CompletionCb done) {
  switch (op.type) {
    case OpType::kKernelLaunch:
      device_.LaunchKernel(stream, op.kernel, std::move(done));
      return;
    case OpType::kGraphLaunch: {
      // cudaGraphLaunch: one host call enqueues the whole captured sequence;
      // the stream executes it in order, `done` fires at the last kernel.
      ORION_CHECK_MSG(!op.graph_kernels.empty(), "empty CUDA graph");
      for (std::size_t i = 0; i + 1 < op.graph_kernels.size(); ++i) {
        device_.LaunchKernel(stream, op.graph_kernels[i]);
      }
      device_.LaunchKernel(stream, op.graph_kernels.back(), std::move(done));
      return;
    }
    case OpType::kMemcpyH2D:
      device_.EnqueueMemcpy(stream, op.bytes, gpusim::MemcpyKind::kHostToDevice,
                            std::move(done));
      return;
    case OpType::kMemcpyD2H:
      device_.EnqueueMemcpy(stream, op.bytes, gpusim::MemcpyKind::kDeviceToHost,
                            std::move(done));
      return;
    case OpType::kMemset:
      device_.EnqueueMemset(stream, op.bytes, std::move(done));
      return;
    case OpType::kMalloc: {
      // cudaMalloc synchronises the device (§5.1.3), then reserves memory,
      // attributed to the issuing client so a crash can reclaim it.
      const std::size_t bytes = op.bytes;
      const std::uint64_t client = op.client_id;
      device_.SynchronizeDevice([this, bytes, client, done = std::move(done)]() mutable {
        const MemHandle handle = memory_.Allocate(bytes, client);
        ORION_CHECK_MSG(handle != kInvalidMemHandle,
                        "device OOM: requested " << bytes << "B with " << memory_.available()
                                                 << "B available");
        if (done) {
          done();
        }
      });
      return;
    }
    case OpType::kFree: {
      // The harness frees by size rather than by handle: it models framework
      // allocator behaviour coarsely. A free of N bytes synchronises the
      // device, then releases the issuing client's oldest live N-byte
      // allocation. Exact handle-based frees stay on the MemoryManager API.
      const std::size_t bytes = op.bytes;
      const std::uint64_t client = op.client_id;
      device_.SynchronizeDevice([this, bytes, client, done = std::move(done)]() mutable {
        const MemHandle handle = memory_.Oldest(bytes, client);
        ORION_CHECK_MSG(handle != kInvalidMemHandle,
                        "free of " << bytes << "B matches no live allocation of client "
                                   << client);
        memory_.Free(handle);
        if (done) {
          done();
        }
      });
      return;
    }
  }
  ORION_CHECK_MSG(false, "unhandled op type");
}

void GpuRuntime::LaunchKernel(gpusim::StreamId stream, const gpusim::KernelDesc& kernel,
                              CompletionCb done) {
  device_.LaunchKernel(stream, kernel, std::move(done));
}

void GpuRuntime::RecordEvent(gpusim::StreamId stream, gpusim::GpuEvent* event,
                             CompletionCb done) {
  device_.RecordEvent(stream, event, std::move(done));
}

}  // namespace runtime
}  // namespace orion
