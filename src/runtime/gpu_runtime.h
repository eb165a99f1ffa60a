// CUDA-runtime-like facade over the simulated device.
//
// This is the layer whose entry points the real Orion overrides with wrapper
// functions (§5.3). Schedulers submit Ops here; the facade maps them onto
// device streams, preserving the semantics described in §5.1.3:
//   * kernel launches and async memcpys are asynchronous,
//   * blocking memcpy/memset hold the issuing client until completion
//     (enforced by the client driver via the completion callback),
//   * cudaMalloc / cudaFree synchronise the whole device.
#ifndef SRC_RUNTIME_GPU_RUNTIME_H_
#define SRC_RUNTIME_GPU_RUNTIME_H_

#include <functional>
#include <memory>

#include "src/gpusim/device.h"
#include "src/runtime/memory_manager.h"
#include "src/runtime/op.h"
#include "src/sim/simulator.h"

namespace orion {
namespace runtime {

class GpuRuntime {
 public:
  using CompletionCb = gpusim::Device::CompletionCb;

  GpuRuntime(Simulator* sim, gpusim::DeviceSpec spec);

  gpusim::Device& device() { return device_; }
  const gpusim::Device& device() const { return device_; }
  MemoryManager& memory() { return memory_; }

  gpusim::StreamId CreateStream(int priority = gpusim::kPriorityDefault);

  // Submits an Op on the given stream. `done` fires when the op completes on
  // the device. Malloc/Free synchronise the device first, then apply the
  // memory accounting, then fire `done`.
  void Submit(const Op& op, gpusim::StreamId stream, CompletionCb done = nullptr);

  // Direct kernel-level API used by the toy experiments and examples.
  void LaunchKernel(gpusim::StreamId stream, const gpusim::KernelDesc& kernel,
                    CompletionCb done = nullptr);
  void RecordEvent(gpusim::StreamId stream, gpusim::GpuEvent* event,
                   CompletionCb done = nullptr);
  // cudaEventQuery: non-blocking completion probe (§5.1.2).
  static bool EventQuery(const gpusim::GpuEvent& event) { return event.done; }

 private:
  gpusim::Device device_;
  MemoryManager memory_;
};

}  // namespace runtime
}  // namespace orion

#endif  // SRC_RUNTIME_GPU_RUNTIME_H_
