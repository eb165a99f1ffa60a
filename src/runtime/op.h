// GPU operations as seen by the interception layer.
//
// Orion intercepts CUDA runtime calls (kernel launches and memory-management
// operations, §5) and buffers them in per-client software queues. An Op is
// one such intercepted call, tagged with the bookkeeping the scheduler and
// the harness need (owning client, owning request, end-of-request marker).
#ifndef SRC_RUNTIME_OP_H_
#define SRC_RUNTIME_OP_H_

#include <cstdint>
#include <span>
#include <type_traits>

#include "src/gpusim/kernel.h"

namespace orion {
namespace runtime {

enum class OpType : std::uint8_t {
  kKernelLaunch,   // cudaLaunchKernel / CUBLAS / CUDNN entry points
  kMemcpyH2D,      // cudaMemcpy(Async) host -> device
  kMemcpyD2H,      // cudaMemcpy(Async) device -> host
  kMemset,         // cudaMemset
  kMalloc,         // cudaMalloc  (device-synchronising, §5.1.3)
  kFree,           // cudaFree    (device-synchronising, §5.1.3)
  // §7 extension: cudaGraphLaunch — a whole captured kernel graph submitted
  // with ONE host call. Cuts per-kernel launch overhead, but the intercepting
  // scheduler can only gate the graph as a unit: kernel-granularity policy
  // degenerates to graph granularity (the tension the paper discusses).
  kGraphLaunch,
};

struct Op {
  OpType type = OpType::kKernelLaunch;

  // kKernelLaunch.
  gpusim::KernelDesc kernel;

  // kGraphLaunch: the captured kernel sequence (executes in order on the
  // target stream). A view: the kernels live in storage that outlives every
  // submission of the op, such as the RequestTemplate that captured them.
  std::span<const gpusim::KernelDesc> graph_kernels;

  // Memory ops.
  std::size_t bytes = 0;
  // Blocking (cudaMemcpy) vs asynchronous (cudaMemcpyAsync); the client
  // driver stalls on blocking ops, matching §5.1.3.
  bool blocking = false;

  // Bookkeeping stamped by the interception layer.
  std::uint64_t client_id = 0;
  std::uint64_t request_id = 0;
  std::uint32_t index_in_request = 0;
  bool end_of_request = false;
};
static_assert(std::is_trivially_copyable_v<Op>,
              "Op is copied per submission; keep it allocation-free");

}  // namespace runtime
}  // namespace orion

#endif  // SRC_RUNTIME_OP_H_
