// Aggregate scheduling view of an intercepted op, and the round-robin
// best-effort scan the kernel-granularity policies share.
//
// Kernel-granularity policies (Orion, REEF) decide per kernel using the
// offline profile. A captured CUDA graph (§7 extension) arrives as ONE op,
// so the policy can only judge it as a unit: total expected duration, the
// largest SM requirement, and the duration-dominant resource profile. This
// is precisely the granularity loss the paper's Discussion warns about —
// the helpers here make that degradation explicit and testable.
#ifndef SRC_CORE_OP_VIEW_H_
#define SRC_CORE_OP_VIEW_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/core/scheduler.h"
#include "src/gpusim/kernel.h"
#include "src/profiler/profiler.h"
#include "src/runtime/gpu_runtime.h"
#include "src/runtime/op.h"

namespace orion {
namespace core {

// True for ops the kernel-scheduling policy applies to (kernel launches and
// graph launches); memory-management ops bypass the policy (§5.1.3).
inline bool IsComputeOp(const runtime::Op& op) {
  return op.type == runtime::OpType::kKernelLaunch ||
         op.type == runtime::OpType::kGraphLaunch;
}

struct KernelView {
  DurationUs duration_us = 0.0;  // expected total execution time
  gpusim::ResourceProfile profile = gpusim::ResourceProfile::kUnknown;
  int sm_needed = 0;             // peak SM requirement
  // The offline profile vouches for every kernel of the op. False for a
  // null profile, a miss (conservative or not), an empty graph and a memory
  // op: descriptor numbers are what a runaway kernel lies about, so only
  // profiled durations earn the watchdog's patience.
  bool profiled = false;
};

// Profile lookup with fallback to the descriptor's own numbers. With
// `conservative_miss` set, a kernel id absent from a non-null profile is
// instead classified memory-bound (the stale/poisoned-profile degradation
// mode, src/fault): an unrecognised best-effort kernel then never collocates
// with memory-bound hp work, trading throughput for interference safety
// rather than trusting the descriptor a real interceptor would not see.
inline KernelView ViewOfKernel(const gpusim::KernelDesc& kernel,
                               const profiler::WorkloadProfile* profile,
                               bool conservative_miss = false) {
  KernelView view;
  if (profile != nullptr) {
    if (const profiler::KernelProfile* kp = profile->Find(kernel.kernel_id)) {
      view.duration_us = kp->duration_us;
      view.profile = kp->profile;
      view.sm_needed = kp->sm_needed;
      view.profiled = true;
      return view;
    }
    if (conservative_miss) {
      view.duration_us = kernel.duration_us;
      view.profile = gpusim::ResourceProfile::kMemoryBound;
      view.sm_needed = kernel.sm_needed;
      return view;
    }
  }
  view.duration_us = kernel.duration_us;
  view.profile = gpusim::ClassifyKernel(kernel);
  view.sm_needed = kernel.sm_needed;
  return view;
}

// Aggregate view of a kernel or graph op.
inline KernelView ViewOf(const runtime::Op& op, const profiler::WorkloadProfile* profile,
                         bool conservative_miss = false) {
  if (op.type == runtime::OpType::kKernelLaunch) {
    return ViewOfKernel(op.kernel, profile, conservative_miss);
  }
  KernelView view;
  view.profiled = !op.graph_kernels.empty();
  double compute_time = 0.0;
  double memory_time = 0.0;
  for (const gpusim::KernelDesc& kernel : op.graph_kernels) {
    const KernelView k = ViewOfKernel(kernel, profile, conservative_miss);
    view.duration_us += k.duration_us;
    view.sm_needed = std::max(view.sm_needed, k.sm_needed);
    view.profiled = view.profiled && k.profiled;
    if (k.profile == gpusim::ResourceProfile::kComputeBound) {
      compute_time += k.duration_us;
    } else if (k.profile == gpusim::ResourceProfile::kMemoryBound) {
      memory_time += k.duration_us;
    }
  }
  // Dominant-by-time classification; graphs mixing both heavily are Unknown
  // only if neither side dominates at all.
  if (compute_time > memory_time && compute_time > 0.0) {
    view.profile = gpusim::ResourceProfile::kComputeBound;
  } else if (memory_time > 0.0) {
    view.profile = gpusim::ResourceProfile::kMemoryBound;
  }
  return view;
}

// Listing 1's best-effort scan, shared by every kernel-granularity policy
// (Orion, REEF-N); the policies differ only in `admit`. Clients are served
// round-robin from `*cursor`: a memory op at a queue head bypasses the policy
// (§5.1.3); a compute head goes to `submit` when `admit(client, op)` accepts
// it, after which the scan restarts at the client following the submitter.
// A full round with no progress (every head held, every queue empty) ends
// the drain. `Client` needs `queue` (a FIFO of SchedOp) and `stream`.
template <typename Client, typename Admit, typename Submit>
void DrainRoundRobin(std::vector<Client>& clients, std::size_t* cursor,
                     runtime::GpuRuntime* rt, Admit&& admit, Submit&& submit) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t step = 0; step < clients.size(); ++step) {
      Client& client = clients[(*cursor + step) % clients.size()];
      if (client.queue.empty()) {
        continue;
      }
      SchedOp& head = client.queue.front();
      if (!IsComputeOp(head.op)) {
        SchedOp op = std::move(head);
        client.queue.pop_front();
        rt->Submit(op.op, client.stream, std::move(op.on_complete));
        progress = true;
        continue;
      }
      if (!admit(client, head.op)) {
        continue;
      }
      SchedOp op = std::move(head);
      client.queue.pop_front();
      *cursor = (*cursor + step + 1) % clients.size();
      submit(client, std::move(op));
      progress = true;
      break;  // restart the scan from the new cursor
    }
  }
}

}  // namespace core
}  // namespace orion

#endif  // SRC_CORE_OP_VIEW_H_
