// Tick-Tock scheduling baseline (Wavelet [94]; Zico [67] is the same idea).
//
// Collocates two training jobs by offsetting their iteration halves: while
// job A runs its forward pass, job B runs its backward pass, and vice versa,
// with a synchronisation barrier at every half-iteration boundary. The
// barrier is the behaviour the paper highlights: the faster job always waits
// for the slower one, which costs the high-priority job up to 1.93x
// throughput (§6.2.2).
//
// Halves are identified from the kernel phase tags the workload generator
// emits (forward vs backward/update); memory ops ride along with the forward
// half (the input copy precedes the forward pass).
#ifndef SRC_BASELINES_TICKTOCK_H_
#define SRC_BASELINES_TICKTOCK_H_

#include <vector>

#include "src/core/scheduler.h"

namespace orion {
namespace baselines {

class TickTockScheduler : public core::Scheduler {
 public:
  void Attach(Simulator* sim, runtime::GpuRuntime* rt,
              std::vector<core::SchedClientInfo> clients) override;
  void Enqueue(core::ClientId client, core::SchedOp op) override;

 private:
  // 0 = forward half, 1 = backward (+update) half.
  static int HalfOf(const runtime::Op& op);

  struct ClientState {
    core::ClientId id = 0;
    gpusim::StreamId stream = gpusim::kInvalidStream;
    common::Ring<core::SchedOp> queue;
    int outstanding = 0;  // submitted-but-not-completed ops
  };

  // Which half `client_index` may run during the current round: clients
  // alternate, offset by their index (A fwd + B bwd, then swapped).
  int AllowedHalf(std::size_t client_index) const;
  // Submits every queued op that belongs to the client's allowed half.
  void Drain();
  // Barrier check: advance the round when both clients are at a boundary.
  void MaybeAdvanceRound();
  bool AtBoundary(std::size_t client_index) const;

  runtime::GpuRuntime* rt_ = nullptr;
  std::vector<ClientState> clients_;
  std::uint64_t round_ = 0;
};

}  // namespace baselines
}  // namespace orion

#endif  // SRC_BASELINES_TICKTOCK_H_
