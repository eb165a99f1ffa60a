#include "src/baselines/ticktock.h"

#include <utility>

#include "src/common/check.h"

namespace orion {
namespace baselines {

int TickTockScheduler::HalfOf(const runtime::Op& op) {
  if (op.type == runtime::OpType::kGraphLaunch && !op.graph_kernels.empty()) {
    // A captured graph belongs to the half its first kernel starts in.
    runtime::Op probe;
    probe.type = runtime::OpType::kKernelLaunch;
    probe.kernel = op.graph_kernels.front();
    return HalfOf(probe);
  }
  if (op.type != runtime::OpType::kKernelLaunch) {
    return 0;  // input copies precede the forward pass
  }
  switch (op.kernel.phase) {
    case gpusim::KernelPhase::kForward:
    case gpusim::KernelPhase::kNone:
      return 0;
    case gpusim::KernelPhase::kBackward:
    case gpusim::KernelPhase::kUpdate:
      return 1;
  }
  return 0;
}

void TickTockScheduler::Attach(Simulator* sim, runtime::GpuRuntime* rt,
                               std::vector<core::SchedClientInfo> clients) {
  (void)sim;
  ORION_CHECK(rt != nullptr);
  ORION_CHECK_MSG(clients.size() == 2, "Tick-Tock collocates exactly two training jobs");
  rt_ = rt;
  for (const core::SchedClientInfo& info : clients) {
    ClientState state;
    state.id = info.id;
    state.stream = rt_->CreateStream(gpusim::kPriorityDefault);
    clients_.push_back(std::move(state));
  }
}

int TickTockScheduler::AllowedHalf(std::size_t client_index) const {
  return static_cast<int>((round_ + client_index) % 2);
}

void TickTockScheduler::Enqueue(core::ClientId client, core::SchedOp op) {
  ClientState* state = core::FindClient(clients_, client);
  ORION_CHECK_MSG(state != nullptr, "enqueue from unknown client " << client);
  state->queue.push_back(std::move(op));
  Drain();
  MaybeAdvanceRound();
}

void TickTockScheduler::Drain() {
  for (std::size_t index = 0; index < clients_.size(); ++index) {
    ClientState& state = clients_[index];
    const int allowed = AllowedHalf(index);
    while (!state.queue.empty() && HalfOf(state.queue.front().op) == allowed) {
      core::SchedOp op = std::move(state.queue.front());
      state.queue.pop_front();
      ++state.outstanding;
      auto on_complete = std::move(op.on_complete);
      rt_->Submit(op.op, state.stream, [this, &state, on_complete = std::move(on_complete)]() {
        ORION_CHECK(state.outstanding > 0);
        --state.outstanding;
        if (on_complete) {
          on_complete();
        }
        MaybeAdvanceRound();
      });
    }
  }
}

bool TickTockScheduler::AtBoundary(std::size_t client_index) const {
  const ClientState& state = clients_[client_index];
  if (state.outstanding > 0) {
    return false;
  }
  // At a boundary when the next buffered op belongs to the other half. An
  // empty queue also counts: the client is either between requests or still
  // feeding ops — treating it as a boundary keeps the barrier live (the
  // occasional premature flip only delays that client by one round).
  return state.queue.empty() || HalfOf(state.queue.front().op) != AllowedHalf(client_index);
}

void TickTockScheduler::MaybeAdvanceRound() {
  // The barrier: every client must reach its half boundary before any client
  // starts the next half. This is the synchronisation the paper blames for
  // Tick-Tock's low throughput (§6.2.2).
  for (int guard = 0; guard < 8; ++guard) {
    bool all_boundary = true;
    bool any_work = false;
    for (std::size_t index = 0; index < clients_.size(); ++index) {
      if (!AtBoundary(index)) {
        all_boundary = false;
      }
      if (!clients_[index].queue.empty()) {
        any_work = true;
      }
    }
    if (!all_boundary || !any_work) {
      return;
    }
    ++round_;
    Drain();
  }
}

}  // namespace baselines
}  // namespace orion
