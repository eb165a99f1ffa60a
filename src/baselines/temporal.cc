#include "src/baselines/temporal.h"

#include <utility>

#include "src/common/check.h"

namespace orion {
namespace baselines {

void TemporalScheduler::Attach(Simulator* sim, runtime::GpuRuntime* rt,
                               std::vector<core::SchedClientInfo> clients) {
  (void)sim;
  ORION_CHECK(rt != nullptr);
  rt_ = rt;
  stream_ = rt_->CreateStream(gpusim::kPriorityDefault);
  for (const core::SchedClientInfo& info : clients) {
    ClientState state;
    state.id = info.id;
    state.high_priority = info.high_priority;
    clients_.push_back(std::move(state));
  }
}

void TemporalScheduler::Enqueue(core::ClientId client, core::SchedOp op) {
  ClientState* state = core::FindClient(clients_, client);
  ORION_CHECK_MSG(state != nullptr, "unknown client " << client);
  state->queue.push_back(std::move(op));
  if (active_ == -1) {
    MaybeActivate();
  } else if (active_ == client) {
    DrainActive();
  }
}

void TemporalScheduler::MaybeActivate() {
  if (active_ != -1) {
    return;
  }
  // High-priority client first whenever it has pending work.
  for (ClientState& client : clients_) {
    if (client.high_priority && !client.queue.empty()) {
      active_ = client.id;
      DrainActive();
      return;
    }
  }
  // Otherwise round-robin over best-effort clients.
  for (std::size_t step = 0; step < clients_.size(); ++step) {
    ClientState& client = clients_[(rr_cursor_ + step) % clients_.size()];
    if (!client.high_priority && !client.queue.empty()) {
      rr_cursor_ = (rr_cursor_ + step + 1) % clients_.size();
      active_ = client.id;
      DrainActive();
      return;
    }
  }
}

void TemporalScheduler::DrainActive() {
  if (active_end_submitted_) {
    return;  // current request still finishing on the device
  }
  ClientState* state = core::FindClient(clients_, active_);
  ORION_CHECK(state != nullptr);
  while (!state->queue.empty()) {
    core::SchedOp op = std::move(state->queue.front());
    state->queue.pop_front();
    const bool end_of_request = op.op.end_of_request;
    auto on_complete = std::move(op.on_complete);
    runtime::GpuRuntime::CompletionCb done;
    if (end_of_request) {
      // Releasing the device only when the request's last op completes is
      // what serialises whole requests (and causes HOL blocking).
      done = [this, on_complete = std::move(on_complete)]() {
        if (on_complete) {
          on_complete();
        }
        active_ = -1;
        active_end_submitted_ = false;
        MaybeActivate();
      };
    } else {
      done = std::move(on_complete);
    }
    if (end_of_request) {
      active_end_submitted_ = true;
    }
    rt_->Submit(op.op, stream_, std::move(done));
    if (end_of_request) {
      return;
    }
  }
}

}  // namespace baselines
}  // namespace orion
