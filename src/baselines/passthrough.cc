#include "src/baselines/passthrough.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/check.h"

namespace orion {
namespace baselines {

PassthroughScheduler::PassthroughScheduler(bool use_priorities, double gil_penalty)
    : use_priorities_(use_priorities), gil_penalty_(gil_penalty) {}

double PassthroughScheduler::HostOverheadMultiplier(int num_clients) const {
  return 1.0 + gil_penalty_ * std::max(0, num_clients - 1);
}

void PassthroughScheduler::Attach(Simulator* sim, runtime::GpuRuntime* rt,
                                  std::vector<core::SchedClientInfo> clients) {
  (void)sim;
  ORION_CHECK(rt != nullptr);
  rt_ = rt;
  for (const core::SchedClientInfo& client : clients) {
    if (static_cast<int>(streams_.size()) <= client.id) {
      streams_.resize(static_cast<std::size_t>(client.id) + 1, gpusim::kInvalidStream);
    }
    const int priority = (use_priorities_ && client.high_priority) ? gpusim::kPriorityHigh
                                                                   : gpusim::kPriorityDefault;
    streams_[static_cast<std::size_t>(client.id)] = rt_->CreateStream(priority);
  }
}

void PassthroughScheduler::Enqueue(core::ClientId client, core::SchedOp op) {
  ORION_CHECK(client >= 0 && client < static_cast<int>(streams_.size()));
  rt_->Submit(op.op, streams_[static_cast<std::size_t>(client)], std::move(op.on_complete));
}

std::unique_ptr<core::Scheduler> MakeStreamsBaseline() {
  // GIL contention: each extra client thread adds ~60% to per-op host cost.
  return std::make_unique<PassthroughScheduler>(/*use_priorities=*/true, /*gil_penalty=*/0.6);
}

std::unique_ptr<core::Scheduler> MakeMpsBaseline() {
  // Separate processes: no GIL, but also no stream priorities under MPS.
  return std::make_unique<PassthroughScheduler>(/*use_priorities=*/false, /*gil_penalty=*/0.0);
}

}  // namespace baselines
}  // namespace orion
