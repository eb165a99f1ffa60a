#include "src/baselines/reef.h"

#include <algorithm>
#include <utility>

#include "src/core/op_view.h"

#include "src/common/check.h"

namespace orion {
namespace baselines {

void ReefScheduler::Attach(Simulator* sim, runtime::GpuRuntime* rt,
                           std::vector<core::SchedClientInfo> clients) {
  (void)sim;
  ORION_CHECK(rt != nullptr);
  rt_ = rt;
  for (const core::SchedClientInfo& client : clients) {
    if (client.high_priority) {
      ORION_CHECK_MSG(hp_client_ == -1, "REEF-N expects one high-priority client");
      hp_client_ = client.id;
      hp_stream_ = rt_->CreateStream(gpusim::kPriorityHigh);
    } else {
      BeClient be;
      be.id = client.id;
      be.profile = client.profile;
      be.stream = rt_->CreateStream(gpusim::kPriorityDefault);
      be_clients_.push_back(std::move(be));
    }
  }
}

void ReefScheduler::Enqueue(core::ClientId client, core::SchedOp op) {
  if (client == hp_client_) {
    // High-priority ops bypass every best-effort queue (REEF-N's restricted
    // preemption) and go straight to the device.
    if (core::IsComputeOp(op.op)) {
      ++hp_outstanding_;
      auto on_complete = std::move(op.on_complete);
      rt_->Submit(op.op, hp_stream_, [this, on_complete = std::move(on_complete)]() {
        ORION_CHECK(hp_outstanding_ > 0);
        --hp_outstanding_;
        if (on_complete) {
          on_complete();
        }
        PollBestEffort();
      });
    } else {
      rt_->Submit(op.op, hp_stream_, std::move(op.on_complete));
    }
    return;
  }
  BeClient* be = core::FindClient(be_clients_, client);
  ORION_CHECK_MSG(be != nullptr, "enqueue from unknown client " << client);
  be->queue.push_back(std::move(op));
  PollBestEffort();
}

void ReefScheduler::PollBestEffort() {
  core::DrainRoundRobin(
      be_clients_, &rr_cursor_, rt_,
      [this](const BeClient& be, const runtime::Op& op) {
        // Software queue depth cap: at most kQueueDepth best-effort kernels
        // outstanding on the device.
        if (be_outstanding_ >= kQueueDepth) {
          return false;
        }
        // Dynamic kernel padding: launch when the GPU is free of
        // high-priority work, or when the kernel (or whole graph) fits into
        // the SMs left free. Size-only — no compute/memory-profile or
        // duration checks. Padding works at thread-block granularity: a grid
        // larger than the device still fits into leftover SMs wave by wave,
        // so the requirement is capped at device size.
        const int needed =
            std::min(core::ViewOf(op, be.profile).sm_needed, rt_->device().spec().num_sms);
        const bool fits = needed <= rt_->device().FreeSms();
        return hp_outstanding_ == 0 || fits;
      },
      [this](BeClient& be, core::SchedOp op) {
        ++be_outstanding_;
        auto on_complete = std::move(op.on_complete);
        rt_->Submit(op.op, be.stream, [this, on_complete = std::move(on_complete)]() {
          ORION_CHECK(be_outstanding_ > 0);
          --be_outstanding_;
          if (on_complete) {
            on_complete();
          }
          PollBestEffort();
        });
      });
}

}  // namespace baselines
}  // namespace orion
