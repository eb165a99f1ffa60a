// Temporal sharing baseline (§4, §6.1).
//
// Time-slices the GPU at request granularity: one job's request (inference
// batch or training iteration) runs at a time; the high-priority client is
// picked first whenever it has pending work, best-effort clients are served
// round-robin. This is the baseline that suffers head-of-line blocking: an
// incoming inference request must wait for the ongoing training iteration to
// finish (§6.2.1).
#ifndef SRC_BASELINES_TEMPORAL_H_
#define SRC_BASELINES_TEMPORAL_H_

#include <vector>

#include "src/core/scheduler.h"

namespace orion {
namespace baselines {

class TemporalScheduler : public core::Scheduler {
 public:
  void Attach(Simulator* sim, runtime::GpuRuntime* rt,
              std::vector<core::SchedClientInfo> clients) override;
  void Enqueue(core::ClientId client, core::SchedOp op) override;

 private:
  struct ClientState {
    core::ClientId id = 0;
    bool high_priority = false;
    common::Ring<core::SchedOp> queue;
  };

  // Picks the next request owner if the device is free.
  void MaybeActivate();
  // Submits buffered ops of the active request.
  void DrainActive();

  runtime::GpuRuntime* rt_ = nullptr;
  gpusim::StreamId stream_ = gpusim::kInvalidStream;
  std::vector<ClientState> clients_;
  core::ClientId active_ = -1;
  // The active request's last op has been submitted; nothing more from this
  // client may run until that op completes and releases the device.
  bool active_end_submitted_ = false;
  std::size_t rr_cursor_ = 0;
};

}  // namespace baselines
}  // namespace orion

#endif  // SRC_BASELINES_TEMPORAL_H_
