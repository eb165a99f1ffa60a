// GPU Streams and MPS baselines (§6.1).
//
// Both submit every intercepted op immediately on a per-client stream — the
// hardware alone resolves contention. They differ in two ways the paper
// calls out:
//   * Streams clients are threads of one Python process and contend on the
//     GIL, inflating per-op host overhead with client count; MPS clients are
//     separate processes (§6.2.1).
//   * Streams gives the high-priority client a high-priority CUDA stream;
//     MPS does not support stream priorities (§6.4).
#ifndef SRC_BASELINES_PASSTHROUGH_H_
#define SRC_BASELINES_PASSTHROUGH_H_

#include <vector>

#include "src/core/scheduler.h"

namespace orion {
namespace baselines {

class PassthroughScheduler : public core::Scheduler {
 public:
  // `use_priorities`: map the hp client to a high-priority stream.
  // `gil_penalty`: per-extra-client host overhead multiplier increment.
  PassthroughScheduler(bool use_priorities, double gil_penalty);

  double HostOverheadMultiplier(int num_clients) const override;
  void Attach(Simulator* sim, runtime::GpuRuntime* rt,
              std::vector<core::SchedClientInfo> clients) override;
  void Enqueue(core::ClientId client, core::SchedOp op) override;

 private:
  bool use_priorities_;
  double gil_penalty_;
  runtime::GpuRuntime* rt_ = nullptr;
  std::vector<gpusim::StreamId> streams_;  // indexed by ClientId
};

// Factory helpers for the two named baselines.
std::unique_ptr<core::Scheduler> MakeStreamsBaseline();
std::unique_ptr<core::Scheduler> MakeMpsBaseline();

}  // namespace baselines
}  // namespace orion

#endif  // SRC_BASELINES_PASSTHROUGH_H_
