// REEF-N baseline (§6.1).
//
// REEF [50] targets AMD GPUs with host-controlled preemption; its NVIDIA
// variant REEF-N restricts preemption to the software queues: high-priority
// kernels bypass buffered best-effort kernels before submission. Best-effort
// kernels are dispatched with REEF's dynamic kernel padding: a best-effort
// kernel may launch alongside the high-priority job when it fits in the SMs
// the current high-priority kernel leaves free. Per the paper's setup we use
// a software queue depth of 12 outstanding best-effort kernels.
//
// What REEF-N deliberately lacks compared to Orion: compute/memory profile
// awareness and duration-based throttling — the two omissions behind its
// high tail latency in inf-train (§6.2.1) and its best-effort starvation in
// train-train (§6.2.2).
#ifndef SRC_BASELINES_REEF_H_
#define SRC_BASELINES_REEF_H_

#include <vector>

#include "src/core/scheduler.h"

namespace orion {
namespace baselines {

class ReefScheduler : public core::Scheduler {
 public:
  static constexpr int kQueueDepth = 12;  // from discussion with REEF authors (§6.1)

  // Best-effort kernels currently submitted-but-not-completed (tests/stats).
  int be_outstanding() const { return be_outstanding_; }
  void Attach(Simulator* sim, runtime::GpuRuntime* rt,
              std::vector<core::SchedClientInfo> clients) override;
  void Enqueue(core::ClientId client, core::SchedOp op) override;

 private:
  struct BeClient {
    core::ClientId id = 0;
    gpusim::StreamId stream = gpusim::kInvalidStream;
    const profiler::WorkloadProfile* profile = nullptr;
    common::Ring<core::SchedOp> queue;
  };

  // Listing 1's round-robin scan with REEF-N's admit: queue depth, then
  // padding.
  void PollBestEffort();

  runtime::GpuRuntime* rt_ = nullptr;
  core::ClientId hp_client_ = -1;
  gpusim::StreamId hp_stream_ = gpusim::kInvalidStream;
  int hp_outstanding_ = 0;
  std::vector<BeClient> be_clients_;
  std::size_t rr_cursor_ = 0;
  int be_outstanding_ = 0;  // best-effort kernels submitted but not completed
};

}  // namespace baselines
}  // namespace orion

#endif  // SRC_BASELINES_REEF_H_
