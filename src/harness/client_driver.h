// Client driver: emulates one DNN application process.
//
// A driver owns one workload (model + task + batch size) and one arrival
// process. For every request it feeds the request's ops one by one into the
// scheduler's software queue, paced by the host-side per-op submission
// overhead (the framework + interception wrapper cost, §6.5); blocking ops
// stall the driver until the device completes them, and a new request never
// starts before the previous one finished (the application thread is
// synchronous at request granularity). Latency is measured from request
// arrival to completion of the request's last op — queueing included.
#ifndef SRC_HARNESS_CLIENT_DRIVER_H_
#define SRC_HARNESS_CLIENT_DRIVER_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/scheduler.h"
#include "src/memsub/pager.h"
#include "src/telemetry/attribution/report.h"
#include "src/trace/arrivals.h"
#include "src/workloads/models.h"

namespace orion {
namespace harness {

struct ClientConfig {
  workloads::WorkloadSpec workload;
  bool high_priority = false;
  using Arrivals = trace::ArrivalKind;  // kept only because perfbench/ names it
  // Any kind but kDiurnal, the serving front-end's multi-hour shape.
  trace::ArrivalKind arrivals = trace::ArrivalKind::kClosedLoop;
  double rps = 0.0;  // ignored for closed loop

  // §7 extension: submit each request's kernels as captured CUDA graphs
  // (one host call per graph of up to ~32 kernels) instead of one call per
  // kernel. Cuts host launch overhead; costs the scheduler its kernel
  // granularity.
  bool use_cuda_graphs = false;

  // Unified-memory paging (src/memsub): hot fraction of this client's
  // registered footprint touched at the start of every request. The
  // registration itself always covers the full ApproxModelStateBytes
  // footprint (allocator slack, cold activations, checkpoints), but a
  // request only faults on its hot set — params + live activations.
  double paging_ws_fraction = 1.0;

  // Per-request latency SLO for attribution's miss accounting (DESIGN.md
  // §15). 0 disables: every request records phases but no blame.
  DurationUs slo_us = 0.0;
};

class ClientDriver {
 public:
  ClientDriver(Simulator* sim, core::Scheduler* scheduler, core::ClientId id,
               const ClientConfig& config, const gpusim::DeviceSpec& device,
               DurationUs op_overhead_us, Rng rng);

  void Start();

  // Unified-memory paging (src/memsub): when set and the client is
  // registered with the pager, every request begins by touching the working
  // set — faulted pages stall the request (counted as service time) until
  // their PCIe fault-in transfers land. Call before Start().
  void set_pager(memsub::UnifiedMemoryPager* pager) { pager_ = pager; }

  // Latency attribution (DESIGN.md §15): when a sink is set, every measured
  // completion decomposes into queue / paging / execute / interference
  // phases and is recorded there. The isolated per-request cost (from the
  // run's isolated profile) prices the kExecute phase; anything above it in
  // the post-queue, post-paging window is interference. Call before Start().
  void set_attribution(attribution::ServiceAttribution* sink) { attribution_ = sink; }
  void set_isolated_request_us(DurationUs us) { isolated_request_us_ = us; }
  std::size_t slo_misses() const { return slo_misses_; }

  // --- Fault injection (src/fault). ---
  // Process death: no further arrivals, submissions, or latency records.
  // Completions of ops already on the device still fire into the driver and
  // are discarded. Scheduler-side cleanup (queue quarantine, memory release)
  // is Scheduler::OnClientCrash's job, invoked by the fault injector.
  void Crash();
  // Process hang with a runaway kernel: the driver stops like a crash but
  // first pushes one kernel of `runaway_us` alone-time through the scheduler
  // under a kernel id no profile knows. Detecting and quarantining the hang
  // is the scheduler watchdog's job.
  void Hang(DurationUs runaway_us);

  core::ClientId id() const { return id_; }
  const ClientConfig& config() const { return config_; }
  std::string name() const;

  // Completions whose timestamp falls at or after `measure_from`.
  void set_measure_from(TimeUs measure_from) { measure_from_ = measure_from; }
  const LatencyRecorder& latencies() const { return latencies_; }
  // End-to-end latency decomposition: time a request waited at the client
  // before its first op was submitted (queueing) and time from first
  // submission to completion (service). queueing + service == latency.
  const LatencyRecorder& queueing() const { return queueing_; }
  const LatencyRecorder& service() const { return service_; }
  std::size_t completed_total() const { return completed_total_; }
  std::size_t completed_measured() const { return completed_measured_; }

 private:
  void ScheduleNextArrival();
  void OnArrival();
  void StartNextRequest();
  void SubmitNextOp();
  void OnRequestComplete();

  Simulator* sim_;
  core::Scheduler* scheduler_;
  memsub::UnifiedMemoryPager* pager_ = nullptr;
  core::ClientId id_;
  ClientConfig config_;
  DurationUs op_overhead_us_;
  Rng rng_;
  std::unique_ptr<trace::ArrivalProcess> arrivals_;
  std::vector<runtime::Op> template_ops_;

  std::deque<TimeUs> pending_arrivals_;
  bool request_in_flight_ = false;
  bool crashed_ = false;
  TimeUs current_arrival_ = 0.0;
  std::size_t next_op_ = 0;
  std::uint64_t next_request_id_ = 0;

  TimeUs measure_from_ = 0.0;
  LatencyRecorder latencies_;
  LatencyRecorder queueing_;
  LatencyRecorder service_;
  TimeUs current_start_ = 0.0;
  std::size_t completed_total_ = 0;
  std::size_t completed_measured_ = 0;

  attribution::ServiceAttribution* attribution_ = nullptr;
  DurationUs isolated_request_us_ = 0.0;
  DurationUs current_paging_us_ = 0.0;  // fault stall of the current request
  std::size_t slo_misses_ = 0;
};

}  // namespace harness
}  // namespace orion

#endif  // SRC_HARNESS_CLIENT_DRIVER_H_
