// Collocation experiment harness.
//
// Reproduces the paper's evaluation methodology (§6.1): profile each workload
// offline on a dedicated simulated GPU, then run the collocation with the
// chosen scheduler, measure per-client request latency distributions and
// throughput over a post-warmup window, and report device utilization.
// The Ideal baseline (each job on its own dedicated GPU) runs every client
// on a private device instance inside the same virtual timeline.
#ifndef SRC_HARNESS_EXPERIMENT_H_
#define SRC_HARNESS_EXPERIMENT_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/orion_scheduler.h"
#include "src/core/scheduler.h"
#include "src/fault/fault_plan.h"
#include "src/gpusim/utilization.h"
#include "src/harness/client_driver.h"
#include "src/memsub/pager.h"
#include "src/profiler/profiler.h"
#include "src/telemetry/telemetry.h"

namespace orion {
namespace harness {

enum class SchedulerKind {
  kDedicated,  // Ideal: one GPU per job
  kMig,        // static spatial partitioning (§4): 1/N of SMs, bandwidth and
               // memory per client — coarse-grained, no harvesting of the
               // partner's idle capacity
  kTemporal,
  kStreams,
  kMps,
  kReef,
  kTickTock,
  kOrion,
  kTimeQuantum,  // nvshare-style: MPS-like sharing + exclusive quanta on thrash
};

const char* SchedulerKindName(SchedulerKind kind);

std::unique_ptr<core::Scheduler> MakeScheduler(SchedulerKind kind,
                                               const core::OrionOptions& orion_options);

struct ExperimentConfig {
  gpusim::DeviceSpec device = gpusim::DeviceSpec::V100_16GB();
  SchedulerKind scheduler = SchedulerKind::kOrion;
  core::OrionOptions orion;
  std::vector<ClientConfig> clients;

  // Unified-memory paging (src/memsub), the §5.1.3 oversubscription path.
  // When enabled on a shared-GPU run, every client's model state is
  // registered with a page-granular pager: requests fault their working set
  // in on demand and paging traffic rides the real copy engine. A shared run
  // whose collocation exceeds device memory requires it (RunExperiment
  // rejects the run otherwise). Inert when the collocation fits (no faults,
  // bit-identical results). Ignored for Dedicated/MIG: each client owns its
  // partition's memory, which must hold its state (FirstMemoryOverflow).
  memsub::PagingOptions paging;

  DurationUs warmup_us = SecToUs(1.0);
  DurationUs duration_us = SecToUs(20.0);  // measurement window after warmup
  DurationUs launch_overhead_us = 6.0;     // host cost per intercepted op
  std::uint64_t seed = 42;
  profiler::ProfileOptions profile_options;
  // §5.1.3 extension: schedule pending PCIe copies by stream priority.
  bool pcie_priority_scheduling = false;
  // Fault scenario injected into the run (src/fault). Client ids in the plan
  // index config.clients; device faults target the shared device (gpu 0) or,
  // for Ideal/MIG, the per-client device with that index. Empty = fault-free.
  fault::FaultPlan fault_plan;

  // Optional telemetry sink (src/telemetry). When set, the scheduler and
  // fault injector publish their counters into the hub registry, per-client
  // results are mirrored as "harness.*" metrics, and with tracing enabled
  // every device's kernel execution records are collected into the hub's
  // trace (one track per device) alongside the scheduler's decision markers.
  telemetry::Hub* telemetry = nullptr;
};

struct ClientResult {
  std::string name;
  bool high_priority = false;
  std::size_t completed = 0;       // completions inside the measurement window
  std::size_t completed_total = 0;  // including warmup (pager cross-checks)
  double throughput_rps = 0.0;     // requests (or iterations) per second
  LatencyRecorder latency;         // µs, measurement window only
  // latency = queueing (waiting at the client behind earlier requests)
  //         + service (first submission to completion on the device).
  LatencyRecorder queueing;
  LatencyRecorder service;
  // Requests over ClientConfig::slo_us in the window (0 when no SLO is set).
  std::size_t slo_misses = 0;
  // Unified-memory paging telemetry (zero when paging is off).
  std::uint64_t page_faults = 0;
  DurationUs page_stall_us = 0.0;
};

struct ExperimentResult {
  std::string scheduler_name;
  std::vector<ClientResult> clients;
  gpusim::UtilizationSample utilization;  // averages over the window
  DurationUs window_us = 0.0;
  // §5.1.3 memory accounting: by how much the collocation exceeded GPU
  // memory (the overflow the pager services; 0 when the collocation fits).
  std::size_t memory_deficit_bytes = 0;

  // Fault accounting (zero on fault-free runs).
  std::size_t faults_injected = 0;
  std::size_t faults_skipped = 0;         // plan events whose target was absent
  std::size_t clients_quarantined = 0;    // crash + runaway quarantines (Orion)
  std::size_t runaway_quarantines = 0;    // watchdog-detected hangs (Orion)
  std::size_t memory_used_end_bytes = 0;  // live device memory at the horizon

  // Unified-memory paging accounting (all zero when config.paging.enabled
  // was false or the run was Dedicated/MIG).
  bool paging_active = false;             // pager constructed for this run
  memsub::PagingTotals paging;            // run-level fault/eviction totals
  // nvshare-TQ introspection (zero for other schedulers).
  std::size_t tq_exclusive_entries = 0;
  std::size_t tq_quanta = 0;
  DurationUs tq_exclusive_us = 0.0;

  const ClientResult& hp() const;
  double TotalThroughput() const;
};

ExperimentResult RunExperiment(const ExperimentConfig& config);

// §5.1.3 memory admission, which RunExperiment enforces. A shared run puts
// every client on one device, Ideal gives each a full device and MIG a 1/N
// slice of one; a partition must hold its clients' model state, unless it is
// a shared GPU with paging enabled. Returns the first that does not.
struct MemoryOverflow {
  std::size_t partition = 0;  // 0 on a shared run, else the client's index
  std::size_t capacity_bytes = 0;
  std::size_t excess_bytes = 0;
};
std::optional<MemoryOverflow> FirstMemoryOverflow(const ExperimentConfig& config);

// Paper Table 4 / §6.2: cost savings of collocating on 1 GPU vs running each
// job on its own GPU:  2 * Throughput_collocated / Throughput_dedicated.
double CostSavings(double dedicated_throughput, double collocated_throughput);

}  // namespace harness
}  // namespace orion

#endif  // SRC_HARNESS_EXPERIMENT_H_
