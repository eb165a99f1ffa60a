// Online serving front-end over the shared-GPU cluster (DESIGN.md §9).
//
// The kernel-level simulator answers "what happens inside one GPU"; this
// subsystem answers the question one level up: given a cluster of
// Orion-managed GPUs and open-loop request streams for several models, how
// do routing, dynamic batching, SLO-aware admission, autoscaling and
// failover shape end-to-end latency and SLO attainment?
//
// The model is a discrete-event simulation at replica granularity:
//   * each model service owns an arrival process (trace::ArrivalProcess) and
//     a latency SLO, and maps to an Orion stream class via its PriorityTier;
//   * replicas are placed on GPUs by cluster::BestGpuFor
//     (least added PairInterference, one latency-critical replica per GPU,
//     memory- and slot-capacity constrained);
//   * a replica serves one batch at a time; the batch's device-busy time
//     comes from the roofline cost model (batch_cost.h) scaled by the
//     interference slowdown its GPU co-residents induce;
//   * the router, admission controller, batcher and autoscaler are the
//     pluggable policy components (router.h, admission.h, batcher.h,
//     autoscaler.h);
//   * fault::FaultPlan events drive failover: kGpuDown kills a GPU and every
//     replica on it, kClientCrash kills one replica process. Queued and
//     in-flight requests of dead replicas re-route to survivors and each
//     lost replica triggers a re-placement on the surviving GPUs.
//
// Everything is seeded and event-ordered, so same-config same-seed runs are
// bit-identical (determinism_test).
#ifndef SRC_SERVING_SERVING_H_
#define SRC_SERVING_SERVING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/fault/fault_plan.h"
#include "src/gpusim/device_spec.h"
#include "src/telemetry/telemetry.h"
#include "src/serving/admission.h"
#include "src/serving/autoscaler.h"
#include "src/serving/batcher.h"
#include "src/serving/llm_cost.h"
#include "src/serving/request.h"
#include "src/serving/router.h"
#include "src/trace/arrivals.h"
#include "src/workloads/models.h"

namespace orion {
namespace serving {

// Kept only because perfbench/ names it; the arrival model is trace's.
using ArrivalKind = trace::ArrivalKind;

// Replica slots per GPU that placement (cluster::BestGpuFor) may fill.
inline constexpr int kMaxReplicasPerGpu = 2;

struct ModelServiceConfig {
  workloads::WorkloadSpec workload;  // per-request work; task must be inference
  PriorityTier tier = PriorityTier::kLatencyCritical;
  DurationUs slo_us = MsToUs(50.0);
  // Autoregressive LLM serving (llm.enabled): requests become sequences with
  // a prefill pass and per-token decode steps, batching turns iteration-level
  // (llm.continuous), KV-cache memory is accounted per replica, and slo_us is
  // superseded by the per-token TTFT/TPOT SLOs in `llm`. The workload must be
  // kLlmDecode (its signature still drives placement and interference).
  LlmServiceConfig llm;
  // Any open-loop kind: closed-loop arrivals are a client-side notion and
  // make no sense for a front-end. kDiurnal is the non-stationary shape for
  // multi-hour datacenter runs, parameterized by `diurnal` below.
  trace::ArrivalKind arrivals = trace::ArrivalKind::kPoisson;
  double rps = 50.0;
  // kDiurnal parameters (shape, bursts). The long-run mean rate is `rps`
  // above unless diurnal.mean_rps (default 0) is set.
  trace::DiurnalConfig diurnal;
  int initial_replicas = 1;
  int max_replicas = 4;  // the autoscaler never drains below one replica
};

struct ServingConfig {
  gpusim::DeviceSpec device = gpusim::DeviceSpec::V100_16GB();
  int num_gpus = 4;
  DurationUs launch_overhead_us = 6.0;  // host cost per submitted kernel

  std::vector<ModelServiceConfig> models;
  RoutePolicy policy = RoutePolicy::kLeastOutstanding;
  BatchingConfig batching;
  AdmissionConfig admission;
  AutoscalerConfig autoscaler;

  // Replica deaths (kGpuDown / kClientCrash, where `client` is the replica
  // id) drive failover; other fault kinds are counted as skipped.
  // A replacement replica is provisioned on a surviving GPU for every
  // replica lost to a fault (independent of the autoscaler).
  fault::FaultPlan fault_plan;

  DurationUs warmup_us = SecToUs(1.0);
  DurationUs duration_us = SecToUs(20.0);  // measurement window after warmup
  std::uint64_t seed = 42;

  // Optional telemetry sink (src/telemetry). When set, every counter the
  // engine keeps lives in the hub's metric registry as "serving.*" metrics
  // labeled by service (the ServingResult is assembled FROM the registry, so
  // an exported CSV reproduces the printed numbers exactly), and with
  // tracing enabled each request becomes nested request/queue/execute slices
  // on its service's track, each batch a slice on its GPU's track (flow
  // arrows link a request to the batch that served it), and shed/drop/
  // failover/scaling decisions become instant markers on a control track.
  telemetry::Hub* telemetry = nullptr;
};

// Per-service results. Window counters cover the measurement window only;
// the total_* counters cover the whole run and satisfy
//   total_offered == total_completed + total_shed + total_dropped + left_in_system.
struct ModelServingResult {
  std::string name;
  PriorityTier tier = PriorityTier::kLatencyCritical;

  std::size_t offered = 0;      // arrivals in the window
  std::size_t completed = 0;    // completions in the window
  std::size_t slo_met = 0;      // completions in the window within deadline
  std::size_t shed = 0;         // admission rejections in the window
  std::size_t dropped = 0;      // lost in the window (no surviving replica)
  std::size_t failed_over = 0;  // re-routes after replica death in the window
  double slo_attainment = 0.0;  // slo_met / offered
  double throughput_rps = 0.0;
  LatencyRecorder latency;      // e2e µs, window only
  LatencyRecorder queueing;     // arrival → service start, window only
  std::size_t batches = 0;              // batches served in the window
  double mean_batch_size = 0.0;
  int final_replicas = 0;       // active at the horizon

  // LLM services only (zero otherwise). slo_met above then counts
  // completions whose TTFT **and** TPOT SLOs both held.
  std::size_t tokens = 0;        // decode tokens produced in the window
  std::size_t prefills = 0;      // sequences prefilled in the window
  std::size_t decode_steps = 0;  // continuous-batching iterations in the window
  std::size_t kv_evictions = 0;  // preempt-with-recompute events in the window
  LatencyRecorder ttft;          // arrival → first token, µs, window only
  LatencyRecorder tpot;          // mean inter-token µs after the first, window only

  std::size_t total_offered = 0;
  std::size_t total_completed = 0;
  std::size_t total_shed = 0;
  std::size_t total_dropped = 0;
  std::size_t left_in_system = 0;  // queued or in flight at the horizon
};

struct ServingResult {
  std::vector<ModelServingResult> models;
  DurationUs window_us = 0.0;

  // Autoscaler activity over the whole run.
  std::size_t scale_ups = 0;
  std::size_t scale_downs = 0;
  std::size_t scale_failures = 0;  // wanted a replica, no GPU could host it

  // Failover accounting.
  std::size_t faults_injected = 0;
  std::size_t faults_skipped = 0;
  std::size_t replicas_lost = 0;
  std::size_t replacements = 0;          // re-placements after replica death
  std::size_t replacement_failures = 0;  // no surviving GPU could host one
  std::size_t gpus_alive_end = 0;

  // Active-replica time integrated over the window, in replica-seconds: the
  // fleet cost the autoscaler is trying to minimise.
  double replica_seconds = 0.0;
};

// Runs the single-node serving simulation: datacenter::RunCluster on a
// one-node cluster of `num_gpus` GPUs, where no network is modeled (defined
// in src/datacenter/cluster_engine.cc; callers must link orion_datacenter).
ServingResult RunServing(const ServingConfig& config);

}  // namespace serving
}  // namespace orion

#endif  // SRC_SERVING_SERVING_H_
