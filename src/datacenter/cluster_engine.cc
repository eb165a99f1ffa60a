// The serving engine — one ClusterEngine that owns every replica and GPU of
// the cluster — and the RunCluster / RunServing entry points. See cluster.h
// for the architecture overview.
//
// Compatibility contract: with num_nodes == 1 the network is not modeled and
// RunServing is RunCluster on a one-node cluster, event for event and float
// for float. The datacenter_test N=1 equivalence test pins this down field by
// field.
#include "src/datacenter/cluster.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/placement.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/fault/fault_injector.h"
#include "src/interconnect/fabric.h"
#include "src/serving/batch_cost.h"
#include "src/serving/batcher.h"
#include "src/serving/kv_cache.h"
#include "src/serving/llm_cost.h"
#include "src/serving/request.h"
#include "src/sim/simulator.h"
#include "src/trace/arrivals.h"

namespace orion {
namespace datacenter {

namespace {

using serving::ReplicaView;
using serving::Request;
using serving::RequestOutcome;
using serving::RouteReason;

// The datacenter network (num_nodes > 1): a 100 GbE NIC per node through one
// ToR switch hop, per direction, full duplex; and the serialized tensors a
// request and its response carry across it.
constexpr double kNicGbps = 12.5;
constexpr double kNicLatencyUs = 10.0;
constexpr std::size_t kRequestBytes = 32 * 1024;
constexpr std::size_t kResponseBytes = 128 * 1024;

// One replica process of a model service, resident on one GPU.
struct Replica {
  explicit Replica(const serving::BatchingConfig& batching) : batcher(batching) {}

  // Per-replica LLM serving state (services with llm.enabled). The KV cache
  // is carved out of the replica's GPU memory at creation; `in_flight` then
  // doubles as the RUNNING SET of the continuous-batching iteration (join
  // order = age order; the newest sequence is the eviction victim).
  struct LlmState {
    explicit LlmState(const serving::KvCacheConfig& kv_config) : kv(kv_config) {}
    serving::KvCacheAllocator kv;
    std::size_t kv_reserved_bytes = 0;  // counted against the GPU shard
    int joined_this_step = 0;  // trailing in_flight entries that prefilled this step
  };

  int id = -1;   // replica id: creation order across the cluster
  std::size_t model = 0;
  int gpu = -1;  // global GPU index, node-major: node * gpus_per_node + local
  enum class State { kProvisioning, kActive, kDraining, kDead } state = State::kProvisioning;
  serving::DynamicBatcher batcher;
  std::vector<Request> in_flight;
  std::unique_ptr<LlmState> llm;  // null for fixed-cost services
  bool busy = false;
  TimeUs busy_until = 0.0;
  TimeUs batch_start = 0.0;
  serving::DispatchReason dispatch_reason = serving::DispatchReason::kFullBatch;
  EventHandle completion;
  EventHandle linger;
  TimeUs active_since = 0.0;
  double busy_in_eval_window_us = 0.0;  // autoscaler utilization signal

  // Latency-attribution bookkeeping (only maintained when attribution is
  // enabled — zero work otherwise). batch_iso_us is the in-flight
  // batch/step's isolated-roofline cost (pre-slowdown), the kExecute price;
  // idle_accum_us/idle_since integrate the replica's idle time so the ledger
  // can split queue wait into capacity-bound kQueue vs linger (DESIGN.md §15).
  double batch_iso_us = 0.0;
  double idle_accum_us = 0.0;
  TimeUs idle_since = 0.0;
};

struct GpuShard {
  bool alive = true;
  std::size_t used_bytes = 0;
  std::vector<int> replicas;  // ids of resident (non-dead) replicas, ascending
};

// Liveness and the per-node activity a NodeSummary reports.
struct NodeState {
  bool alive = true;
  std::size_t batches = 0;
  std::size_t requests = 0;
  std::size_t replicas_created = 0;
  std::size_t replicas_killed = 0;
};

class ClusterEngine {
 public:
  explicit ClusterEngine(const ClusterConfig& cluster_config)
      : config_(cluster_config.serving),
        spec_(cluster_config.cluster),
        router_(cluster_config.serving.policy, cluster_config.serving.models.size()),
        horizon_(cluster_config.serving.warmup_us + cluster_config.serving.duration_us) {
    ORION_CHECK(spec_.num_nodes >= 1);
    ORION_CHECK(spec_.gpus_per_node >= 1);
    ORION_CHECK_MSG(!config_.models.empty(), "serving needs at least one model service");
    Rng root(config_.seed);
    for (std::size_t m = 0; m < config_.models.size(); ++m) {
      const serving::ModelServiceConfig& cfg = config_.models[m];
      ORION_CHECK(cfg.rps > 0.0);
      ORION_CHECK(cfg.slo_us > 0.0);
      ORION_CHECK(cfg.initial_replicas >= 1);
      ORION_CHECK(cfg.max_replicas >= cfg.initial_replicas);
      ORION_CHECK_MSG(cfg.arrivals != trace::ArrivalKind::kClosedLoop,
                      "a serving front-end takes open-loop arrivals, not kClosedLoop");
      models_.push_back(std::make_unique<ModelState>(
          cfg,
          serving::BatchCostModel(config_.device, cfg.workload,
                                  cfg.tier == serving::PriorityTier::kLatencyCritical,
                                  config_.launch_overhead_us),
          trace::MakeArrivals(cfg.arrivals, cfg.rps, cfg.diurnal), root.Fork(m)));
      if (cfg.llm.enabled) {
        ORION_CHECK_MSG(cfg.workload.model == workloads::ModelId::kLlmDecode,
                        "LLM serving requires the kLlmDecode workload");
        // The cost model's constructor validates the LLM shape parameters.
        models_.back()->llm_cost = std::make_unique<serving::LlmCostModel>(
            config_.device, cfg.llm, config_.launch_overhead_us);
        // Replica state = the weights; the KV cache is carved separately out
        // of whatever device memory remains at placement (CreateReplica).
        models_.back()->cost.OverrideStateBytes(
            workloads::LlmWeightBytes(cfg.llm.model));
      }
    }

    nodes_.resize(static_cast<std::size_t>(spec_.num_nodes));
    gpus_.resize(static_cast<std::size_t>(spec_.num_nodes * spec_.gpus_per_node));
    if (NetworkOn()) {
      // One fabric per NIC rather than one over the whole star. The star has
      // no shared links (every route is the single host<->node NIC hop), so
      // splitting is model-identical, and each NIC's transfers, byte counters
      // and fault state stay on that node's own fabric. Endpoint 0 of each
      // mini-topology is the node; interconnect::kHostNode is the ToR side.
      for (int n = 0; n < spec_.num_nodes; ++n) {
        fabrics_.push_back(std::make_unique<interconnect::Fabric>(
            &sim_, interconnect::NodeTopology::NicStar(kNicGbps, kNicLatencyUs)));
      }
    }
    BindTelemetry();
    if (config_.telemetry != nullptr) {
      for (auto& fabric : fabrics_) {
        fabric->set_telemetry(config_.telemetry);
      }
    }
  }

  ClusterResult Run() {
    for (std::size_t m = 0; m < models_.size(); ++m) {
      for (int i = 0; i < models_[m]->cfg.initial_replicas; ++i) {
        ORION_CHECK_MSG(AddReplica(m, /*immediate=*/true),
                        "initial serving fleet does not fit on the cluster");
      }
      ScheduleArrival(m);
    }
    if (!config_.fault_plan.empty()) {
      // Device, link, profile and client-hang faults act below this
      // abstraction level and count as skipped: no device or profile is
      // registered, and the handler returns false for the rest.
      injector_ = std::make_unique<fault::FaultInjector>(&sim_, config_.fault_plan);
      injector_->set_telemetry(config_.telemetry);
      injector_->set_target_handler([this](const fault::FaultEvent& event) {
        switch (event.kind) {
          case fault::FaultKind::kGpuDown:
            return ApplyGpuDown(event);
          case fault::FaultKind::kClientCrash:
            return ApplyReplicaCrash(event);
          case fault::FaultKind::kNodeDown:
            return ApplyNodeDown(event);
          default:
            return false;
        }
      });
      injector_->Arm();
    }
    if (config_.autoscaler.enabled) {
      sim_.ScheduleAfter(config_.autoscaler.eval_period_us, [this] { EvalAutoscaler(); });
    }
    sim_.RunUntil(horizon_);
    return Finalize();
  }

 private:
  struct ModelState {
    ModelState(const serving::ModelServiceConfig& config, serving::BatchCostModel cost_model,
               std::unique_ptr<trace::ArrivalProcess> arrival_process, Rng arrival_rng)
        : cfg(config),
          cost(std::move(cost_model)),
          arrivals(std::move(arrival_process)),
          rng(arrival_rng) {}

    serving::ModelServiceConfig cfg;
    serving::BatchCostModel cost;
    // Per-phase LLM costs; null unless cfg.llm.enabled (its presence is the
    // engine-wide "is this an LLM service" predicate).
    std::unique_ptr<serving::LlmCostModel> llm_cost;
    std::unique_ptr<trace::ArrivalProcess> arrivals;
    Rng rng;
    // Admitted requests with no active replica to queue at (all replicas
    // provisioning after a failover); drained on the next activation.
    std::deque<Request> limbo;
    std::vector<int> replicas;  // id of every replica of this service ever created
    // Requests of this service currently crossing the network (either leg).
    std::size_t in_network = 0;

    // Service label for metrics and trace tracks: the workload name, with a
    // "#<index>" suffix when two services share a workload.
    std::string label;
    telemetry::TrackId track = -1;  // per-request span track; -1 = tracing off
    // Hub-owned blame aggregate; bound only when attribution is enabled.
    attribution::ServiceAttribution* attr = nullptr;

    // All counters are registry instruments labeled {service=label}, bound
    // in BindTelemetry — the registry is the source of truth the
    // ServingResult is assembled from, so an exported CSV snapshot
    // reproduces the run's printed numbers exactly.

    // Whole-run counters (accounting identity).
    telemetry::Counter* total_offered = nullptr;
    telemetry::Counter* total_completed = nullptr;
    telemetry::Counter* total_shed = nullptr;
    telemetry::Counter* total_dropped = nullptr;

    // Measurement-window counters.
    telemetry::Counter* offered = nullptr;
    telemetry::Counter* completed = nullptr;
    telemetry::Counter* slo_met = nullptr;
    telemetry::Counter* shed = nullptr;
    telemetry::Counter* dropped = nullptr;
    telemetry::Counter* failed_over = nullptr;
    telemetry::Counter* batches = nullptr;
    telemetry::Counter* batched_requests = nullptr;
    telemetry::Histogram* latency = nullptr;   // e2e µs, window only
    telemetry::Histogram* queueing = nullptr;  // arrival → service start

    // LLM per-token instruments; bound only for services with llm.enabled so
    // a non-LLM run exports exactly the pre-LLM metric set.
    telemetry::Counter* tokens = nullptr;        // decode tokens in the window
    telemetry::Counter* prefills = nullptr;      // prefill passes in the window
    telemetry::Counter* decode_steps = nullptr;  // continuous iterations in the window
    telemetry::Counter* kv_evictions = nullptr;  // preemptions in the window
    telemetry::Histogram* ttft = nullptr;        // arrival → first token, µs
    telemetry::Histogram* tpot = nullptr;        // inter-token µs after the first

    // Autoscaler evaluation-window counters (reset every eval period, so
    // they stay plain fields rather than monotonic registry counters).
    std::size_t w_arrivals = 0;
    std::size_t w_completions = 0;
    std::size_t w_slo_met = 0;
    std::size_t w_shed = 0;
  };

  // One payload crossing the network fabric. Responses cancelled by a node
  // death complete at the cancel instant: the batch had already been served,
  // only the notification leg is cut short (documented simplification).
  struct NetOp {
    enum class Kind : std::uint8_t { kRequest, kResponse, kState };
    Kind kind = Kind::kRequest;
    bool cancelled = false;
    int node = -1;  // destination (request/state) or source (response)
    interconnect::TransferId transfer = 0;
    Request request;                            // kRequest / kResponse payload
    std::optional<RouteReason> forced;          // kRequest: routing reason override
    int replica_id = -1;                        // kResponse server / kState target
    int gpu = -1;                               // kResponse: global GPU of server
    TimeUs batch_start = 0.0;                   // kResponse
    TimeUs batch_end = 0.0;                     // kResponse
  };

  bool NetworkOn() const { return spec_.num_nodes > 1; }
  int NodeOf(int gpu) const { return gpu / spec_.gpus_per_node; }

  // Binds every instrument against the hub registry (a private registry
  // when no hub is configured) and registers the trace tracks.
  void BindTelemetry() {
    hub_ = config_.telemetry;
    metrics_ = hub_ != nullptr ? &hub_->metrics() : &local_metrics_;
    const bool tracing = hub_ != nullptr && hub_->tracing();
    attr_ = hub_ != nullptr && hub_->attribution_enabled();
    std::vector<std::string> labels;
    for (const auto& model : models_) {
      labels.push_back(workloads::WorkloadName(model->cfg.workload));
    }
    telemetry::DisambiguateLabels(&labels);
    for (std::size_t m = 0; m < models_.size(); ++m) {
      ModelState& model = *models_[m];
      model.label = labels[m];
      const telemetry::Labels by_service = {{"service", model.label}};
      model.total_offered = metrics_->GetCounter("serving.offered_total", by_service);
      model.total_completed = metrics_->GetCounter("serving.completed_total", by_service);
      model.total_shed = metrics_->GetCounter("serving.shed_total", by_service);
      model.total_dropped = metrics_->GetCounter("serving.dropped_total", by_service);
      model.offered = metrics_->GetCounter("serving.offered", by_service);
      model.completed = metrics_->GetCounter("serving.completed", by_service);
      model.slo_met = metrics_->GetCounter("serving.slo_met", by_service);
      model.shed = metrics_->GetCounter("serving.shed", by_service);
      model.dropped = metrics_->GetCounter("serving.dropped", by_service);
      model.failed_over = metrics_->GetCounter("serving.failed_over", by_service);
      model.batches = metrics_->GetCounter("serving.batches", by_service);
      model.batched_requests = metrics_->GetCounter("serving.batched_requests", by_service);
      model.latency = metrics_->GetHistogram("serving.latency_us", by_service);
      model.queueing = metrics_->GetHistogram("serving.queueing_us", by_service);
      if (model.cfg.llm.enabled) {
        model.tokens = metrics_->GetCounter("serving.tokens", by_service);
        model.prefills = metrics_->GetCounter("serving.prefills", by_service);
        model.decode_steps = metrics_->GetCounter("serving.decode_steps", by_service);
        model.kv_evictions = metrics_->GetCounter("serving.kv_evictions", by_service);
        model.ttft = metrics_->GetHistogram("serving.ttft_us", by_service);
        model.tpot = metrics_->GetHistogram("serving.tpot_us", by_service);
      }
      if (tracing) {
        model.track = hub_->spans().Track("service:" + model.label);
      }
      if (attr_) {
        model.attr = &hub_->attribution().Service(model.label);
        model.attr->set_tier(serving::PriorityTierName(model.cfg.tier));
      }
    }
    scale_ups_ = metrics_->GetCounter("serving.scale_ups");
    scale_downs_ = metrics_->GetCounter("serving.scale_downs");
    scale_failures_ = metrics_->GetCounter("serving.scale_failures");
    replicas_lost_ = metrics_->GetCounter("serving.replicas_lost");
    replacements_ = metrics_->GetCounter("serving.replacements");
    replacement_failures_ = metrics_->GetCounter("serving.replacement_failures");
    replica_seconds_ = metrics_->GetCounter("serving.replica_seconds");
    if (spec_.num_nodes > 1) {
      // Datacenter-level instruments exist only on real clusters so an N=1
      // run exports exactly the single-node engine's metric set.
      node_faults_c_ = metrics_->GetCounter("datacenter.node_faults");
      requests_forwarded_c_ = metrics_->GetCounter("datacenter.requests_forwarded");
    }
    if (tracing) {
      control_track_ = hub_->spans().Track("serving-control");
      gpu_tracks_.reserve(gpus_.size());
      for (int g = 0; g < static_cast<int>(gpus_.size()); ++g) {
        const std::string name =
            spec_.num_nodes == 1
                ? "gpu" + std::to_string(g)
                : "n" + std::to_string(NodeOf(g)) + "/gpu" +
                      std::to_string(g % spec_.gpus_per_node);
        gpu_tracks_.push_back(hub_->spans().Track(name));
      }
    }
  }

  void Mark(const std::string& name, telemetry::Labels args) {
    if (control_track_ >= 0) {
      hub_->spans().Instant(control_track_, name, sim_.now(), std::move(args));
    }
  }

  bool InWindow(TimeUs t) const { return t >= config_.warmup_us && t <= horizon_; }

  Replica& replica(int id) { return replicas_[static_cast<std::size_t>(id)]; }
  const Replica& replica(int id) const { return replicas_[static_cast<std::size_t>(id)]; }
  GpuShard& gpu(int g) { return gpus_[static_cast<std::size_t>(g)]; }
  NodeState& node_state(int n) { return nodes_[static_cast<std::size_t>(n)]; }

  // --- Arrivals, admission, two-level routing. ---

  void ScheduleArrival(std::size_t m) {
    ModelState& model = *models_[m];
    const DurationUs dt = model.arrivals->NextInterarrival(model.rng);
    sim_.ScheduleAfter(dt, [this, m] {
      OnArrival(m);
      ScheduleArrival(m);
    });
  }

  void OnArrival(std::size_t m) {
    ModelState& model = *models_[m];
    const TimeUs now = sim_.now();
    Request request;
    request.id = next_request_id_++;
    request.model = static_cast<int>(m);
    request.arrival_us = now;
    request.deadline_us = now + model.cfg.slo_us;
    if (model.llm_cost != nullptr) {
      const serving::LlmServiceConfig& llm = model.cfg.llm;
      request.prompt_tokens = llm.prompt_tokens;
      request.target_tokens =
          llm.max_decode_tokens > llm.min_decode_tokens
              ? static_cast<int>(model.rng.UniformInt(llm.min_decode_tokens,
                                                      llm.max_decode_tokens))
              : llm.min_decode_tokens;
      // Per-token SLOs supersede slo_us: the deadline admission gates on is
      // the TTFT deadline.
      request.deadline_us = now + llm.ttft_slo_us;
    }
    if (attr_) {
      request.ledger.Begin(now);
    }
    model.total_offered->Inc();
    ++model.w_arrivals;
    if (InWindow(now)) {
      model.offered->Inc();
    }

    const int node = PickNode(m);
    if (node < 0) {
      LimboOrDrop(m, std::move(request), /*hold=*/false);
      return;
    }
    // Admission against the chosen node's least-loaded replica.
    std::vector<ReplicaView> views;
    std::vector<int> ids;
    BuildNodeViews(node, m, &views, &ids);
    std::size_t best = 0;
    for (std::size_t i = 1; i < views.size(); ++i) {
      if (views[i].outstanding_us < views[best].outstanding_us) {
        best = i;
      }
    }
    const DurationUs best_wait = views[best].outstanding_us;
    const int est_batch = EstimatedBatch(views[best].queued);
    // LLM admission gates the TTFT deadline: the work between dispatch and
    // the first token is the prefill (the queue ahead is in best_wait).
    const DurationUs service = model.llm_cost != nullptr
                                   ? model.llm_cost->PrefillUs(request.prompt_tokens)
                                   : model.cost.BatchServiceUs(est_batch);
    if (!serving::Admit(config_.admission, request, model.cfg.tier, best_wait, service)) {
      request.outcome = RequestOutcome::kShed;
      model.total_shed->Inc();
      ++model.w_shed;
      if (InWindow(now)) {
        model.shed->Inc();
      }
      Mark("shed", {{"service", model.label}});
      return;
    }
    Route(node, std::move(request), std::nullopt);
  }

  // Batch size the next dispatch will likely use (admission's service-time
  // estimate): the queue ahead plus this request, capped by the batcher.
  int EstimatedBatch(std::size_t queued_ahead) const {
    if (!config_.batching.enabled) {
      return 1;
    }
    return std::min<int>(serving::kMaxBatchSize,
                         static_cast<int>(queued_ahead) + 1);
  }

  // No node can take `request` now. It waits in limbo for the next replica
  // activation when one is provisioning or `hold` is set, else it is dropped.
  void LimboOrDrop(std::size_t m, Request request, bool hold) {
    ModelState& model = *models_[m];
    if (hold || PendingReplicas(m) > 0) {
      model.limbo.push_back(std::move(request));
      return;
    }
    model.total_dropped->Inc();
    if (InWindow(sim_.now())) {
      model.dropped->Inc();
    }
    Mark("drop", {{"service", model.label}});
  }

  int PendingReplicas(std::size_t m) const {
    int pending = 0;
    for (const int id : models_[m]->replicas) {
      if (replica(id).state == Replica::State::kProvisioning) {
        ++pending;
      }
    }
    return pending;
  }

  // Level-1 routing: the node to send an admitted request of `m` to, or -1
  // when no node has an active replica. Least-outstanding compares each
  // node's best replica; ties break towards the lowest node id.
  int PickNode(std::size_t m) {
    std::vector<double> node_best(static_cast<std::size_t>(spec_.num_nodes),
                                  std::numeric_limits<double>::infinity());
    std::vector<bool> has(static_cast<std::size_t>(spec_.num_nodes), false);
    for (const int id : models_[m]->replicas) {
      const Replica& r = replica(id);
      const auto n = static_cast<std::size_t>(NodeOf(r.gpu));
      if (r.state != Replica::State::kActive || !nodes_[n].alive) {
        continue;
      }
      has[n] = true;
      node_best[n] = std::min(node_best[n], OutstandingUs(r));
    }
    int best = -1;
    for (int n = 0; n < spec_.num_nodes; ++n) {
      if (!has[static_cast<std::size_t>(n)]) {
        continue;
      }
      if (best < 0 ||
          node_best[static_cast<std::size_t>(n)] < node_best[static_cast<std::size_t>(best)]) {
        best = n;
      }
    }
    return best;
  }

  // Active replicas of `m` on `node`, sorted by id (creation order).
  void BuildNodeViews(int node, std::size_t m, std::vector<ReplicaView>* views,
                      std::vector<int>* ids) {
    views->clear();
    ids->clear();
    for (const int id : models_[m]->replicas) {
      const Replica& r = replica(id);
      if (NodeOf(r.gpu) != node || r.state != Replica::State::kActive) {
        continue;
      }
      ReplicaView view;
      view.replica_id = id;
      view.queued = r.batcher.size();
      view.in_flight = r.in_flight.size();
      view.outstanding_us = OutstandingUs(r);
      views->push_back(view);
      ids->push_back(id);
    }
  }

  // Sends an admitted request to `node`: over the network when there is one,
  // else straight to level-2 routing (Deliver, which reads `forced`).
  void Route(int node, Request request, std::optional<RouteReason> forced) {
    if (NetworkOn()) {
      ForwardRequest(node, std::move(request), forced);
    } else {
      Deliver(node, std::move(request), forced);
    }
  }

  // Level-2 routing: pick the replica on `node` and queue the request there.
  // `forced` overrides the recorded route reason (failover rehomes, limbo
  // drains).
  void Deliver(int node, Request request, std::optional<RouteReason> forced) {
    const auto m = static_cast<std::size_t>(request.model);
    std::vector<ReplicaView> views;
    std::vector<int> ids;
    BuildNodeViews(node, m, &views, &ids);
    if (views.empty()) {
      // The node lost its replicas while the request was on the wire
      // (network path only; the synchronous path routes against live views).
      RehomeOrphan(m, std::move(request), /*was_running=*/true);
      return;
    }
    const std::size_t idx = router_.Pick(m, views);
    request.node = node;
    request.route_reason =
        forced.has_value() ? *forced : PickReason(router_.policy(), views.size());
    EnqueueAt(ids[idx], std::move(request));
  }

  // --- One replica: creation, queue, batches, decode steps, retirement. ---

  // Folds [idle_since, now] into idle_accum_us for a non-busy replica.
  // Attribution-only bookkeeping; callers guard on attr_.
  void SyncIdle(Replica& r) {
    if (!r.busy &&
        (r.state == Replica::State::kActive || r.state == Replica::State::kDraining)) {
      const TimeUs now = sim_.now();
      r.idle_accum_us += now - r.idle_since;
      r.idle_since = now;
    }
  }

  // Creates a replica of `model` on global GPU `g` and returns its id, the
  // next in creation order. Active immediately when `active`, else left
  // provisioning (the caller schedules activation).
  int CreateReplica(std::size_t model, int g, bool active) {
    const int id = static_cast<int>(replicas_.size());
    replicas_.emplace_back(config_.batching);
    Replica& r = replicas_.back();
    r.id = id;
    r.model = model;
    r.gpu = g;
    GpuShard& shard = gpu(g);
    shard.used_bytes += models_[model]->cost.state_bytes();
    shard.replicas.push_back(id);
    ++node_state(NodeOf(g)).replicas_created;
    if (models_[model]->llm_cost != nullptr) {
      const serving::LlmServiceConfig& llm = models_[model]->cfg.llm;
      // Carve the replica's KV cache out of whatever device memory remains
      // free on its GPU (vLLM-style), optionally capped by the service config.
      const std::size_t memory = config_.device.memory_bytes;
      const std::size_t free = memory > shard.used_bytes ? memory - shard.used_bytes : 0;
      const std::size_t capacity = llm.kv_capacity_bytes > 0
                                       ? std::min(llm.kv_capacity_bytes, free)
                                       : free;
      serving::KvCacheConfig kv_config;
      kv_config.block_tokens = serving::kKvBlockTokens;
      kv_config.bytes_per_token = models_[model]->llm_cost->kv_bytes_per_token();
      kv_config.capacity_bytes = capacity;
      r.llm = std::make_unique<Replica::LlmState>(kv_config);
      r.llm->kv_reserved_bytes = capacity;
      shard.used_bytes += capacity;
      // Progress guarantee for the eviction loop: a lone sequence must always
      // fit, or it could be preempted forever without finishing.
      const int worst = llm.prompt_tokens + std::max(1, llm.max_decode_tokens);
      ORION_CHECK_MSG(static_cast<std::size_t>(r.llm->kv.BlocksForTokens(worst)) <=
                          r.llm->kv.total_blocks(),
                      "LLM replica KV cache cannot hold one full sequence");
    }
    if (active) {
      r.state = Replica::State::kActive;
      r.active_since = sim_.now();
      r.idle_since = sim_.now();
    } else {
      r.state = Replica::State::kProvisioning;
    }
    return id;
  }

  // Queues a routed request at replica `id` and dispatches if a batch is ready.
  void EnqueueAt(int id, Request request) {
    Replica& r = replica(id);
    if (attr_) {
      // Close the wire (or failover) interval and open kQueue; the idle
      // snapshot lets LeaveQueue split the wait into linger vs capacity.
      SyncIdle(r);
      request.ledger.EnterQueue(sim_.now(), r.idle_accum_us);
    }
    r.batcher.Enqueue(std::move(request), sim_.now());
    TryDispatch(id);
  }

  void TryDispatch(int id) {
    Replica& r = replica(id);
    if (r.busy || r.batcher.empty() ||
        (r.state != Replica::State::kActive && r.state != Replica::State::kDraining)) {
      return;
    }
    if (r.llm != nullptr && models_[r.model]->cfg.llm.continuous) {
      // Iteration-level batching has no linger: a free LLM replica starts its
      // next step immediately and arrivals join running iterations as steps
      // complete.
      TryStepLlm(id);
      return;
    }
    if (r.batcher.ShouldDispatch(sim_.now())) {
      sim_.Cancel(r.linger);
      r.dispatch_reason = r.state == Replica::State::kDraining
                              ? serving::DispatchReason::kDrain
                              : r.batcher.WhyDispatch(sim_.now());
      StartBatch(id);
      return;
    }
    // Linger for more requests: wake at the oldest request's delay bound.
    sim_.Cancel(r.linger);
    r.linger = sim_.ScheduleAt(r.batcher.LingerDeadline(), [this, id] { TryDispatch(id); });
  }

  void StartBatch(int id) {
    Replica& r = replica(id);
    if (r.llm != nullptr) {
      StartLlmBatch(id);  // request-level LLM baseline (KV-capped take)
      return;
    }
    const TimeUs now = sim_.now();
    if (attr_) {
      SyncIdle(r);
    }
    r.batcher.TakeBatchInto(&r.in_flight);  // reuses the replica's buffer
    for (Request& request : r.in_flight) {
      request.start_service_us = now;
      if (attr_) {
        request.ledger.LeaveQueue(now, r.idle_accum_us, attribution::Phase::kExecute);
      }
    }
    const int batch = static_cast<int>(r.in_flight.size());
    StartService(id, models_[r.model]->cost.BatchServiceUs(batch), Slowdown(r),
                 &ClusterEngine::OnBatchComplete);
  }

  // Occupies replica `id` with the batch or step now in r.in_flight: its
  // isolated-roofline cost `iso_us` stretched by `slowdown`, after which
  // `on_complete(id)` runs.
  void StartService(int id, DurationUs iso_us, double slowdown,
                    void (ClusterEngine::*on_complete)(int)) {
    Replica& r = replica(id);
    const TimeUs now = sim_.now();
    const DurationUs service = iso_us * slowdown;
    if (attr_) {
      r.batch_iso_us = iso_us;
    }
    r.busy = true;
    r.batch_start = now;
    r.busy_until = now + service;
    r.completion =
        sim_.ScheduleAfter(service, [this, id, on_complete] { (this->*on_complete)(id); });
  }

  // The shared head of a finished batch or step: counts it on the node and,
  // before any completion is finalized, splits its service time into the
  // isolated price (kExecute) and the collocation stall (kInterference).
  NodeState& FinishService(Replica& r) {
    NodeState& node = node_state(NodeOf(r.gpu));
    ++node.batches;
    if (attr_) {
      for (Request& request : r.in_flight) {
        request.ledger.ChargeExecStep(sim_.now(), r.batch_iso_us);
      }
    }
    return node;
  }

  // The shared tail: the replica goes idle, and the busy stretch since
  // batch_start counts toward the autoscaler's utilization window.
  void GoIdle(Replica& r) {
    const TimeUs now = sim_.now();
    r.busy_in_eval_window_us += now - r.batch_start;
    r.busy = false;
    if (attr_) {
      r.idle_since = now;
    }
  }

  void OnBatchComplete(int id) {
    Replica& r = replica(id);
    NodeState& node = FinishService(r);
    node.requests += r.in_flight.size();
    OnBatchServed(r);  // reads r.in_flight / batch_start / reason
    if (r.llm != nullptr) {
      // Request-level LLM baseline: the whole batch's KV lives until the
      // longest generation finished, i.e. right now.
      for (const Request& seq : r.in_flight) {
        r.llm->kv.Free(seq.id);
      }
    }
    r.in_flight.clear();
    GoIdle(r);
    if (r.state == Replica::State::kDraining && r.batcher.empty()) {
      RetireReplica(id);
      return;
    }
    TryDispatch(id);
  }

  // Continuous (iteration-level) batching, Orca-style: one decode step at a
  // time; sequences join/leave between steps (DESIGN.md §13).
  void TryStepLlm(int id) {
    Replica& r = replica(id);
    if (r.busy ||
        (r.state != Replica::State::kActive && r.state != Replica::State::kDraining)) {
      return;
    }
    Replica::LlmState& st = *r.llm;
    const serving::LlmCostModel& cost = *models_[r.model]->llm_cost;
    const TimeUs now = sim_.now();
    if (attr_) {
      SyncIdle(r);
    }

    // 1. Reserve KV for the token every running sequence produces this step,
    //    preempting the newest sequence (possibly the one being extended) on
    //    allocation failure. The creation-time capacity check guarantees a
    //    lone sequence always fits, so this loop terminates with progress.
    std::size_t i = 0;
    while (i < r.in_flight.size()) {
      Request& seq = r.in_flight[i];
      if (st.kv.TryReserve(seq.id, seq.prompt_tokens + seq.generated + 1)) {
        ++i;
        continue;
      }
      PreemptNewestLlm(id);
    }

    // 2. Join sequences from the queue head while batch slots and KV capacity
    //    allow; stop at the first that does not fit (head-of-line order:
    //    requeued evictions first, then FIFO).
    const serving::BatchingConfig& batching = config_.batching;
    const int max_batch = batching.enabled ? serving::kMaxBatchSize : 1;
    st.joined_this_step = 0;
    DurationUs prefill_us = 0.0;
    while (static_cast<int>(r.in_flight.size()) < max_batch && !r.batcher.empty()) {
      const Request& head = r.batcher.Front();
      if (!st.kv.TryReserve(head.id, head.prompt_tokens + head.generated + 1)) {
        break;
      }
      Request seq = r.batcher.PopFront();
      seq.start_service_us = now;
      if (attr_) {
        // Fresh joiners close kQueue (split against linger); evicted rejoiners
        // close kPreempt — their whole rejoin wait is recompute, not queueing.
        seq.ledger.LeaveQueue(now, r.idle_accum_us, attribution::Phase::kExecute);
      }
      // Fresh sequences prefill their prompt; evicted rejoiners recompute
      // prompt + generated (preemption with recompute).
      prefill_us += cost.PrefillUs(seq.prompt_tokens + seq.generated);
      r.in_flight.push_back(std::move(seq));
      ++st.joined_this_step;
    }
    if (r.in_flight.empty()) {
      if (r.state == Replica::State::kDraining && r.batcher.empty()) {
        RetireReplica(id);
      }
      return;
    }

    // 3. One iteration: every joiner's prefill plus one decode step for the
    //    sequences that were already running.
    const int decoding = static_cast<int>(r.in_flight.size()) - st.joined_this_step;
    DurationUs step_us = prefill_us;
    if (decoding > 0) {
      long context_sum = 0;
      for (int d = 0; d < decoding; ++d) {
        const Request& seq = r.in_flight[static_cast<std::size_t>(d)];
        context_sum += seq.prompt_tokens + seq.generated;
      }
      step_us += cost.DecodeStepUs(decoding, static_cast<int>(context_sum / decoding));
    }
    r.dispatch_reason = serving::DispatchReason::kContinuous;
    StartService(id, step_us, Slowdown(r), &ClusterEngine::OnLlmStepComplete);
  }

  void OnLlmStepComplete(int id) {
    Replica& r = replica(id);
    Replica::LlmState& st = *r.llm;
    const TimeUs now = sim_.now();
    const TimeUs start = r.batch_start;
    // Charged before tokens are assigned, so a first-token snapshot below
    // sums exactly to TTFT.
    NodeState& node = FinishService(r);
    // Every sequence in the step emitted exactly one token: joiners their
    // first (from the prefill; rejoiners their next, the recompute re-derived
    // the earlier ones), running sequences their next from the decode step.
    const std::size_t n = r.in_flight.size();
    for (std::size_t i = 0; i < n; ++i) {
      Request& seq = r.in_flight[i];
      const bool joined = i >= n - static_cast<std::size_t>(st.joined_this_step);
      if (joined && seq.first_token_us < 0.0) {
        seq.first_token_us = now;
        if (attr_) {
          seq.ledger.MarkFirstToken();
        }
      } else {
        ++seq.generated;
      }
    }
    OnDecodeStep(r, static_cast<int>(n), st.joined_this_step, start, now);
    st.joined_this_step = 0;
    GoIdle(r);
    // Finished sequences leave the iteration and release their KV.
    for (std::size_t i = 0; i < r.in_flight.size();) {
      if (r.in_flight[i].generated >= r.in_flight[i].target_tokens) {
        Request seq = std::move(r.in_flight[i]);
        r.in_flight.erase(r.in_flight.begin() + static_cast<long>(i));
        st.kv.Free(seq.id);
        ++node.requests;
        Respond(r, seq, start, now);
      } else {
        ++i;
      }
    }
    if (r.state == Replica::State::kDraining && r.in_flight.empty() && r.batcher.empty()) {
      RetireReplica(id);
      return;
    }
    TryStepLlm(id);
  }

  // Frees the newest running sequence's KV and requeues it (preemption with
  // recompute under KV pressure, vLLM-style).
  void PreemptNewestLlm(int id) {
    Replica& r = replica(id);
    ORION_CHECK(!r.in_flight.empty());
    Request seq = std::move(r.in_flight.back());
    r.in_flight.pop_back();
    if (r.llm->kv.Holds(seq.id)) {
      r.llm->kv.Free(seq.id);
    }
    ++seq.evictions;
    if (attr_) {
      // Requeue bypasses EnqueueAt, so the rejoin wait stays open on kPreempt
      // until the sequence rejoins a step (recompute wait, not queueing).
      seq.ledger.Advance(sim_.now(), attribution::Phase::kPreempt);
    }
    OnKvEviction(r, seq);
    r.batcher.Requeue(std::move(seq));
  }

  // Request-level LLM batching (llm.continuous off): the baseline where a
  // batch decodes to its longest target before anything completes.
  void StartLlmBatch(int id) {
    Replica& r = replica(id);
    Replica::LlmState& st = *r.llm;
    const serving::LlmCostModel& cost = *models_[r.model]->llm_cost;
    const TimeUs now = sim_.now();
    if (attr_) {
      SyncIdle(r);
    }
    const serving::BatchingConfig& batching = config_.batching;
    const int take = batching.enabled ? serving::kMaxBatchSize : 1;
    r.in_flight.clear();
    // Request-level batching reserves each sequence's FULL KV footprint up
    // front (no mid-batch eviction); the batch is capped by what fits.
    while (static_cast<int>(r.in_flight.size()) < take && !r.batcher.empty()) {
      const Request& head = r.batcher.Front();
      const int full = head.prompt_tokens + std::max(1, head.target_tokens);
      if (!st.kv.TryReserve(head.id, full)) {
        break;
      }
      Request seq = r.batcher.PopFront();
      if (attr_) {
        seq.ledger.LeaveQueue(now, r.idle_accum_us, attribution::Phase::kExecute);
      }
      r.in_flight.push_back(std::move(seq));
    }
    // A free replica's cache is empty, and one full sequence always fits.
    ORION_CHECK(!r.in_flight.empty());
    const serving::LlmBatchBreakdown breakdown = cost.RequestLevelBatchUs(r.in_flight);
    const double slowdown = Slowdown(r);
    for (Request& seq : r.in_flight) {
      seq.start_service_us = now;
      // All prefills run up front; every first token lands when they finish.
      // A first token already delivered (failover orphan re-served after its
      // replica died mid-decode) stays delivered: re-prefilling recomputes
      // context the client has already streamed past.
      if (seq.first_token_us < 0.0) {
        seq.first_token_us = now + breakdown.prefill_us * slowdown;
      }
      seq.generated = seq.target_tokens;  // the batch runs to completion
    }
    StartService(id, breakdown.total_us, slowdown, &ClusterEngine::OnBatchComplete);
  }

  // Stops routing to replica `id`; it retires once idle and empty.
  void DrainReplica(int id) {
    Replica& r = replica(id);
    r.state = Replica::State::kDraining;
    if (!r.busy && r.batcher.empty() && r.in_flight.empty()) {
      RetireReplica(id);
    }
  }

  void ReleaseFromGpu(int id) {
    Replica& r = replica(id);
    GpuShard& shard = gpu(r.gpu);
    shard.used_bytes -= models_[r.model]->cost.state_bytes();
    if (r.llm != nullptr) {
      shard.used_bytes -= r.llm->kv_reserved_bytes;
    }
    shard.replicas.erase(std::find(shard.replicas.begin(), shard.replicas.end(), id));
  }

  void RetireReplica(int id) {
    Replica& r = replica(id);
    ORION_CHECK(!r.busy && r.batcher.empty());
    ORION_CHECK_MSG(r.llm == nullptr || r.llm->kv.used_blocks() == 0,
                    "retiring LLM replica leaks KV-cache blocks");
    sim_.Cancel(r.linger);
    AccountReplicaTime(r.active_since);
    ReleaseFromGpu(id);
    r.state = Replica::State::kDead;
  }

  // Kills replica `id` (fault path): cancels its events, releases its GPU,
  // and returns the orphaned requests (in-flight batch first, then the
  // queue) for the caller to re-route.
  std::vector<Request> KillReplica(int id) {
    Replica& r = replica(id);
    ORION_CHECK(r.state != Replica::State::kDead);
    sim_.Cancel(r.completion);
    sim_.Cancel(r.linger);
    if (attr_) {
      SyncIdle(r);
      const TimeUs now = sim_.now();
      // In-flight work dies with the replica: the partial batch/step time the
      // orphans already spent is wasted, so it reclassifies as kPreempt (not
      // execute), and the open phase stays kPreempt through re-routing.
      for (Request& request : r.in_flight) {
        request.ledger.AdvanceInto(now, attribution::Phase::kPreempt,
                                   attribution::Phase::kPreempt);
      }
    }
    std::vector<Request> orphans = std::move(r.in_flight);
    r.in_flight.clear();
    for (Request& request : r.batcher.Drain()) {
      if (attr_) {
        // Queued orphans close their queue wait here; the re-route leg that
        // follows is preemption fallout, not fresh queueing.
        request.ledger.LeaveQueue(sim_.now(), r.idle_accum_us,
                                  attribution::Phase::kPreempt);
      }
      orphans.push_back(std::move(request));
    }
    if (r.llm != nullptr) {
      // The KV cache died with the replica: orphaned sequences recompute from
      // their prompt wherever they rehome. A first token that had genuinely
      // been delivered stays delivered; one merely scheduled (request-level
      // batch still running) is lost with the batch.
      const TimeUs now = sim_.now();
      for (Request& request : orphans) {
        request.generated = 0;
        if (request.first_token_us > now) {
          request.first_token_us = -1.0;
        }
      }
    }
    const bool was_running =
        r.state == Replica::State::kActive || r.state == Replica::State::kDraining;
    if (was_running) {
      AccountReplicaTime(r.active_since);
    }
    r.busy = false;
    ReleaseFromGpu(id);
    r.state = Replica::State::kDead;
    ++node_state(NodeOf(r.gpu)).replicas_killed;
    return orphans;
  }

  // Predicted time to drain everything ahead of a new arrival at `r`.
  DurationUs OutstandingUs(const Replica& r) const {
    const serving::BatchingConfig& batching = config_.batching;
    const TimeUs now = sim_.now();
    DurationUs work = r.busy ? std::max(0.0, r.busy_until - now) : 0.0;
    const std::size_t queued = r.batcher.size();
    if (queued == 0) {
      return work;
    }
    const int max_batch = batching.enabled ? serving::kMaxBatchSize : 1;
    if (r.llm != nullptr) {
      // Predicted TTFT contribution of routing a new sequence here: the
      // running step's remainder, plus the queue ahead of it, plus its own
      // prefill. With continuous batching at most max_batch sequences join
      // per step, so the queue costs one typical step per join round; the
      // request-level baseline pays whole straggler-padded batches instead.
      const serving::LlmCostModel& cost = *models_[r.model]->llm_cost;
      const serving::LlmServiceConfig& llm = models_[r.model]->cfg.llm;
      const double slowdown = Slowdown(r);
      if (llm.continuous) {
        const std::size_t rounds = queued / static_cast<std::size_t>(max_batch);
        work += static_cast<double>(rounds) * cost.TypicalStepUs(max_batch) * slowdown;
        work += cost.PrefillUs(llm.prompt_tokens) * slowdown;
      } else {
        const int est = std::min<int>(max_batch, static_cast<int>(queued));
        const int mean_target = (llm.min_decode_tokens + llm.max_decode_tokens) / 2;
        const DurationUs batch_us =
            static_cast<double>(est) * cost.PrefillUs(llm.prompt_tokens) +
            static_cast<double>(mean_target) * cost.TypicalStepUs(est);
        const std::size_t batches =
            (queued + static_cast<std::size_t>(max_batch) - 1) /
            static_cast<std::size_t>(max_batch);
        work += static_cast<double>(batches) * batch_us * slowdown;
      }
      return work;
    }
    const serving::BatchCostModel& cost = models_[r.model]->cost;
    const int batch = std::min<int>(max_batch, static_cast<int>(queued));
    work += static_cast<double>(queued) * cost.PerRequestUs(batch) * Slowdown(r);
    return work;
  }

  // Interference slowdown from `r`'s running GPU co-residents.
  double Slowdown(const Replica& r) const {
    double pressure = 0.0;
    for (const int other_id : gpus_[static_cast<std::size_t>(r.gpu)].replicas) {
      if (other_id == r.id) {
        continue;
      }
      const Replica& other = replica(other_id);
      if (other.state != Replica::State::kActive &&
          other.state != Replica::State::kDraining) {
        continue;  // provisioning replicas hold memory but run no kernels yet
      }
      pressure += cluster::PairInterference(models_[r.model]->cost.signature(),
                                            models_[other.model]->cost.signature());
    }
    return serving::InterferenceSlowdown(models_[r.model]->cfg.tier, pressure);
  }

  // --- Network legs (num_nodes > 1). ---

  void StartOp(int src, int dst, std::size_t bytes, NetOp op) {
    const std::uint64_t op_id = next_op_id_++;
    auto [it, inserted] = net_ops_.emplace(op_id, std::move(op));
    ORION_CHECK(inserted);
    // Transfers run on the target node's NIC fabric; endpoint 0 of the
    // mini-topology is the node, kHostNode the ToR/front-end side.
    const int node = src == interconnect::kHostNode ? dst : src;
    const int fab_src = src == interconnect::kHostNode ? interconnect::kHostNode : 0;
    const int fab_dst = dst == interconnect::kHostNode ? interconnect::kHostNode : 0;
    it->second.transfer = fabrics_[static_cast<std::size_t>(node)]->StartTransfer(
        fab_src, fab_dst, bytes, [this, op_id] { OnNetOpDone(op_id); });
  }

  void ForwardRequest(int node, Request request, std::optional<RouteReason> forced) {
    ModelState& model = *models_[static_cast<std::size_t>(request.model)];
    ++model.in_network;
    ++requests_forwarded_;
    if (requests_forwarded_c_ != nullptr) {
      requests_forwarded_c_->Inc();
    }
    request.node = node;
    if (attr_) {
      // Closes whatever came before (fresh admission: a zero-width kQueue;
      // limbo drain: the limbo wait; failover: kPreempt) and opens the wire.
      request.ledger.Advance(sim_.now(), attribution::Phase::kNetRequest);
    }
    NetOp op;
    op.kind = NetOp::Kind::kRequest;
    op.node = node;
    op.request = std::move(request);
    op.forced = forced;
    StartOp(interconnect::kHostNode, node, kRequestBytes, std::move(op));
  }

  void SendResponse(int replica_id, int gpu_global, TimeUs batch_start, TimeUs batch_end,
                    const Request& request) {
    const int node = NodeOf(gpu_global);
    ++models_[static_cast<std::size_t>(request.model)]->in_network;
    NetOp op;
    op.kind = NetOp::Kind::kResponse;
    op.node = node;
    op.request = request;
    if (attr_) {
      op.request.ledger.Advance(sim_.now(), attribution::Phase::kNetResponse);
    }
    op.replica_id = replica_id;
    op.gpu = gpu_global;
    op.batch_start = batch_start;
    op.batch_end = batch_end;
    StartOp(node, interconnect::kHostNode, kResponseBytes, std::move(op));
  }

  void OnNetOpDone(std::uint64_t op_id) {
    auto it = net_ops_.find(op_id);
    ORION_CHECK(it != net_ops_.end());
    NetOp op = std::move(it->second);
    net_ops_.erase(it);
    switch (op.kind) {
      case NetOp::Kind::kRequest: {
        ModelState& model = *models_[static_cast<std::size_t>(op.request.model)];
        ORION_CHECK(model.in_network > 0);
        --model.in_network;
        if (op.cancelled || !node_state(op.node).alive) {
          RehomeOrphan(static_cast<std::size_t>(op.request.model), std::move(op.request),
                       /*was_running=*/true);
        } else {
          Deliver(op.node, std::move(op.request), op.forced);
        }
        break;
      }
      case NetOp::Kind::kResponse: {
        ModelState& model = *models_[static_cast<std::size_t>(op.request.model)];
        ORION_CHECK(model.in_network > 0);
        --model.in_network;
        CompleteRequest(op.request, op.replica_id, op.gpu, op.batch_start, op.batch_end,
                        sim_.now());
        break;
      }
      case NetOp::Kind::kState: {
        if (op.cancelled) {
          break;  // target node died; the replica was killed with it
        }
        const int id = op.replica_id;
        const Replica& r = replica(id);
        if (r.state == Replica::State::kProvisioning) {
          sim_.ScheduleAfter(models_[r.model]->cost.ProvisionUs(),
                             [this, id] { ActivateReplica(id); });
        }
        break;
      }
    }
  }

  // --- Completion accounting. ---

  void OnBatchServed(Replica& r) {
    const TimeUs now = sim_.now();
    ModelState& model = *models_[r.model];
    const int batch_size = static_cast<int>(r.in_flight.size());
    for (const Request& request : r.in_flight) {
      Respond(r, request, r.batch_start, now);
    }
    if (model.track >= 0) {
      hub_->spans().Complete(gpu_tracks_[static_cast<std::size_t>(r.gpu)], r.id,
                             "batch:" + model.label, r.batch_start, now,
                             {{"batch_size", std::to_string(batch_size)},
                              {"replica", std::to_string(r.id)},
                              {"reason", serving::DispatchReasonName(r.dispatch_reason)}},
                             "batch");
    }
    if (InWindow(now)) {
      model.batches->Inc();
      model.batched_requests->Inc(static_cast<double>(batch_size));
      if (model.llm_cost != nullptr) {
        // Request-level LLM baseline: the batch prefilled every sequence and
        // decoded each to completion (one token from prefill + target more).
        double tokens = 0.0;
        for (const Request& request : r.in_flight) {
          tokens += 1.0 + static_cast<double>(request.target_tokens);
        }
        model.tokens->Inc(tokens);
        model.prefills->Inc(static_cast<double>(batch_size));
      }
    }
  }

  void OnDecodeStep(Replica& r, int batch, int prefills, TimeUs start, TimeUs end) {
    ModelState& model = *models_[r.model];
    if (model.track >= 0) {
      hub_->spans().Complete(
          gpu_tracks_[static_cast<std::size_t>(r.gpu)], r.id, "step:" + model.label,
          start, end,
          {{"batch_size", std::to_string(batch)},
           {"prefills", std::to_string(prefills)},
           {"kv_blocks", std::to_string(r.llm->kv.used_blocks())},
           {"replica", std::to_string(r.id)}},
          "decode-step");
    }
    if (InWindow(end)) {
      model.decode_steps->Inc();
      model.tokens->Inc(static_cast<double>(batch));  // one token per sequence
      if (prefills > 0) {
        model.prefills->Inc(static_cast<double>(prefills));
      }
      // A step is the device-batch unit of continuous batching: count it so
      // mean_batch_size reports the mean iteration width.
      model.batches->Inc();
      model.batched_requests->Inc(static_cast<double>(batch));
    }
  }

  // `request` finished in the batch or step [start, end] on `r`. Without a
  // network it completes now; otherwise its response still has to cross the
  // network, and completion accounting happens when it reaches the front-end.
  void Respond(Replica& r, const Request& request, TimeUs start, TimeUs end) {
    if (!NetworkOn()) {
      CompleteRequest(request, r.id, r.gpu, start, end, end);
    } else {
      SendResponse(r.id, r.gpu, start, end, request);
    }
  }

  void OnKvEviction(Replica& r, const Request& request) {
    ModelState& model = *models_[r.model];
    if (InWindow(sim_.now())) {
      model.kv_evictions->Inc();
    }
    Mark("kv-evict", {{"service", model.label},
                      {"replica", std::to_string(r.id)},
                      {"request", std::to_string(request.id)}});
  }

  void AccountReplicaTime(TimeUs active_since) {
    const TimeUs start = std::max(active_since, config_.warmup_us);
    const TimeUs end = std::min(sim_.now(), horizon_);
    if (end > start) {
      replica_seconds_->Inc(UsToSec(end - start));
    }
  }


  // `exec_end` is the device batch completion; `complete_us` when the
  // response reached the front-end (identical without a network).
  void CompleteRequest(const Request& request, int replica_id, int gpu_global,
                       TimeUs batch_start, TimeUs exec_end, TimeUs complete_us) {
    ModelState& model = *models_[static_cast<std::size_t>(request.model)];
    model.total_completed->Inc();
    ++model.w_completions;
    bool met = complete_us <= request.deadline_us;
    DurationUs ttft = 0.0;
    DurationUs tpot = 0.0;
    if (model.llm_cost != nullptr) {
      // Per-token SLOs: time-to-first-token and time-per-output-token both
      // have to hold. TPOT averages the post-first-token stream over the
      // decode length (a zero-length generation trivially meets it).
      ORION_CHECK(request.first_token_us >= request.arrival_us);
      ttft = request.first_token_us - request.arrival_us;
      tpot = request.target_tokens > 0
                 ? (complete_us - request.first_token_us) /
                       static_cast<double>(request.target_tokens)
                 : 0.0;
      met = ttft <= model.cfg.llm.ttft_slo_us && tpot <= model.cfg.llm.tpot_slo_us;
    }
    if (attr_ && request.ledger.active()) {
      // Finalize a local copy (the caller's request is const): close the open
      // phase at completion and enforce the sum identity. Every interval
      // between ledger marks was charged to exactly one phase, so the
      // residual is FP rounding only — a violation means an engine path
      // dropped or double-counted time.
      attribution::LatencyLedger ledger = request.ledger;
      const DurationUs e2e = complete_us - request.arrival_us;
      const DurationUs residual = ledger.Finalize(request.arrival_us, complete_us);
      ORION_CHECK_MSG(std::abs(residual) <= 1e-3 + 1e-6 * e2e,
                      "latency ledger identity violated: residual "
                          << residual << "us over e2e " << e2e << "us (request "
                          << request.id << ")");
      if (model.llm_cost != nullptr && !ledger.ttft_marked()) {
        // Request-level LLM batching delivers the batch at once; interpolate
        // the first token inside the execute span, mirroring first_token_us.
        const TimeUs exec_begin = request.start_service_us;
        const DurationUs exec_span = exec_end - exec_begin;
        const double frac = exec_span > 0.0
                                ? (request.first_token_us - exec_begin) / exec_span
                                : 1.0;
        ledger.SynthesizeFirstToken(frac);
      }
      if (InWindow(complete_us)) {
        model.attr->RecordE2e(ledger.phases(), e2e, !met);
        if (model.llm_cost != nullptr) {
          double ttft_phases[attribution::kNumPhases];
          double tpot_phases[attribution::kNumPhases];
          ledger.SplitTtft(ttft_phases, tpot_phases);
          model.attr->RecordTtft(ttft_phases, ttft, ttft > model.cfg.llm.ttft_slo_us);
          model.attr->RecordTpot(tpot_phases, complete_us - request.first_token_us,
                                 tpot > model.cfg.llm.tpot_slo_us);
        }
      }
    }
    if (met) {
      ++model.w_slo_met;
    }
    if (InWindow(complete_us)) {
      model.completed->Inc();
      if (met) {
        model.slo_met->Inc();
      }
      model.latency->Add(complete_us - request.arrival_us);
      model.queueing->Add(request.start_service_us - request.arrival_us);
      if (model.llm_cost != nullptr) {
        model.ttft->Add(ttft);
        model.tpot->Add(tpot);
      }
    }
    if (model.track >= 0) {
      // Request lifecycle: a "request" slice enclosing nested queue, execute
      // and (networked runs) respond phases, one virtual-thread row per
      // request, plus a flow arrow from the execute phase to the device
      // batch that served it.
      const auto row = static_cast<std::int64_t>(request.id);
      telemetry::Labels attrs = {
          {"slo_met", met ? "1" : "0"},
          {"failovers", std::to_string(request.failovers)},
          {"node", std::to_string(request.node)},
          {"replica", std::to_string(replica_id)},
          {"route_reason", serving::RouteReasonName(request.route_reason)}};
      if (model.llm_cost != nullptr) {
        attrs.emplace_back("tokens", std::to_string(1 + request.target_tokens));
        attrs.emplace_back("kv_evictions", std::to_string(request.evictions));
      }
      hub_->spans().Complete(model.track, row, "request", request.arrival_us, complete_us,
                             std::move(attrs), "request");
      hub_->spans().Complete(model.track, row, "queue", request.arrival_us,
                             request.start_service_us, {}, "queue");
      hub_->spans().Complete(model.track, row, "execute", request.start_service_us,
                             exec_end, {}, "execute");
      if (complete_us > exec_end) {
        hub_->spans().Complete(model.track, row, "respond", exec_end, complete_us, {},
                               "respond");
      }
      hub_->spans().FlowStart(model.track, row, request.id, request.start_service_us);
      hub_->spans().FlowEnd(gpu_tracks_[static_cast<std::size_t>(gpu_global)], replica_id,
                            request.id, batch_start);
    }
  }

  // --- Replica lifecycle and placement. ---

  bool AddReplica(std::size_t m, bool immediate = false) {
    ModelState& model = *models_[m];
    // One least-interference pick over the node-major GPU list; a dead
    // node's GPUs are all marked not alive.
    std::vector<cluster::GpuResidents> residents(gpus_.size());
    for (std::size_t g = 0; g < gpus_.size(); ++g) {
      residents[g].alive = gpus_[g].alive;
      residents[g].used_bytes = gpus_[g].used_bytes;
      for (const int id : gpus_[g].replicas) {
        residents[g].jobs.push_back(models_[replica(id).model]->cost.signature());
      }
    }
    const std::optional<int> best = cluster::BestGpuFor(
        model.cost.signature(), residents, config_.device.memory_bytes,
        serving::kMaxReplicasPerGpu);
    if (!best.has_value()) {
      return false;
    }
    const int id = CreateReplica(m, *best, immediate);
    model.replicas.push_back(id);
    if (!immediate) {
      if (NetworkOn()) {
        // Ship the model state to the node first; the provisioning delay
        // starts when the weights arrive.
        NetOp op;
        op.kind = NetOp::Kind::kState;
        op.node = NodeOf(*best);
        op.replica_id = id;
        StartOp(interconnect::kHostNode, op.node, model.cost.state_bytes(), std::move(op));
      } else {
        sim_.ScheduleAfter(model.cost.ProvisionUs(), [this, id] { ActivateReplica(id); });
      }
    }
    return true;
  }

  void ActivateReplica(int id) {
    Replica& r = replica(id);
    if (r.state != Replica::State::kProvisioning) {
      return;  // killed while provisioning
    }
    r.state = Replica::State::kActive;
    r.active_since = sim_.now();
    if (attr_) {
      r.idle_since = sim_.now();  // the idle clock starts with the replica
    }
    ModelState& model = *models_[r.model];
    Mark("replica-active", {{"service", model.label},
                            {"replica", std::to_string(id)},
                            {"gpu", std::to_string(r.gpu)}});
    while (!model.limbo.empty()) {
      Request request = std::move(model.limbo.front());
      model.limbo.pop_front();
      const int node = PickNode(r.model);
      ORION_CHECK(node >= 0);  // this replica just activated
      Route(node, std::move(request), RouteReason::kLimboDrain);
    }
  }

  // Stops routing to the least-loaded active replica; it retires once empty.
  // Returns false when the model has no active replica to remove.
  bool RemoveOneReplica(std::size_t m) {
    int victim = -1;
    std::size_t victim_load = 0;
    for (const int id : models_[m]->replicas) {
      const Replica& r = replica(id);
      if (r.state != Replica::State::kActive) {
        continue;
      }
      const std::size_t load = r.batcher.size() + r.in_flight.size();
      if (victim < 0 || load < victim_load) {
        victim = id;
        victim_load = load;
      }
    }
    if (victim < 0) {
      return false;
    }
    DrainReplica(victim);
    return true;
  }

  // --- Faults and failover. ---

  // The fault handler's cases; each returns whether it applied the fault.
  bool ApplyGpuDown(const fault::FaultEvent& event) {
    if (event.gpu < 0 || event.gpu >= static_cast<int>(gpus_.size())) {
      return false;
    }
    GpuShard& shard = gpu(event.gpu);
    if (!shard.alive) {
      return false;
    }
    Mark("gpu-down", {{"gpu", std::to_string(event.gpu)}});
    shard.alive = false;
    const std::vector<int> victims = shard.replicas;  // the kills mutate the list
    for (const int id : victims) {
      KillAndRehome(id);
    }
    return true;
  }

  bool ApplyReplicaCrash(const fault::FaultEvent& event) {
    if (event.client < 0 || event.client >= static_cast<int>(replicas_.size()) ||
        replica(event.client).state == Replica::State::kDead) {
      return false;
    }
    KillAndRehome(event.client);
    return true;
  }

  bool ApplyNodeDown(const fault::FaultEvent& event) {
    const int n = event.node;
    if (n < 0 || n >= spec_.num_nodes || !node_state(n).alive) {
      return false;
    }
    ++node_faults_;
    if (node_faults_c_ != nullptr) {
      node_faults_c_->Inc();
    }
    Mark("node-down", {{"node", std::to_string(n)}});
    const int first_gpu = n * spec_.gpus_per_node;
    node_state(n).alive = false;
    for (int local = 0; local < spec_.gpus_per_node; ++local) {
      gpu(first_gpu + local).alive = false;
    }
    if (!fabrics_.empty()) {
      // Cut the NIC and abort every transfer touching the node. Cancelled
      // forwards re-route to survivors when their abort callback fires;
      // cancelled responses complete at the abort instant.
      interconnect::Fabric& fabric = *fabrics_[static_cast<std::size_t>(n)];
      fabric.SetLinkFactor(/*link=*/0, /*forward=*/true, 0.0);
      fabric.SetLinkFactor(/*link=*/0, /*forward=*/false, 0.0);
      std::vector<std::uint64_t> doomed;
      for (auto& [op_id, op] : net_ops_) {
        if (op.node == n && !op.cancelled) {
          op.cancelled = true;
          doomed.push_back(op_id);
        }
      }
      for (const std::uint64_t op_id : doomed) {
        fabric.CancelTransfer(net_ops_.at(op_id).transfer);
      }
    }
    for (int local = 0; local < spec_.gpus_per_node; ++local) {
      const std::vector<int> victims = gpu(first_gpu + local).replicas;
      for (const int id : victims) {
        KillAndRehome(id);
      }
    }
    return true;
  }

  // Replica death: orphaned requests re-route to surviving replicas of the
  // model (or limbo/drop), and a replacement is provisioned on a surviving
  // GPU. The batch on the device at the instant of death is lost with it —
  // its requests restart from the queue of whichever replica inherits them.
  void KillAndRehome(int id) {
    const Replica& r = replica(id);
    const std::size_t m = r.model;
    const int gpu_global = r.gpu;
    const bool was_running =
        r.state == Replica::State::kActive || r.state == Replica::State::kDraining;
    std::vector<Request> orphans = KillReplica(id);
    replicas_lost_->Inc();
    Mark("replica-killed", {{"service", models_[m]->label},
                            {"replica", std::to_string(id)},
                            {"gpu", std::to_string(gpu_global)}});
    for (Request& request : orphans) {
      RehomeOrphan(m, std::move(request), was_running);
    }
    if (AddReplica(m)) {
      replacements_->Inc();
    } else {
      replacement_failures_->Inc();
    }
  }

  void RehomeOrphan(std::size_t m, Request request, bool was_running) {
    ModelState& model = *models_[m];
    ++request.failovers;
    if (attr_) {
      // Whatever leg the orphan was on when its replica/node died (wire,
      // queue already closed by KillReplica) ends here; everything until it
      // lands somewhere new — re-forward, limbo — is preemption fallout.
      request.ledger.Advance(sim_.now(), attribution::Phase::kPreempt);
    }
    if (InWindow(sim_.now())) {
      model.failed_over->Inc();
    }
    const int node = PickNode(m);
    if (node < 0) {
      LimboOrDrop(m, std::move(request), /*hold=*/was_running);
      return;
    }
    Route(node, std::move(request), RouteReason::kFailoverRehome);
  }

  // --- Autoscaling. ---

  void EvalAutoscaler() {
    const TimeUs now = sim_.now();
    const DurationUs period = config_.autoscaler.eval_period_us;
    for (std::size_t m = 0; m < models_.size(); ++m) {
      ModelState& model = *models_[m];
      serving::ModelWindowSignals signals;
      signals.arrivals = model.w_arrivals;
      signals.completions = model.w_completions;
      signals.slo_met = model.w_slo_met;
      signals.shed = model.w_shed;
      signals.max_replicas = model.cfg.max_replicas;
      signals.pending_replicas = PendingReplicas(m);
      double busy = 0.0;
      int active = 0;
      for (const int id : model.replicas) {
        Replica& r = replica(id);
        if (r.state != Replica::State::kActive && r.state != Replica::State::kDraining) {
          continue;
        }
        if (r.busy) {  // account the running batch's elapsed part
          r.busy_in_eval_window_us += now - r.batch_start;
          r.batch_start = now;
        }
        busy += r.busy_in_eval_window_us;
        r.busy_in_eval_window_us = 0.0;
        ++active;
      }
      signals.active_replicas = active;
      signals.utilization = active > 0 ? busy / (period * static_cast<double>(active)) : 0.0;

      serving::ScaleReason reason = serving::ScaleReason::kNone;
      switch (serving::DecideWithReason(config_.autoscaler, signals, &reason)) {
        case serving::ScaleDecision::kUp:
          if (AddReplica(m)) {
            scale_ups_->Inc();
            Mark("scale-up", {{"service", model.label},
                              {"reason", serving::ScaleReasonName(reason)}});
          } else {
            scale_failures_->Inc();
            Mark("scale-failure", {{"service", model.label}});
          }
          break;
        case serving::ScaleDecision::kDown:
          if (RemoveOneReplica(m)) {
            scale_downs_->Inc();
            Mark("scale-down", {{"service", model.label},
                                {"reason", serving::ScaleReasonName(reason)}});
          }
          break;
        case serving::ScaleDecision::kHold:
          break;
      }
      model.w_arrivals = 0;
      model.w_completions = 0;
      model.w_slo_met = 0;
      model.w_shed = 0;
    }
    sim_.ScheduleAfter(period, [this] { EvalAutoscaler(); });
  }

  // --- Results. ---

  ClusterResult Finalize() {
    ClusterResult cluster;
    serving::ServingResult& result = cluster.serving;
    result.window_us = config_.duration_us;
    for (std::size_t m = 0; m < models_.size(); ++m) {
      ModelState& model = *models_[m];
      serving::ModelServingResult out;
      out.name = workloads::WorkloadName(model.cfg.workload);
      out.tier = model.cfg.tier;
      out.offered = static_cast<std::size_t>(model.offered->AsCount());
      out.completed = static_cast<std::size_t>(model.completed->AsCount());
      out.slo_met = static_cast<std::size_t>(model.slo_met->AsCount());
      out.shed = static_cast<std::size_t>(model.shed->AsCount());
      out.dropped = static_cast<std::size_t>(model.dropped->AsCount());
      out.failed_over = static_cast<std::size_t>(model.failed_over->AsCount());
      // Clamped: completions of pre-window arrivals can push the windowed
      // ratio a hair over 1 at light load.
      out.slo_attainment =
          out.offered > 0 ? std::min(1.0, static_cast<double>(out.slo_met) /
                                              static_cast<double>(out.offered))
                          : 1.0;
      out.throughput_rps =
          static_cast<double>(out.completed) / UsToSec(config_.duration_us);
      out.latency = *model.latency;
      out.queueing = *model.queueing;
      out.batches = static_cast<std::size_t>(model.batches->AsCount());
      out.mean_batch_size =
          out.batches > 0 ? model.batched_requests->value() /
                                static_cast<double>(out.batches)
                          : 0.0;
      if (model.llm_cost != nullptr) {
        out.tokens = static_cast<std::size_t>(model.tokens->AsCount());
        out.prefills = static_cast<std::size_t>(model.prefills->AsCount());
        out.decode_steps = static_cast<std::size_t>(model.decode_steps->AsCount());
        out.kv_evictions = static_cast<std::size_t>(model.kv_evictions->AsCount());
        out.ttft = *model.ttft;
        out.tpot = *model.tpot;
      }
      out.total_offered = static_cast<std::size_t>(model.total_offered->AsCount());
      out.total_completed = static_cast<std::size_t>(model.total_completed->AsCount());
      out.total_shed = static_cast<std::size_t>(model.total_shed->AsCount());
      out.total_dropped = static_cast<std::size_t>(model.total_dropped->AsCount());
      std::size_t left = model.limbo.size() + model.in_network;
      for (const int id : model.replicas) {
        const Replica& r = replica(id);
        left += r.batcher.size() + r.in_flight.size();
        if (r.state == Replica::State::kActive) {
          ++out.final_replicas;
          AccountReplicaTime(r.active_since);
        } else if (r.state == Replica::State::kDraining) {
          AccountReplicaTime(r.active_since);
        }
      }
      out.left_in_system = left;
      // Export the closing term of the accounting identity so a metrics
      // snapshot alone can verify
      //   offered_total == completed_total + shed_total + dropped_total
      //                    + left_in_system.
      metrics_->GetGauge("serving.left_in_system", {{"service", model.label}})
          ->Set(static_cast<double>(left));
      metrics_->GetGauge("serving.final_replicas", {{"service", model.label}})
          ->Set(static_cast<double>(out.final_replicas));
      ORION_CHECK_MSG(out.total_offered == out.total_completed + out.total_shed +
                                               out.total_dropped + out.left_in_system,
                      "request accounting identity violated for " << out.name);
      result.models.push_back(std::move(out));
    }
    result.scale_ups = static_cast<std::size_t>(scale_ups_->AsCount());
    result.scale_downs = static_cast<std::size_t>(scale_downs_->AsCount());
    result.scale_failures = static_cast<std::size_t>(scale_failures_->AsCount());
    if (injector_ != nullptr) {
      result.faults_injected = injector_->injected();
      result.faults_skipped = injector_->skipped();
    }
    result.replicas_lost = static_cast<std::size_t>(replicas_lost_->AsCount());
    result.replacements = static_cast<std::size_t>(replacements_->AsCount());
    result.replacement_failures =
        static_cast<std::size_t>(replacement_failures_->AsCount());
    result.replica_seconds = replica_seconds_->value();
    for (const GpuShard& shard : gpus_) {
      if (shard.alive) {
        ++result.gpus_alive_end;
      }
    }
    metrics_->GetGauge("serving.gpus_alive")
        ->Set(static_cast<double>(result.gpus_alive_end));

    for (int n = 0; n < spec_.num_nodes; ++n) {
      const NodeState& node = node_state(n);
      NodeSummary summary;
      summary.node = n;
      summary.alive_end = node.alive;
      summary.replicas_created = node.replicas_created;
      summary.replicas_killed = node.replicas_killed;
      summary.batches = node.batches;
      summary.requests = node.requests;
      cluster.nodes.push_back(summary);
      if (node.alive) {
        ++cluster.nodes_alive_end;
      }
    }
    cluster.node_faults = node_faults_;
    cluster.requests_forwarded = requests_forwarded_;
    for (const auto& fabric : fabrics_) {
      // Each mini-topology has one link (the NIC); forward is host -> node.
      cluster.request_bytes_moved += fabric->BytesMoved(/*link=*/0, /*forward=*/true);
      cluster.response_bytes_moved += fabric->BytesMoved(/*link=*/0, /*forward=*/false);
    }
    if (spec_.num_nodes > 1) {
      metrics_->GetGauge("datacenter.nodes_alive")
          ->Set(static_cast<double>(cluster.nodes_alive_end));
    }
    return cluster;
  }

  serving::ServingConfig config_;
  ClusterSpec spec_;
  Simulator sim_;
  serving::Router router_;
  TimeUs horizon_;
  std::vector<NodeState> nodes_;
  std::vector<GpuShard> gpus_;    // by global (node-major) GPU index
  std::deque<Replica> replicas_;  // by replica id; stable addresses
  // One fabric per node NIC (empty when the network is off). Single-hop star
  // routes never share links, so per-NIC fabrics are model-identical to one
  // fabric over the whole star (see the constructor).
  std::vector<std::unique_ptr<interconnect::Fabric>> fabrics_;
  std::vector<std::unique_ptr<ModelState>> models_;
  std::uint64_t next_request_id_ = 0;

  // In-flight network payloads, keyed by a monotonically increasing op id so
  // iteration (the node-down sweep) follows start order deterministically.
  std::map<std::uint64_t, NetOp> net_ops_;
  std::uint64_t next_op_id_ = 0;
  std::size_t node_faults_ = 0;
  std::size_t requests_forwarded_ = 0;
  // Dispatches config_.fault_plan; null on a fault-free run.
  std::unique_ptr<fault::FaultInjector> injector_;

  // Telemetry (bound in BindTelemetry; metrics_ falls back to the private
  // registry when no hub is configured, so the instruments are never null).
  telemetry::Hub* hub_ = nullptr;
  telemetry::MetricRegistry local_metrics_;
  telemetry::MetricRegistry* metrics_ = nullptr;
  bool attr_ = false;  // hub attribution enabled (BindTelemetry)
  telemetry::TrackId control_track_ = -1;
  std::vector<telemetry::TrackId> gpu_tracks_;  // by global GPU index
  telemetry::Counter* scale_ups_ = nullptr;
  telemetry::Counter* scale_downs_ = nullptr;
  telemetry::Counter* scale_failures_ = nullptr;
  telemetry::Counter* replicas_lost_ = nullptr;
  telemetry::Counter* replacements_ = nullptr;
  telemetry::Counter* replacement_failures_ = nullptr;
  telemetry::Counter* replica_seconds_ = nullptr;  // replica-seconds accrue monotonically
  telemetry::Counter* node_faults_c_ = nullptr;           // num_nodes > 1 only
  telemetry::Counter* requests_forwarded_c_ = nullptr;    // num_nodes > 1 only
};

// Bitwise double equality: distinguishes -0.0 from 0.0 and NaN payloads,
// exactly what "bit-identical" promises.
bool BitsEq(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool RecordersEq(const LatencyRecorder& a, const LatencyRecorder& b) {
  const std::vector<double>& sa = a.samples();
  const std::vector<double>& sb = b.samples();
  if (sa.size() != sb.size()) {
    return false;
  }
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (!BitsEq(sa[i], sb[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool ClusterResultsBitIdentical(const ClusterResult& a, const ClusterResult& b) {
  const serving::ServingResult& sa = a.serving;
  const serving::ServingResult& sb = b.serving;
  if (sa.models.size() != sb.models.size() || !BitsEq(sa.window_us, sb.window_us) ||
      sa.scale_ups != sb.scale_ups || sa.scale_downs != sb.scale_downs ||
      sa.scale_failures != sb.scale_failures ||
      sa.faults_injected != sb.faults_injected ||
      sa.faults_skipped != sb.faults_skipped ||
      sa.replicas_lost != sb.replicas_lost ||
      sa.replacements != sb.replacements ||
      sa.replacement_failures != sb.replacement_failures ||
      sa.gpus_alive_end != sb.gpus_alive_end ||
      !BitsEq(sa.replica_seconds, sb.replica_seconds)) {
    return false;
  }
  for (std::size_t m = 0; m < sa.models.size(); ++m) {
    const serving::ModelServingResult& ma = sa.models[m];
    const serving::ModelServingResult& mb = sb.models[m];
    if (ma.name != mb.name || ma.tier != mb.tier || ma.offered != mb.offered ||
        ma.completed != mb.completed || ma.slo_met != mb.slo_met ||
        ma.shed != mb.shed || ma.dropped != mb.dropped ||
        ma.failed_over != mb.failed_over ||
        !BitsEq(ma.slo_attainment, mb.slo_attainment) ||
        !BitsEq(ma.throughput_rps, mb.throughput_rps) ||
        ma.batches != mb.batches ||
        !BitsEq(ma.mean_batch_size, mb.mean_batch_size) ||
        ma.final_replicas != mb.final_replicas || ma.tokens != mb.tokens ||
        ma.prefills != mb.prefills || ma.decode_steps != mb.decode_steps ||
        ma.kv_evictions != mb.kv_evictions ||
        ma.total_offered != mb.total_offered ||
        ma.total_completed != mb.total_completed ||
        ma.total_shed != mb.total_shed ||
        ma.total_dropped != mb.total_dropped ||
        ma.left_in_system != mb.left_in_system ||
        !RecordersEq(ma.latency, mb.latency) ||
        !RecordersEq(ma.queueing, mb.queueing) ||
        !RecordersEq(ma.ttft, mb.ttft) || !RecordersEq(ma.tpot, mb.tpot)) {
      return false;
    }
  }
  if (a.nodes.size() != b.nodes.size() ||
      a.nodes_alive_end != b.nodes_alive_end ||
      a.node_faults != b.node_faults ||
      a.requests_forwarded != b.requests_forwarded ||
      !BitsEq(a.request_bytes_moved, b.request_bytes_moved) ||
      !BitsEq(a.response_bytes_moved, b.response_bytes_moved)) {
    return false;
  }
  for (std::size_t n = 0; n < a.nodes.size(); ++n) {
    const NodeSummary& na = a.nodes[n];
    const NodeSummary& nb = b.nodes[n];
    if (na.node != nb.node || na.alive_end != nb.alive_end ||
        na.replicas_created != nb.replicas_created ||
        na.replicas_killed != nb.replicas_killed ||
        na.batches != nb.batches || na.requests != nb.requests) {
      return false;
    }
  }
  return true;
}

ClusterResult RunCluster(const ClusterConfig& config) {
  ORION_CHECK_MSG(config.lp_threads == 1,
                  "lp_threads must be 1: the cluster engine is sequential");
  ClusterEngine engine(config);
  return engine.Run();
}

}  // namespace datacenter

namespace serving {

ServingResult RunServing(const ServingConfig& config) {
  datacenter::ClusterConfig cluster_config;
  cluster_config.cluster.num_nodes = 1;
  cluster_config.cluster.gpus_per_node = config.num_gpus;
  cluster_config.serving = config;
  return datacenter::RunCluster(cluster_config).serving;
}

}  // namespace serving
}  // namespace orion
