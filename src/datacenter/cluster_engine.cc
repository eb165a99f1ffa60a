// Global control plane over per-node engines, and the RunCluster /
// RunServing entry points. See cluster.h for the architecture overview.
//
// Compatibility contract: with num_nodes == 1 the network is not modeled and
// every code path below reduces, event for event and float for float, to the
// pre-split single-node serving engine — RunServing's results are unchanged.
// The datacenter_test N=1 equivalence test pins this down field by field.
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

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/datacenter/cluster_topology.h"
#include "src/datacenter/node_engine.h"
#include "src/interconnect/fabric.h"
#include "src/serving/batch_cost.h"
#include "src/sim/simulator.h"
#include "src/trace/arrivals.h"
#include "src/trace/diurnal.h"

namespace orion {
namespace datacenter {

namespace {

using serving::ReplicaView;
using serving::Request;
using serving::RequestOutcome;
using serving::RouteReason;

std::unique_ptr<trace::ArrivalProcess> MakeArrivals(const serving::ModelServiceConfig& cfg) {
  switch (cfg.arrivals) {
    case serving::ArrivalKind::kUniform:
      return trace::MakeUniform(cfg.rps);
    case serving::ArrivalKind::kPoisson:
      return trace::MakePoisson(cfg.rps);
    case serving::ArrivalKind::kApollo:
      return trace::MakeApollo(cfg.rps);
    case serving::ArrivalKind::kDiurnal: {
      trace::DiurnalConfig diurnal = cfg.diurnal;
      if (diurnal.mean_rps <= 0.0) {
        diurnal.mean_rps = cfg.rps;
      }
      return trace::MakeDiurnal(diurnal);
    }
  }
  ORION_CHECK_MSG(false, "unknown arrival kind");
  return nullptr;
}

// Where a global replica id lives.
struct ReplicaRef {
  int node = -1;
  int slot = -1;
};

class ClusterEngine : public NodeHost {
 public:
  explicit ClusterEngine(const ClusterConfig& cluster_config)
      : config_(cluster_config.serving),
        spec_(cluster_config.cluster),
        topo_(cluster_config.cluster),
        node_policy_(cluster_config.node_policy),
        router_(cluster_config.serving.policy, cluster_config.serving.models.size()),
        admission_(cluster_config.serving.admission),
        horizon_(cluster_config.serving.warmup_us + cluster_config.serving.duration_us) {
    ORION_CHECK(config_.max_replicas_per_gpu >= 1);
    ORION_CHECK_MSG(!config_.models.empty(), "serving needs at least one model service");
    Rng root(config_.seed);
    for (std::size_t m = 0; m < config_.models.size(); ++m) {
      const serving::ModelServiceConfig& cfg = config_.models[m];
      ORION_CHECK(cfg.rps > 0.0);
      ORION_CHECK(cfg.slo_us > 0.0);
      ORION_CHECK(cfg.initial_replicas >= 1);
      ORION_CHECK(cfg.min_replicas >= 1);
      ORION_CHECK(cfg.max_replicas >= cfg.initial_replicas);
      models_.push_back(std::make_unique<ModelState>(
          cfg,
          serving::BatchCostModel(config_.device, cfg.workload,
                                  cfg.tier == serving::PriorityTier::kLatencyCritical,
                                  config_.launch_overhead_us),
          MakeArrivals(cfg), root.Fork(m)));
      if (cfg.llm.enabled) {
        ORION_CHECK_MSG(cfg.workload.model == workloads::ModelId::kLlmDecode,
                        "LLM serving requires the kLlmDecode workload");
        // The cost model's constructor validates the LLM shape parameters.
        models_.back()->llm_cost = std::make_unique<serving::LlmCostModel>(
            config_.device, cfg.llm, config_.launch_overhead_us);
        // Replica state = the weights; the KV cache is carved separately out
        // of whatever device memory remains at placement (node_engine.cc).
        models_.back()->cost.OverrideStateBytes(
            workloads::LlmWeightBytes(cfg.llm.model));
      }
    }
    rr_node_cursor_.assign(config_.models.size(), 0);

    for (int n = 0; n < spec_.num_nodes; ++n) {
      nodes_.emplace_back(n, spec_.gpus_per_node, this);
    }
    if (NetworkOn()) {
      // One fabric per NIC rather than one over the whole star. The star has
      // no shared links (every route is the single host<->node NIC hop), so
      // splitting is model-identical, and each NIC's transfers, byte counters
      // and fault state stay on that node's own fabric. Endpoint 0 of each
      // mini-topology is the node; interconnect::kHostNode is the ToR side.
      for (int n = 0; n < spec_.num_nodes; ++n) {
        fabrics_.push_back(std::make_unique<interconnect::Fabric>(
            &sim_, interconnect::NodeTopology::NicStar(1, spec_.nic_gbps,
                                                       spec_.nic_latency_us)));
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
    ArmFaults();
    if (config_.autoscaler.enabled) {
      sim_.ScheduleAfter(config_.autoscaler.eval_period_us, [this] { EvalAutoscaler(); });
    }
    sim_.RunUntil(horizon_);
    return Finalize();
  }

  // --- NodeHost. ---

  Simulator& sim() override { return sim_; }
  const serving::BatchingConfig& batching_config() const override { return config_.batching; }
  const serving::BatchCostModel& model_cost(std::size_t model) const override {
    return models_[model]->cost;
  }
  serving::PriorityTier model_tier(std::size_t model) const override {
    return models_[model]->cfg.tier;
  }
  const serving::LlmServiceConfig* model_llm(std::size_t model) const override {
    const ModelState& state = *models_[model];
    return state.cfg.llm.enabled ? &state.cfg.llm : nullptr;
  }
  const serving::LlmCostModel& model_llm_cost(std::size_t model) const override {
    ORION_CHECK(models_[model]->llm_cost != nullptr);
    return *models_[model]->llm_cost;
  }
  std::size_t gpu_memory_bytes() const override { return config_.device.memory_bytes; }

  bool attribution() const override {
    // Queried by NodeEngine at construction (before BindTelemetry), so it
    // reads the config directly instead of the cached attr_.
    return config_.telemetry != nullptr && config_.telemetry->attribution_enabled();
  }

  void OnBatchServed(NodeEngine& node, Replica& r) override {
    const TimeUs now = sim_.now();
    ModelState& model = *models_[r.model];
    const int batch_size = static_cast<int>(r.in_flight.size());
    const int gpu_global = topo_.GlobalGpu(node.node_id(), r.gpu);
    if (!NetworkOn()) {
      for (const Request& request : r.in_flight) {
        CompleteRequest(request, r.id, gpu_global, r.batch_start, now, now);
      }
    } else {
      // The computed responses still have to cross the network; completion
      // accounting happens when each one reaches the front-end.
      for (const Request& request : r.in_flight) {
        SendResponse(node.node_id(), r.id, gpu_global, r.batch_start, now, request);
      }
    }
    if (model.track >= 0) {
      hub_->spans().Complete(gpu_tracks_[static_cast<std::size_t>(gpu_global)], r.id,
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

  void OnDecodeStep(NodeEngine& node, Replica& r, int batch, int prefills, TimeUs start,
                    TimeUs end) override {
    ModelState& model = *models_[r.model];
    const int gpu_global = topo_.GlobalGpu(node.node_id(), r.gpu);
    if (model.track >= 0) {
      hub_->spans().Complete(
          gpu_tracks_[static_cast<std::size_t>(gpu_global)], r.id, "step:" + model.label,
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

  void OnSequenceFinished(NodeEngine& node, Replica& r, const Request& request,
                          TimeUs step_start, TimeUs step_end) override {
    const int gpu_global = topo_.GlobalGpu(node.node_id(), r.gpu);
    if (!NetworkOn()) {
      CompleteRequest(request, r.id, gpu_global, step_start, step_end, step_end);
    } else {
      SendResponse(node.node_id(), r.id, gpu_global, step_start, step_end, request);
    }
  }

  void OnKvEviction(NodeEngine& node, Replica& r, const Request& request) override {
    (void)node;
    ModelState& model = *models_[r.model];
    if (InWindow(sim_.now())) {
      model.kv_evictions->Inc();
    }
    Mark("kv-evict", {{"service", model.label},
                      {"replica", std::to_string(r.id)},
                      {"request", std::to_string(request.id)}});
  }

  void AccountReplicaTime(TimeUs active_since) override {
    const TimeUs start = std::max(active_since, config_.warmup_us);
    const TimeUs end = std::min(sim_.now(), horizon_);
    if (end > start) {
      replica_seconds_->Inc(UsToSec(end - start));
    }
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
    std::vector<int> replicas;  // every global replica id ever created
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

  bool NetworkOn() const { return spec_.num_nodes > 1 && spec_.model_network; }

  // Binds every instrument against the hub registry (a private registry
  // when no hub is configured) and registers the trace tracks.
  void BindTelemetry() {
    hub_ = config_.telemetry;
    metrics_ = hub_ != nullptr ? &hub_->metrics() : &local_metrics_;
    const bool tracing = hub_ != nullptr && hub_->tracing();
    attr_ = hub_ != nullptr && hub_->attribution_enabled();
    for (std::size_t m = 0; m < models_.size(); ++m) {
      ModelState& model = *models_[m];
      model.label = workloads::WorkloadName(model.cfg.workload);
      for (std::size_t prev = 0; prev < m; ++prev) {
        if (models_[prev]->label == model.label) {
          model.label += "#" + std::to_string(m);
          break;
        }
      }
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
    faults_injected_ = metrics_->GetCounter("serving.faults_injected");
    faults_skipped_ = metrics_->GetCounter("serving.faults_skipped");
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
      gpu_tracks_.reserve(static_cast<std::size_t>(topo_.total_gpus()));
      for (int g = 0; g < topo_.total_gpus(); ++g) {
        const std::string name =
            spec_.num_nodes == 1
                ? "gpu" + std::to_string(g)
                : "n" + std::to_string(topo_.NodeOfGpu(g)) + "/gpu" +
                      std::to_string(topo_.LocalGpu(g));
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

  Replica& replica(int id) {
    const ReplicaRef& ref = directory_[static_cast<std::size_t>(id)];
    return nodes_[static_cast<std::size_t>(ref.node)].replica(ref.slot);
  }
  const Replica& replica(int id) const {
    const ReplicaRef& ref = directory_[static_cast<std::size_t>(id)];
    return nodes_[static_cast<std::size_t>(ref.node)].replica(ref.slot);
  }

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
      // Per-token SLOs supersede slo_us: the deadline admission gates on and
      // EDF queues order by is the TTFT deadline.
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
      HandleNoReplica(m, std::move(request));
      return;
    }
    // Admission against the chosen node's least-loaded replica.
    std::vector<ReplicaView> views;
    std::vector<int> slots;
    BuildNodeViews(node, m, &views, &slots);
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
    if (!admission_.Admit(request, model.cfg.tier, best_wait, service)) {
      request.outcome = RequestOutcome::kShed;
      model.total_shed->Inc();
      ++model.w_shed;
      if (InWindow(now)) {
        model.shed->Inc();
      }
      Mark("shed", {{"service", model.label}});
      return;
    }
    if (NetworkOn()) {
      ForwardRequest(node, std::move(request), std::nullopt);
    } else {
      Deliver(node, std::move(request), std::nullopt);
    }
  }

  // Batch size the next dispatch will likely use (admission's service-time
  // estimate): the queue ahead plus this request, capped by the batcher.
  int EstimatedBatch(std::size_t queued_ahead) const {
    if (!config_.batching.enabled) {
      return 1;
    }
    return std::min<int>(config_.batching.max_batch_size,
                         static_cast<int>(queued_ahead) + 1);
  }

  void HandleNoReplica(std::size_t m, Request request) {
    ModelState& model = *models_[m];
    if (PendingReplicas(m) > 0) {
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
      const ReplicaRef& ref = directory_[static_cast<std::size_t>(id)];
      const auto n = static_cast<std::size_t>(ref.node);
      const NodeEngine& node = nodes_[n];
      const Replica& r = node.replica(ref.slot);
      if (r.state != Replica::State::kActive || !node.alive()) {
        continue;
      }
      has[n] = true;
      node_best[n] = std::min(node_best[n], node.OutstandingUs(r));
    }
    if (node_policy_ == NodePolicy::kRoundRobin) {
      std::vector<int> candidates;
      for (int n = 0; n < spec_.num_nodes; ++n) {
        if (has[static_cast<std::size_t>(n)]) {
          candidates.push_back(n);
        }
      }
      if (candidates.empty()) {
        return -1;
      }
      return candidates[static_cast<std::size_t>(rr_node_cursor_[m]++ %
                                                 candidates.size())];
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

  // Active replicas of `m` on `node`, sorted by global id (creation order).
  void BuildNodeViews(int node, std::size_t m, std::vector<ReplicaView>* views,
                      std::vector<int>* slots) {
    views->clear();
    slots->clear();
    NodeEngine& engine = nodes_[static_cast<std::size_t>(node)];
    for (const int id : models_[m]->replicas) {
      const ReplicaRef& ref = directory_[static_cast<std::size_t>(id)];
      if (ref.node != node) {
        continue;
      }
      const Replica& r = engine.replica(ref.slot);
      if (r.state != Replica::State::kActive) {
        continue;
      }
      ReplicaView view;
      view.replica_id = id;
      view.queued = r.batcher.size();
      view.in_flight = r.in_flight.size();
      view.outstanding_us = engine.OutstandingUs(r);
      views->push_back(view);
      slots->push_back(ref.slot);
    }
  }

  // Level-2 routing: pick the replica on `node` and hand the request to the
  // node engine. `forced` overrides the recorded route reason (failover
  // rehomes, limbo drains).
  void Deliver(int node, Request request, std::optional<RouteReason> forced) {
    const auto m = static_cast<std::size_t>(request.model);
    std::vector<ReplicaView> views;
    std::vector<int> slots;
    BuildNodeViews(node, m, &views, &slots);
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
    nodes_[static_cast<std::size_t>(node)].EnqueueAt(slots[idx], std::move(request));
  }

  // --- Network legs (num_nodes > 1 with model_network). ---

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
    StartOp(interconnect::kHostNode, node, spec_.request_bytes, std::move(op));
  }

  void SendResponse(int node, int replica_id, int gpu_global, TimeUs batch_start,
                    TimeUs batch_end, const Request& request) {
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
    StartOp(node, interconnect::kHostNode, spec_.response_bytes, std::move(op));
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
        if (op.cancelled || !nodes_[static_cast<std::size_t>(op.node)].alive()) {
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
    int best_node = -1;
    int best_gpu = -1;
    auto best_score = std::make_pair(std::numeric_limits<double>::infinity(),
                                     std::numeric_limits<std::size_t>::max());
    for (int n = 0; n < spec_.num_nodes; ++n) {
      const NodeEngine& node = nodes_[static_cast<std::size_t>(n)];
      if (!node.alive()) {
        continue;
      }
      cluster::PlacementEngine::PlacementScore score;
      const auto local = node.BestPlacement(model.cost.signature(),
                                            config_.device.memory_bytes,
                                            config_.max_replicas_per_gpu, &score);
      if (!local.has_value()) {
        continue;
      }
      // Strict < with ascending node order: equivalent to the flat
      // BestGpuFor over the node-major global GPU list.
      if (score < best_score) {
        best_score = score;
        best_node = n;
        best_gpu = *local;
      }
    }
    if (best_node < 0) {
      return false;
    }
    const int id = static_cast<int>(directory_.size());
    const int slot = nodes_[static_cast<std::size_t>(best_node)].CreateReplica(
        id, m, best_gpu, immediate, sim_.now());
    directory_.push_back({best_node, slot});
    model.replicas.push_back(id);
    if (!immediate) {
      if (NetworkOn()) {
        // Ship the model state to the node first; the provisioning delay
        // starts when the weights arrive.
        NetOp op;
        op.kind = NetOp::Kind::kState;
        op.node = best_node;
        op.replica_id = id;
        StartOp(interconnect::kHostNode, best_node, model.cost.state_bytes(),
                std::move(op));
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
                            {"gpu", std::to_string(topo_.GlobalGpu(r.node, r.gpu))}});
    while (!model.limbo.empty()) {
      Request request = std::move(model.limbo.front());
      model.limbo.pop_front();
      const int node = PickNode(r.model);
      ORION_CHECK(node >= 0);  // this replica just activated
      if (NetworkOn()) {
        ForwardRequest(node, std::move(request), RouteReason::kLimboDrain);
      } else {
        Deliver(node, std::move(request), RouteReason::kLimboDrain);
      }
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
    const ReplicaRef& ref = directory_[static_cast<std::size_t>(victim)];
    nodes_[static_cast<std::size_t>(ref.node)].DrainReplica(ref.slot);
    return true;
  }

  // --- Faults and failover. ---

  void ArmFaults() {
    for (const fault::FaultEvent& event : config_.fault_plan.events) {
      switch (event.kind) {
        case fault::FaultKind::kGpuDown:
          sim_.ScheduleAt(event.at_us, [this, event] { ApplyGpuDown(event); });
          break;
        case fault::FaultKind::kClientCrash:
          sim_.ScheduleAt(event.at_us, [this, event] { ApplyReplicaCrash(event); });
          break;
        case fault::FaultKind::kNodeDown:
          sim_.ScheduleAt(event.at_us, [this, event] { ApplyNodeDown(event); });
          break;
        default:
          // Device/link/profile faults act below this abstraction level.
          faults_skipped_->Inc();
          break;
      }
    }
  }

  void ApplyGpuDown(const fault::FaultEvent& event) {
    if (event.gpu < 0 || event.gpu >= topo_.total_gpus()) {
      faults_skipped_->Inc();
      return;
    }
    const int n = topo_.NodeOfGpu(event.gpu);
    const int local = topo_.LocalGpu(event.gpu);
    GpuShard& shard = nodes_[static_cast<std::size_t>(n)].gpu(local);
    if (!shard.alive) {
      faults_skipped_->Inc();
      return;
    }
    faults_injected_->Inc();
    Mark("gpu-down", {{"gpu", std::to_string(event.gpu)}});
    shard.alive = false;
    const std::vector<int> victims = shard.replicas;  // the kills mutate the list
    for (const int slot : victims) {
      KillAndRehome(n, slot);
    }
  }

  void ApplyReplicaCrash(const fault::FaultEvent& event) {
    if (event.client < 0 || event.client >= static_cast<int>(directory_.size()) ||
        replica(event.client).state == Replica::State::kDead) {
      faults_skipped_->Inc();
      return;
    }
    faults_injected_->Inc();
    const ReplicaRef& ref = directory_[static_cast<std::size_t>(event.client)];
    KillAndRehome(ref.node, ref.slot);
  }

  void ApplyNodeDown(const fault::FaultEvent& event) {
    const int n = event.node;
    if (n < 0 || n >= spec_.num_nodes || !nodes_[static_cast<std::size_t>(n)].alive()) {
      faults_skipped_->Inc();
      return;
    }
    faults_injected_->Inc();
    ++node_faults_;
    if (node_faults_c_ != nullptr) {
      node_faults_c_->Inc();
    }
    Mark("node-down", {{"node", std::to_string(n)}});
    NodeEngine& node = nodes_[static_cast<std::size_t>(n)];
    node.MarkDead();
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
    for (int local = 0; local < node.num_gpus(); ++local) {
      const std::vector<int> victims = node.gpu(local).replicas;
      for (const int slot : victims) {
        KillAndRehome(n, slot);
      }
    }
  }

  // Replica death: orphaned requests re-route to surviving replicas of the
  // model (or limbo/drop), and a replacement is provisioned on a surviving
  // GPU. The batch on the device at the instant of death is lost with it —
  // its requests restart from the queue of whichever replica inherits them.
  void KillAndRehome(int n, int slot) {
    NodeEngine& node = nodes_[static_cast<std::size_t>(n)];
    Replica& r = node.replica(slot);
    const std::size_t m = r.model;
    const int id = r.id;
    const int gpu_global = topo_.GlobalGpu(n, r.gpu);
    const bool was_running =
        r.state == Replica::State::kActive || r.state == Replica::State::kDraining;
    std::vector<Request> orphans = node.KillReplica(slot);
    replicas_lost_->Inc();
    Mark("replica-killed", {{"service", models_[m]->label},
                            {"replica", std::to_string(id)},
                            {"gpu", std::to_string(gpu_global)}});
    for (Request& request : orphans) {
      RehomeOrphan(m, std::move(request), was_running);
    }
    if (config_.replace_lost_replicas) {
      if (AddReplica(m)) {
        replacements_->Inc();
      } else {
        replacement_failures_->Inc();
      }
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
      if (PendingReplicas(m) > 0 || (config_.replace_lost_replicas && was_running)) {
        model.limbo.push_back(std::move(request));
      } else {
        model.total_dropped->Inc();
        if (InWindow(sim_.now())) {
          model.dropped->Inc();
        }
        Mark("drop", {{"service", model.label}});
      }
      return;
    }
    if (NetworkOn()) {
      ForwardRequest(node, std::move(request), RouteReason::kFailoverRehome);
    } else {
      Deliver(node, std::move(request), RouteReason::kFailoverRehome);
    }
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
      signals.min_replicas = model.cfg.min_replicas;
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
      out.latency = model.latency->window();
      out.queueing = model.queueing->window();
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
        out.ttft = model.ttft->window();
        out.tpot = model.tpot->window();
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
    result.faults_injected = static_cast<std::size_t>(faults_injected_->AsCount());
    result.faults_skipped = static_cast<std::size_t>(faults_skipped_->AsCount());
    result.replicas_lost = static_cast<std::size_t>(replicas_lost_->AsCount());
    result.replacements = static_cast<std::size_t>(replacements_->AsCount());
    result.replacement_failures =
        static_cast<std::size_t>(replacement_failures_->AsCount());
    result.replica_seconds = replica_seconds_->value();
    for (const NodeEngine& node : nodes_) {
      for (int local = 0; local < node.num_gpus(); ++local) {
        if (node.gpu(local).alive) {
          ++result.gpus_alive_end;
        }
      }
    }
    metrics_->GetGauge("serving.gpus_alive")
        ->Set(static_cast<double>(result.gpus_alive_end));

    for (const NodeEngine& node : nodes_) {
      NodeSummary summary;
      summary.node = node.node_id();
      summary.alive_end = node.alive();
      summary.replicas_created = node.replicas_created();
      summary.replicas_killed = node.replicas_killed();
      summary.batches = node.batches_served();
      summary.requests = node.requests_served();
      cluster.nodes.push_back(summary);
      if (node.alive()) {
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
  ClusterTopology topo_;
  NodePolicy node_policy_;
  Simulator sim_;
  serving::Router router_;
  serving::AdmissionController admission_;
  TimeUs horizon_;
  std::deque<NodeEngine> nodes_;
  // One fabric per node NIC (empty when the network is off). Single-hop star
  // routes never share links, so per-NIC fabrics are model-identical to one
  // fabric over the whole star (see the constructor).
  std::vector<std::unique_ptr<interconnect::Fabric>> fabrics_;
  std::vector<std::unique_ptr<ModelState>> models_;
  std::vector<ReplicaRef> directory_;  // global replica id -> (node, slot)
  std::vector<std::uint64_t> rr_node_cursor_;  // level-1 round-robin, per model
  std::uint64_t next_request_id_ = 0;

  // In-flight network payloads, keyed by a monotonically increasing op id so
  // iteration (the node-down sweep) follows start order deterministically.
  std::map<std::uint64_t, NetOp> net_ops_;
  std::uint64_t next_op_id_ = 0;
  std::size_t node_faults_ = 0;
  std::size_t requests_forwarded_ = 0;

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
  telemetry::Counter* faults_injected_ = nullptr;
  telemetry::Counter* faults_skipped_ = nullptr;
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
