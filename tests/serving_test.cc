// Online serving front-end tests (src/serving): batch cost model, dynamic
// batcher, router policies, admission control, autoscaler decisions,
// incremental placement, and end-to-end routing/batching/scaling/failover
// behaviour of the serving engine.
#include <gtest/gtest.h>

#include "src/cluster/placement.h"
#include "src/serving/admission.h"
#include "src/serving/autoscaler.h"
#include "src/serving/batch_cost.h"
#include "src/serving/batcher.h"
#include "src/serving/router.h"
#include "src/serving/serving.h"

namespace orion {
namespace serving {
namespace {

using workloads::MakeWorkload;
using workloads::ModelId;
using workloads::TaskType;

ModelServiceConfig Service(ModelId model, PriorityTier tier, double rps, DurationUs slo_us,
                           int initial_replicas = 1, int max_replicas = 4) {
  ModelServiceConfig cfg;
  cfg.workload = MakeWorkload(model, TaskType::kInference);
  cfg.tier = tier;
  cfg.rps = rps;
  cfg.slo_us = slo_us;
  cfg.initial_replicas = initial_replicas;
  cfg.max_replicas = max_replicas;
  return cfg;
}

// ResNet50 @ 50 rps against one replica (~104 rps single-request capacity):
// comfortably underloaded.
ServingConfig LightConfig() {
  ServingConfig config;
  config.num_gpus = 2;
  config.warmup_us = SecToUs(0.5);
  config.duration_us = SecToUs(4.0);
  config.models = {Service(ModelId::kResNet50, PriorityTier::kLatencyCritical, 50.0,
                           MsToUs(50.0))};
  return config;
}

// ResNet50 @ 300 rps against one replica: far past single-request capacity,
// within reach of two batched replicas.
ServingConfig OverloadConfig() {
  ServingConfig config = LightConfig();
  config.models[0].rps = 300.0;
  return config;
}

// --- Batch cost model. ---

TEST(BatchCostTest, BatchingIsSubLinear) {
  const BatchCostModel cost(gpusim::DeviceSpec::V100_16GB(),
                            MakeWorkload(ModelId::kResNet50, TaskType::kInference),
                            /*high_priority=*/true, 6.0);
  EXPECT_GT(cost.BatchServiceUs(2), cost.BatchServiceUs(1));
  EXPECT_GT(cost.BatchServiceUs(8), cost.BatchServiceUs(4));
  EXPECT_LT(cost.BatchServiceUs(8), 8.0 * cost.BatchServiceUs(1));
  EXPECT_LT(cost.PerRequestUs(8), cost.PerRequestUs(1));
}

TEST(BatchCostTest, ProvisioningCoversWeightTransfer) {
  const auto device = gpusim::DeviceSpec::V100_16GB();
  const BatchCostModel cost(device, MakeWorkload(ModelId::kBert, TaskType::kInference),
                            true, 6.0);
  // BERT-large weights over PCIe dominate the fixed process-start cost.
  EXPECT_GT(cost.ProvisionUs(),
            static_cast<double>(cost.state_bytes()) / (device.pcie_gbps * 1e3));
  EXPECT_GT(cost.ProvisionUs(), 50e3);
}

TEST(BatchCostTest, SlowdownProtectsLatencyCriticalTier) {
  EXPECT_DOUBLE_EQ(InterferenceSlowdown(PriorityTier::kLatencyCritical, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(InterferenceSlowdown(PriorityTier::kBestEffort, 0.0), 1.0);
  EXPECT_LT(InterferenceSlowdown(PriorityTier::kLatencyCritical, 1.0),
            InterferenceSlowdown(PriorityTier::kBestEffort, 1.0));
}

// --- Dynamic batcher. ---

Request MakeRequest(std::uint64_t id) {
  Request request;
  request.id = id;
  return request;
}

TEST(BatcherTest, DispatchesFullBatchImmediately) {
  BatchingConfig config;
  config.max_queue_delay_us = 1000.0;
  DynamicBatcher batcher(config);
  constexpr auto kFull = static_cast<std::uint64_t>(kMaxBatchSize);
  for (std::uint64_t i = 0; i + 1 < kFull; ++i) {
    batcher.Enqueue(MakeRequest(i), /*now=*/0.0);
  }
  EXPECT_FALSE(batcher.ShouldDispatch(0.0));  // one short of a full batch
  batcher.Enqueue(MakeRequest(kFull - 1), 0.0);
  batcher.Enqueue(MakeRequest(kFull), 0.0);  // overflow waits for the next batch
  EXPECT_TRUE(batcher.ShouldDispatch(0.0));
  std::vector<Request> batch;
  batcher.TakeBatchInto(&batch);
  ASSERT_EQ(batch.size(), kFull);
  for (std::uint64_t i = 0; i < kFull; ++i) {
    EXPECT_EQ(batch[i].id, i);  // FIFO: arrival order
  }
  EXPECT_EQ(batcher.size(), 1u);
}

TEST(BatcherTest, PartialBatchLingersUntilDelayBound) {
  BatchingConfig config;
  config.max_queue_delay_us = 1000.0;
  DynamicBatcher batcher(config);
  batcher.Enqueue(MakeRequest(0), 100.0);
  batcher.Enqueue(MakeRequest(1), 400.0);
  EXPECT_FALSE(batcher.ShouldDispatch(500.0));
  // Bound is measured from the oldest enqueue, not the newest.
  EXPECT_DOUBLE_EQ(batcher.LingerDeadline(), 1100.0);
  EXPECT_TRUE(batcher.ShouldDispatch(1100.0));
  std::vector<Request> batch;
  batcher.TakeBatchInto(&batch);
  EXPECT_EQ(batch.size(), 2u);
}

TEST(BatcherTest, DisabledBatchingTakesSingles) {
  BatchingConfig config;
  config.enabled = false;
  DynamicBatcher batcher(config);
  batcher.Enqueue(MakeRequest(0), 0.0);
  batcher.Enqueue(MakeRequest(1), 0.0);
  EXPECT_TRUE(batcher.ShouldDispatch(0.0));
  std::vector<Request> batch;
  batcher.TakeBatchInto(&batch);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batcher.size(), 1u);
}

TEST(BatcherTest, DrainReturnsEverythingInOrder) {
  DynamicBatcher batcher(BatchingConfig{});
  for (std::uint64_t i = 0; i < 3; ++i) {
    batcher.Enqueue(MakeRequest(i), static_cast<TimeUs>(i));
  }
  const auto drained = batcher.Drain();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained.front().id, 0u);
  EXPECT_EQ(drained.back().id, 2u);
  EXPECT_TRUE(batcher.empty());
}

TEST(BatcherTest, WhyDispatchNamesTheTrigger) {
  BatchingConfig config;
  config.max_queue_delay_us = 1000.0;
  DynamicBatcher batcher(config);
  batcher.Enqueue(MakeRequest(0), 0.0);
  EXPECT_EQ(batcher.WhyDispatch(1000.0), DispatchReason::kLingerExpired);
  for (std::uint64_t i = 1; i < static_cast<std::uint64_t>(kMaxBatchSize); ++i) {
    batcher.Enqueue(MakeRequest(i), 10.0);
  }
  EXPECT_EQ(batcher.WhyDispatch(10.0), DispatchReason::kFullBatch);
  config.enabled = false;
  DynamicBatcher singles(config);
  singles.Enqueue(MakeRequest(2), 0.0);
  EXPECT_EQ(singles.WhyDispatch(0.0), DispatchReason::kBatchingOff);
  EXPECT_STREQ(DispatchReasonName(DispatchReason::kFullBatch), "full-batch");
  EXPECT_STREQ(DispatchReasonName(DispatchReason::kDrain), "drain");
}

// --- Router policies. ---

std::vector<ReplicaView> ThreeReplicas() {
  ReplicaView a{/*replica_id=*/0, /*queued=*/3, /*in_flight=*/1, /*outstanding_us=*/900.0};
  ReplicaView b{1, 1, 0, 2000.0};  // short queue but slow (contended GPU)
  ReplicaView c{2, 2, 2, 500.0};
  return {a, b, c};
}

TEST(RouterTest, RoundRobinCycles) {
  Router router(RoutePolicy::kRoundRobin, 1);
  const auto views = ThreeReplicas();
  EXPECT_EQ(router.Pick(0, views), 0u);
  EXPECT_EQ(router.Pick(0, views), 1u);
  EXPECT_EQ(router.Pick(0, views), 2u);
  EXPECT_EQ(router.Pick(0, views), 0u);
}

TEST(RouterTest, LeastOutstandingPicksShortestQueue) {
  Router router(RoutePolicy::kLeastOutstanding, 1);
  EXPECT_EQ(router.Pick(0, ThreeReplicas()), 1u);  // 1 queued + 0 in flight
}

TEST(RouterTest, InterferenceAwareAvoidsContendedReplica) {
  Router router(RoutePolicy::kInterferenceAware, 1);
  // Replica 1 has the shortest queue but the largest predicted drain time;
  // the interference-aware policy picks the fastest drain instead.
  EXPECT_EQ(router.Pick(0, ThreeReplicas()), 2u);
}

TEST(RouterTest, TiesBreakTowardsLowestIndex) {
  Router router(RoutePolicy::kLeastOutstanding, 1);
  std::vector<ReplicaView> equal(2);
  equal[0].replica_id = 5;
  equal[1].replica_id = 9;
  EXPECT_EQ(router.Pick(0, equal), 0u);
}

TEST(RouterTest, PickReasonMatchesPolicyAndCandidateCount) {
  EXPECT_EQ(PickReason(RoutePolicy::kRoundRobin, 1), RouteReason::kOnlyCandidate);
  EXPECT_EQ(PickReason(RoutePolicy::kRoundRobin, 3), RouteReason::kRoundRobin);
  EXPECT_EQ(PickReason(RoutePolicy::kLeastOutstanding, 3), RouteReason::kLeastOutstanding);
  EXPECT_EQ(PickReason(RoutePolicy::kInterferenceAware, 2),
            RouteReason::kInterferenceAware);
  EXPECT_STREQ(RouteReasonName(RouteReason::kFailoverRehome), "failover-rehome");
  EXPECT_STREQ(RouteReasonName(RouteReason::kLimboDrain), "limbo-drain");
}

// --- Admission control. ---

TEST(AdmissionTest, ShedsPredictedDeadlineMiss) {
  const AdmissionController admission{AdmissionConfig{}};
  Request request;
  request.arrival_us = 1000.0;
  request.deadline_us = 1000.0 + 50e3;
  EXPECT_TRUE(admission.Admit(request, PriorityTier::kLatencyCritical,
                              /*predicted_wait_us=*/20e3, /*service_us=*/10e3));
  EXPECT_FALSE(admission.Admit(request, PriorityTier::kLatencyCritical, 45e3, 10e3));
}

TEST(AdmissionTest, BestEffortShedsEarlier) {
  const AdmissionController admission{AdmissionConfig{}};
  Request request;
  request.deadline_us = 100e3;
  // 80% of the deadline: fine for latency-critical (slack 1.0), beyond
  // best-effort's 0.7 slack.
  EXPECT_TRUE(admission.Admit(request, PriorityTier::kLatencyCritical, 70e3, 10e3));
  EXPECT_FALSE(admission.Admit(request, PriorityTier::kBestEffort, 70e3, 10e3));
  // 60%: inside both.
  EXPECT_TRUE(admission.Admit(request, PriorityTier::kBestEffort, 50e3, 10e3));
}

TEST(AdmissionTest, DisabledAdmitsEverything) {
  AdmissionConfig config;
  config.enabled = false;
  const AdmissionController admission(config);
  Request request;
  request.deadline_us = 1.0;
  EXPECT_TRUE(admission.Admit(request, PriorityTier::kLatencyCritical, 1e9, 1e9));
}

// --- Autoscaler decisions. ---

ModelWindowSignals HealthySignals() {
  ModelWindowSignals signals;
  signals.arrivals = 100;
  signals.completions = 100;
  signals.slo_met = 100;
  signals.utilization = 0.5;
  signals.active_replicas = 2;
  signals.min_replicas = 1;
  signals.max_replicas = 4;
  return signals;
}

TEST(AutoscalerTest, HoldsWhenHealthy) {
  AutoscalerConfig config;
  config.enabled = true;
  ScaleReason reason = ScaleReason::kNone;
  EXPECT_EQ(DecideWithReason(config, HealthySignals(), &reason), ScaleDecision::kHold);
}

TEST(AutoscalerTest, ScalesUpOnSheddingAttainmentOrUtilization) {
  AutoscalerConfig config;
  config.enabled = true;
  ScaleReason reason = ScaleReason::kNone;
  auto shed = HealthySignals();
  shed.shed = 5;
  EXPECT_EQ(DecideWithReason(config, shed, &reason), ScaleDecision::kUp);
  auto missing = HealthySignals();
  missing.slo_met = 50;
  EXPECT_EQ(DecideWithReason(config, missing, &reason), ScaleDecision::kUp);
  auto hot = HealthySignals();
  hot.utilization = 0.95;
  EXPECT_EQ(DecideWithReason(config, hot, &reason), ScaleDecision::kUp);
}

TEST(AutoscalerTest, RespectsReplicaBounds) {
  AutoscalerConfig config;
  config.enabled = true;
  ScaleReason reason = ScaleReason::kNone;
  auto capped = HealthySignals();
  capped.shed = 5;
  capped.active_replicas = 4;
  EXPECT_EQ(DecideWithReason(config, capped, &reason), ScaleDecision::kHold);
  auto pending = HealthySignals();
  pending.shed = 5;
  pending.pending_replicas = 1;  // one already provisioning: wait for it
  EXPECT_EQ(DecideWithReason(config, pending, &reason), ScaleDecision::kHold);
}

TEST(AutoscalerTest, ScalesDownOnlyWhenIdleAndHealthy) {
  AutoscalerConfig config;
  config.enabled = true;
  ScaleReason reason = ScaleReason::kNone;
  auto idle = HealthySignals();
  idle.utilization = 0.1;
  EXPECT_EQ(DecideWithReason(config, idle, &reason), ScaleDecision::kDown);
  idle.active_replicas = 1;  // already at the floor
  EXPECT_EQ(DecideWithReason(config, idle, &reason), ScaleDecision::kHold);
  auto idle_but_missing = HealthySignals();
  idle_but_missing.utilization = 0.1;
  idle_but_missing.slo_met = 50;
  EXPECT_NE(DecideWithReason(config, idle_but_missing, &reason), ScaleDecision::kDown);
}

TEST(AutoscalerTest, DecideWithReasonExplainsEveryBranch) {
  AutoscalerConfig config;
  config.enabled = true;
  ScaleReason reason = ScaleReason::kNone;
  auto shed = HealthySignals();
  shed.shed = 5;
  EXPECT_EQ(DecideWithReason(config, shed, &reason), ScaleDecision::kUp);
  EXPECT_EQ(reason, ScaleReason::kShedding);
  auto missing = HealthySignals();
  missing.slo_met = 50;
  EXPECT_EQ(DecideWithReason(config, missing, &reason), ScaleDecision::kUp);
  EXPECT_EQ(reason, ScaleReason::kAttainment);
  auto hot = HealthySignals();
  hot.utilization = 0.95;
  EXPECT_EQ(DecideWithReason(config, hot, &reason), ScaleDecision::kUp);
  EXPECT_EQ(reason, ScaleReason::kUtilizationHigh);
  auto idle = HealthySignals();
  idle.utilization = 0.1;
  EXPECT_EQ(DecideWithReason(config, idle, &reason), ScaleDecision::kDown);
  EXPECT_EQ(reason, ScaleReason::kIdleHealthy);
  EXPECT_EQ(DecideWithReason(config, HealthySignals(), &reason), ScaleDecision::kHold);
  EXPECT_EQ(reason, ScaleReason::kNone);
  EXPECT_STREQ(ScaleReasonName(ScaleReason::kShedding), "shedding");
  EXPECT_STREQ(ScaleReasonName(ScaleReason::kIdleHealthy), "idle-and-healthy");
}

TEST(AutoscalerTest, DrowningWindowCountsAsZeroAttainment) {
  ModelWindowSignals signals;
  signals.arrivals = 50;
  signals.completions = 0;
  EXPECT_DOUBLE_EQ(WindowAttainment(signals), 0.0);
  signals.arrivals = 0;
  EXPECT_DOUBLE_EQ(WindowAttainment(signals), 1.0);
}

// --- Incremental placement. ---

cluster::JobSignature Signature(ModelId model, bool high_priority) {
  return cluster::MakeSignature(gpusim::DeviceSpec::V100_16GB(),
                                MakeWorkload(model, TaskType::kInference), high_priority);
}

TEST(IncrementalPlacementTest, SkipsDeadAndFullGpus) {
  const auto job = Signature(ModelId::kResNet50, false);
  std::vector<cluster::GpuResidents> gpus(3);
  gpus[0].alive = false;
  gpus[1].jobs = {job, job};  // at the 2-job slot limit
  const auto best = cluster::BestGpuFor(job, gpus, 16ull << 30, 2);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 2);
}

TEST(IncrementalPlacementTest, OneLatencyCriticalJobPerGpu) {
  const auto hp = Signature(ModelId::kResNet50, true);
  std::vector<cluster::GpuResidents> gpus(2);
  gpus[0].jobs = {hp};
  gpus[1].jobs = {Signature(ModelId::kMobileNetV2, false)};
  const auto best = cluster::BestGpuFor(hp, gpus, 16ull << 30, 2);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 1);
  // Both GPUs hosting an hp job: nowhere to put a third.
  gpus[1].jobs = {hp};
  EXPECT_FALSE(cluster::BestGpuFor(hp, gpus, 16ull << 30, 2).has_value());
}

TEST(IncrementalPlacementTest, RespectsMemoryCapacity) {
  auto job = Signature(ModelId::kBert, false);
  std::vector<cluster::GpuResidents> gpus(1);
  gpus[0].used_bytes = (16ull << 30) - job.state_bytes / 2;
  EXPECT_FALSE(cluster::BestGpuFor(job, gpus, 16ull << 30, 4).has_value());
}

TEST(IncrementalPlacementTest, PrefersLeastInterference) {
  const auto job = Signature(ModelId::kResNet50, false);
  std::vector<cluster::GpuResidents> gpus(2);
  gpus[0].jobs = {Signature(ModelId::kResNet50, false)};     // same profile: clashes
  gpus[1].jobs = {Signature(ModelId::kMobileNetV2, false)};  // complementary
  const auto best = cluster::BestGpuFor(job, gpus, 16ull << 30, 2);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 1);
}

// --- End-to-end serving runs. ---

TEST(ServingTest, LightLoadMeetsSloWithoutShedding) {
  const ServingResult result = RunServing(LightConfig());
  ASSERT_EQ(result.models.size(), 1u);
  const ModelServingResult& model = result.models[0];
  EXPECT_GT(model.offered, 150u);
  EXPECT_EQ(model.shed, 0u);
  EXPECT_EQ(model.dropped, 0u);
  EXPECT_GE(model.slo_attainment, 0.95);
  EXPECT_GT(model.throughput_rps, 45.0);
  EXPECT_LT(model.latency.p99(), MsToUs(50.0));
}

TEST(ServingTest, AccountingIdentityHolds) {
  ServingConfig config = OverloadConfig();
  config.fault_plan.events.push_back([] {
    fault::FaultEvent event;
    event.kind = fault::FaultKind::kClientCrash;
    event.at_us = SecToUs(1.5);
    event.client = 0;
    return event;
  }());
  const ServingResult result = RunServing(config);
  const ModelServingResult& model = result.models[0];
  // The engine CHECKs the identity internally; assert the pieces are live.
  EXPECT_EQ(model.total_offered, model.total_completed + model.total_shed +
                                     model.total_dropped + model.left_in_system);
  EXPECT_GT(model.total_shed + model.left_in_system, 0u);
}

// The same identity, read back from an attached telemetry hub's registry:
// the engine's lifetime counters and the closing left_in_system gauge are
// the exported source of truth, not a parallel bookkeeping path.
TEST(ServingTest, AccountingIdentityVisibleInMetricsSnapshot) {
  telemetry::Hub hub;
  ServingConfig config = OverloadConfig();
  config.telemetry = &hub;
  const ServingResult result = RunServing(config);
  const ModelServingResult& model = result.models[0];
  const telemetry::Labels by_service = {{"service", model.name}};
  const telemetry::MetricRegistry& metrics = hub.metrics();
  const double offered = metrics.CounterValue("serving.offered_total", by_service);
  const double completed = metrics.CounterValue("serving.completed_total", by_service);
  const double shed = metrics.CounterValue("serving.shed_total", by_service);
  const double dropped = metrics.CounterValue("serving.dropped_total", by_service);
  const double in_system = metrics.GaugeValue("serving.left_in_system", by_service);
  EXPECT_GT(offered, 0.0);
  EXPECT_DOUBLE_EQ(offered, completed + shed + dropped + in_system);
  // The result struct is assembled from these same instruments.
  EXPECT_EQ(model.total_offered, static_cast<std::size_t>(offered));
  EXPECT_EQ(model.total_completed, static_cast<std::size_t>(completed));
  EXPECT_EQ(model.left_in_system, static_cast<std::size_t>(in_system));
}

TEST(ServingTest, AdmissionControlProtectsServedTailUnderOverload) {
  ServingConfig with = OverloadConfig();
  ServingConfig without = OverloadConfig();
  without.admission.enabled = false;
  const ServingResult shed_result = RunServing(with);
  const ServingResult queue_result = RunServing(without);
  EXPECT_GT(shed_result.models[0].shed, 0u);
  EXPECT_EQ(queue_result.models[0].shed, 0u);
  // Without admission the queue grows without bound and completed-request
  // latency melts; with shedding the served requests keep a bounded tail.
  EXPECT_LT(shed_result.models[0].latency.p99(), queue_result.models[0].latency.p99());
  EXPECT_GT(shed_result.models[0].slo_attainment, queue_result.models[0].slo_attainment);
}

TEST(ServingTest, BatchingRaisesCapacity) {
  ServingConfig batched = OverloadConfig();
  batched.admission.enabled = false;
  ServingConfig unbatched = batched;
  unbatched.batching.enabled = false;
  const ServingResult on = RunServing(batched);
  const ServingResult off = RunServing(unbatched);
  EXPECT_GT(on.models[0].mean_batch_size, 1.5);
  EXPECT_DOUBLE_EQ(off.models[0].mean_batch_size, 1.0);
  EXPECT_GT(on.models[0].throughput_rps, 1.2 * off.models[0].throughput_rps);
}

TEST(ServingTest, AutoscalerScalesUpUnderOverloadAndImprovesAttainment) {
  ServingConfig fixed = OverloadConfig();
  ServingConfig scaled = OverloadConfig();
  scaled.autoscaler.enabled = true;
  scaled.autoscaler.eval_period_us = SecToUs(0.25);
  const ServingResult fixed_result = RunServing(fixed);
  const ServingResult scaled_result = RunServing(scaled);
  EXPECT_GT(scaled_result.scale_ups, 0u);
  EXPECT_GT(scaled_result.models[0].final_replicas, 1);
  EXPECT_GT(scaled_result.models[0].slo_attainment,
            fixed_result.models[0].slo_attainment);
  EXPECT_GT(scaled_result.replica_seconds, fixed_result.replica_seconds);
}

TEST(ServingTest, AutoscalerScalesDownWhenIdle) {
  ServingConfig config = LightConfig();
  config.models[0].rps = 20.0;
  config.models[0].initial_replicas = 3;
  config.num_gpus = 4;
  config.autoscaler.enabled = true;
  config.autoscaler.eval_period_us = SecToUs(0.25);
  const ServingResult result = RunServing(config);
  EXPECT_GT(result.scale_downs, 0u);
  EXPECT_LT(result.models[0].final_replicas, 3);
  EXPECT_GE(result.models[0].final_replicas, 1);
  EXPECT_GE(result.models[0].slo_attainment, 0.95);
}

TEST(ServingTest, GpuDeathFailsOverToSurvivingReplica) {
  ServingConfig config = LightConfig();
  // Three GPUs so the replacement has a free GPU (one hp replica per GPU),
  // and enough load that the dying replica holds queued/in-flight work.
  config.num_gpus = 3;
  config.models[0].rps = 250.0;
  config.models[0].initial_replicas = 2;
  config.models[0].max_replicas = 3;
  fault::FaultEvent death;
  death.kind = fault::FaultKind::kGpuDown;
  death.at_us = SecToUs(2.0);
  death.gpu = 0;
  config.fault_plan.events.push_back(death);
  const ServingResult result = RunServing(config);
  EXPECT_EQ(result.faults_injected, 1u);
  EXPECT_EQ(result.gpus_alive_end, 2u);
  EXPECT_GE(result.replicas_lost, 1u);
  EXPECT_EQ(result.replacements, 1u);
  const ModelServingResult& model = result.models[0];
  EXPECT_GT(model.failed_over, 0u);
  EXPECT_EQ(model.total_dropped, 0u);  // survivor + replacement absorb everything
  // Requests drain: nearly everything offered completes within the run.
  EXPECT_GT(model.completed + model.left_in_system, model.offered * 95 / 100);
}

TEST(ServingTest, TotalGpuLossRecoversViaReplacement) {
  ServingConfig config = LightConfig();
  config.num_gpus = 2;
  fault::FaultEvent death;
  death.kind = fault::FaultKind::kGpuDown;
  death.at_us = SecToUs(2.0);
  death.gpu = 0;  // the only replica lives here
  config.fault_plan.events.push_back(death);
  const ServingResult result = RunServing(config);
  const ModelServingResult& model = result.models[0];
  EXPECT_EQ(result.replicas_lost, 1u);
  EXPECT_EQ(result.replacements, 1u);
  EXPECT_EQ(model.total_dropped, 0u);  // bridged through the limbo queue
  EXPECT_EQ(model.final_replicas, 1);
  // Completions resume after the ~120 ms re-provisioning gap.
  EXPECT_GT(model.completed, model.offered * 8 / 10);
}

TEST(ServingTest, LoneGpuDownFailsReplacementAndDrops) {
  // One GPU and it dies: there is nowhere to re-provision, so replacement
  // fails and every later arrival is dropped.
  ServingConfig config = LightConfig();
  config.num_gpus = 1;
  fault::FaultEvent death;
  death.kind = fault::FaultKind::kGpuDown;
  death.at_us = SecToUs(2.0);
  death.gpu = 0;
  config.fault_plan.events.push_back(death);
  const ServingResult result = RunServing(config);
  const ModelServingResult& model = result.models[0];
  EXPECT_EQ(result.gpus_alive_end, 0u);
  EXPECT_EQ(result.replicas_lost, 1u);
  EXPECT_EQ(result.replacements, 0u);
  EXPECT_EQ(result.replacement_failures, 1u);
  EXPECT_EQ(model.final_replicas, 0);
  EXPECT_GT(model.total_dropped, 0u);
  EXPECT_GT(model.total_completed, 0u);
  EXPECT_EQ(model.total_offered, model.total_completed + model.total_shed +
                                     model.total_dropped + model.left_in_system);
}

TEST(ServingTest, UnsupportedFaultKindsAreSkipped) {
  ServingConfig config = LightConfig();
  fault::FaultEvent degrade;
  degrade.kind = fault::FaultKind::kDeviceDegrade;
  degrade.at_us = SecToUs(1.0);
  config.fault_plan.events.push_back(degrade);
  const ServingResult result = RunServing(config);
  EXPECT_EQ(result.faults_injected, 0u);
  EXPECT_EQ(result.faults_skipped, 1u);
}

TEST(ServingTest, InterferenceAwareRoutingBeatsRoundRobinOnContendedFleet) {
  // Two services: an hp ResNet50 fleet of two replicas, and a be BERT
  // replica that the placement engine collocates with one of them. The
  // round-robin router keeps sending half the traffic to the contended
  // replica; the interference-aware router shifts load to the clean one.
  ServingConfig config;
  config.num_gpus = 2;
  config.warmup_us = SecToUs(0.5);
  config.duration_us = SecToUs(4.0);
  config.models = {
      Service(ModelId::kResNet50, PriorityTier::kLatencyCritical, 120.0, MsToUs(60.0), 2),
      Service(ModelId::kBert, PriorityTier::kBestEffort, 20.0, MsToUs(500.0), 1),
  };
  ServingConfig rr = config;
  rr.policy = RoutePolicy::kRoundRobin;
  ServingConfig ia = config;
  ia.policy = RoutePolicy::kInterferenceAware;
  const ServingResult rr_result = RunServing(rr);
  const ServingResult ia_result = RunServing(ia);
  EXPECT_LE(ia_result.models[0].latency.p99(), rr_result.models[0].latency.p99());
  EXPECT_GE(ia_result.models[0].slo_attainment, rr_result.models[0].slo_attainment);
}

}  // namespace
}  // namespace serving
}  // namespace orion
