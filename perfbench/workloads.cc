#include "perfbench/workloads.h"

#include "src/common/rng.h"
#include "src/trace/diurnal.h"
#include "src/trace/request_rates.h"

namespace perfbench {
namespace {

using orion::DurationUs;
using orion::MsToUs;
using orion::SecToUs;
using orion::harness::ClientConfig;
using orion::harness::ExperimentConfig;
using orion::harness::SchedulerKind;
using orion::workloads::ModelId;
using orion::workloads::TaskType;

// colloc_sweep: the fig06 --quick windows, so per-run profiling keeps the
// share of the wall clock it has in the paper-figure benches.
constexpr DurationUs kCollocWarmupUs = SecToUs(0.25);
constexpr DurationUs kCollocDurationUs = SecToUs(1.875);

// oversub_paging: the ext_memory_oversub --quick windows (the train mix runs
// four times longer, as there, to amortise its one-time paging bill).
constexpr DurationUs kOversubWarmupUs = SecToUs(0.25);
constexpr DurationUs kOversubDurationUs = SecToUs(1.875);
constexpr std::size_t kPageBytes = std::size_t{2} * 1024 * 1024;

// cluster_serving: long windows; a compressed diurnal "day" per run.
constexpr DurationUs kClusterWarmupUs = SecToUs(1.0);
constexpr DurationUs kClusterDurationUs = SecToUs(128.0);

// Per-run config seed derived from the benchmark seed, so every run draws
// its own arrival sample and same-seed invocations replay exactly.
std::uint64_t RunSeed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed ^ (index * 0xd1b54a32d192ed03ULL);
  return orion::SplitMix64(state);
}

ClientConfig InferenceClient(ModelId model, ClientConfig::Arrivals arrivals, double rps,
                             bool high_priority) {
  ClientConfig client;
  client.workload = orion::workloads::MakeWorkload(model, TaskType::kInference);
  client.high_priority = high_priority;
  client.arrivals = arrivals;
  client.rps = rps;
  return client;
}

ClientConfig TrainingClient(ModelId model) {
  ClientConfig client;
  client.workload = orion::workloads::MakeWorkload(model, TaskType::kTraining);
  client.arrivals = ClientConfig::Arrivals::kClosedLoop;
  return client;
}

std::string RunLabel(const ExperimentConfig& config) {
  std::string label;
  for (const ClientConfig& client : config.clients) {
    label += orion::workloads::WorkloadName(client.workload) +
             (client.high_priority ? "/hp+" : "/be+");
  }
  return label + orion::harness::SchedulerKindName(config.scheduler);
}

SimRun ExperimentRun(ExperimentConfig config, bool model_metric) {
  SimRun run;
  run.label = RunLabel(config);
  run.kind = RunKind::kExperiment;
  run.experiment = std::move(config);
  run.model_metric = model_metric;
  return run;
}

// Figure 6 shape: every paper model as an Apollo-driven hp inference client
// against every paper model's training job, under the six techniques of the
// collocation matrix.
void CollocSweep(std::uint64_t seed, Workload* w) {
  const SchedulerKind schedulers[] = {SchedulerKind::kDedicated, SchedulerKind::kTemporal,
                                      SchedulerKind::kStreams,   SchedulerKind::kMps,
                                      SchedulerKind::kReef,      SchedulerKind::kOrion};
  std::uint64_t pair = 0;
  for (const ModelId hp_model : orion::workloads::kAllModels) {
    const ClientConfig hp = InferenceClient(
        hp_model, ClientConfig::Arrivals::kApollo,
        orion::trace::RequestsPerSecond(hp_model, orion::trace::CollocationCase::kInfTrainPoisson),
        /*high_priority=*/true);
    for (const ModelId be_model : orion::workloads::kAllModels) {
      const ClientConfig be = TrainingClient(be_model);
      w->kernel_pairs.emplace_back(hp.workload, be.workload);
      // One seed per pair: every technique sees the same arrival sample.
      const std::uint64_t pair_seed = RunSeed(seed, pair++);
      for (const SchedulerKind scheduler : schedulers) {
        ExperimentConfig config;
        config.device = w->device;
        config.scheduler = scheduler;
        config.warmup_us = kCollocWarmupUs;
        config.duration_us = kCollocDurationUs;
        config.seed = pair_seed;
        config.clients = {hp, be};
        w->runs.push_back(ExperimentRun(std::move(config), scheduler == SchedulerKind::kOrion));
      }
    }
  }
}

// ext_memory_oversub shape: the train and infer mixes at 1.0x and 2.0x
// oversubscription under mps, nvshare-tq and orion with the pager on. Each
// 1.0x run also runs with the pager off; the two must agree exactly.
void OversubPaging(std::uint64_t seed, Workload* w) {
  struct Mix {
    ClientConfig hp;
    ClientConfig be;
    double window_scale;
  };
  std::vector<Mix> mixes(2);
  mixes[0].hp.workload = orion::workloads::MakeWorkload(ModelId::kMobileNetV2, TaskType::kTraining, 32);
  mixes[0].hp.high_priority = true;
  mixes[0].be.workload = orion::workloads::MakeWorkload(ModelId::kResNet101, TaskType::kTraining, 32);
  mixes[0].be.paging_ws_fraction = 0.58;
  mixes[0].window_scale = 4.0;
  mixes[1].hp = InferenceClient(ModelId::kMobileNetV2, ClientConfig::Arrivals::kClosedLoop, 0.0,
                                /*high_priority=*/true);
  mixes[1].be.workload = orion::workloads::MakeWorkload(ModelId::kResNet101, TaskType::kInference, 16);
  mixes[1].be.paging_ws_fraction = 0.60;
  mixes[1].window_scale = 1.0;

  std::uint64_t index = 0;
  for (const Mix& mix : mixes) {
    w->kernel_pairs.emplace_back(mix.hp.workload, mix.be.workload);
    const auto pages = [](std::size_t bytes) {
      return (bytes + kPageBytes - 1) / kPageBytes * kPageBytes;
    };
    const std::size_t aggregate = pages(orion::workloads::ApproxModelStateBytes(mix.hp.workload)) +
                                  pages(orion::workloads::ApproxModelStateBytes(mix.be.workload));
    for (const double nominal : {1.0, 2.0}) {
      const std::uint64_t run_seed = RunSeed(seed, index++);
      // Closed-loop clients draw no random numbers, so the seed also draws
      // the oversubscribed point's factor from [1.98, 2.02]; 1.0x stays exact
      // so the pager's inertness check applies.
      const double factor =
          nominal == 1.0 ? 1.0 : nominal * orion::Rng(run_seed).UniformDouble(0.99, 1.01);
      for (const SchedulerKind scheduler :
           {SchedulerKind::kMps, SchedulerKind::kTimeQuantum, SchedulerKind::kOrion}) {
        ExperimentConfig config;
        config.device = w->device;
        config.device.memory_bytes =
            static_cast<std::size_t>(static_cast<double>(aggregate) / factor) / kPageBytes *
            kPageBytes;
        config.scheduler = scheduler;
        config.seed = run_seed;
        config.warmup_us = mix.window_scale * kOversubWarmupUs;
        config.duration_us = mix.window_scale * kOversubDurationUs;
        config.clients = {mix.hp, mix.be};
        config.paging.enabled = true;
        if (scheduler == SchedulerKind::kOrion) {
          config.paging.pin_high_priority = true;
          config.pcie_priority_scheduling = true;
        }
        ExperimentConfig plain = config;
        w->runs.push_back(ExperimentRun(std::move(config), scheduler != SchedulerKind::kMps));
        if (factor == 1.0) {
          plain.paging = orion::memsub::PagingOptions{};
          SimRun twin = ExperimentRun(std::move(plain), /*model_metric=*/false);
          twin.label += "/paging-off";
          w->runs.back().paging_off_twin = static_cast<int>(w->runs.size());
          w->runs.push_back(std::move(twin));
        }
      }
    }
  }
}

orion::datacenter::ClusterConfig BaseCluster(std::uint64_t seed) {
  orion::datacenter::ClusterConfig config;
  config.cluster.num_nodes = 4;
  config.cluster.gpus_per_node = 2;
  config.lp_threads = 1;
  config.serving.warmup_us = kClusterWarmupUs;
  config.serving.duration_us = kClusterDurationUs;
  config.serving.seed = seed;
  return config;
}

SimRun ClusterRun(std::string label, orion::datacenter::ClusterConfig config) {
  SimRun run;
  run.label = std::move(label);
  run.kind = RunKind::kCluster;
  run.cluster = std::move(config);
  run.model_metric = true;
  return run;
}

// ext_datacenter_serving shape: the three-service diurnal mix on 4 nodes x
// 2 GPUs with the autoscaler on, and the kill-a-node failover run.
void ClusterServing(std::uint64_t seed, Workload* w) {
  using orion::serving::ModelServiceConfig;
  using orion::serving::PriorityTier;
  {
    orion::datacenter::ClusterConfig config = BaseCluster(RunSeed(seed, 0));
    const DurationUs day = config.serving.duration_us;
    orion::trace::DiurnalShape shape;
    shape.period_us = day;
    shape.peak_to_trough = 3.0;
    orion::trace::DiurnalMix mix(shape);
    orion::trace::DiurnalConfig resnet;
    resnet.mean_rps = 500.0;
    resnet.burst.burst_factor = 3.0;
    resnet.burst.burst_fraction = 0.1;
    resnet.burst.mean_burst_us = day / 100.0;
    mix.AddService("resnet50", resnet);
    orion::trace::DiurnalConfig bert;
    bert.mean_rps = 30.0;
    bert.shape.phase_rad = 2.0;
    mix.AddService("bert", bert);
    orion::trace::DiurnalConfig mobilenet;
    mobilenet.mean_rps = 200.0;
    mobilenet.shape.phase_rad = 4.0;
    mix.AddService("mobilenet", mobilenet);
    const auto diurnal = [&](ModelId model, PriorityTier tier, DurationUs slo_us, std::size_t i) {
      ModelServiceConfig cfg;
      cfg.workload = orion::workloads::MakeWorkload(model, TaskType::kInference);
      cfg.tier = tier;
      cfg.slo_us = slo_us;
      cfg.arrivals = orion::serving::ArrivalKind::kDiurnal;
      cfg.diurnal = mix.service_config(i);
      cfg.rps = cfg.diurnal.mean_rps;
      cfg.initial_replicas = 2;
      cfg.max_replicas = 8;
      return cfg;
    };
    config.serving.models = {
        diurnal(ModelId::kResNet50, PriorityTier::kLatencyCritical, MsToUs(60.0), 0),
        diurnal(ModelId::kBert, PriorityTier::kBestEffort, MsToUs(500.0), 1),
        diurnal(ModelId::kMobileNetV2, PriorityTier::kLatencyCritical, MsToUs(40.0), 2),
    };
    config.serving.autoscaler.enabled = true;
    config.serving.autoscaler.eval_period_us = day / 50.0;
    w->runs.push_back(ClusterRun("diurnal-mix/autoscaled", std::move(config)));
  }
  {
    orion::datacenter::ClusterConfig config = BaseCluster(RunSeed(seed, 1));
    ModelServiceConfig resnet;
    resnet.workload = orion::workloads::MakeWorkload(ModelId::kResNet50, TaskType::kInference);
    resnet.tier = PriorityTier::kLatencyCritical;
    resnet.slo_us = MsToUs(60.0);
    resnet.rps = 180.0 * config.cluster.num_nodes;
    resnet.initial_replicas = 2 * config.cluster.num_nodes;
    resnet.max_replicas = 2 * config.cluster.num_nodes + 2;
    config.serving.models = {resnet};
    orion::fault::FaultEvent death;
    death.kind = orion::fault::FaultKind::kNodeDown;
    death.at_us = config.serving.warmup_us + config.serving.duration_us / 3.0;
    death.node = 1;
    config.serving.fault_plan.events.push_back(death);
    w->runs.push_back(ClusterRun("resnet50/node-down", std::move(config)));
  }
}

}  // namespace

double SimRun::SimSeconds() const {
  const DurationUs us = kind == RunKind::kExperiment
                            ? experiment.warmup_us + experiment.duration_us
                            : cluster.serving.warmup_us + cluster.serving.duration_us;
  return orion::UsToSec(us);
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"colloc_sweep", "oversub_paging",
                                                  "cluster_serving"};
  return kNames;
}

bool MakeWorkload(const std::string& name, std::uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "colloc_sweep") {
    CollocSweep(seed, &w);
  } else if (name == "oversub_paging") {
    OversubPaging(seed, &w);
  } else if (name == "cluster_serving") {
    ClusterServing(seed, &w);
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

}  // namespace perfbench
