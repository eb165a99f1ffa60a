// Extension bench: datacenter-scale serving (src/datacenter, DESIGN.md §12).
// Three arms over the two-level control plane (global front-end router over
// per-node engines joined by a NIC/ToR star network):
//
//   1. Node-count scaling sweep — the same per-node load served by 1..8
//      nodes x 2 GPUs: SLO attainment holds as the cluster grows, request
//      and response traffic scale with the node count, and the N=1 row is
//      exactly the single-node serving engine.
//   2. Kill-a-node failover — one of four nodes dies a third into the
//      window: its NIC goes dark (in-flight transfers abort and re-route),
//      every replica on it is lost, survivors absorb the orphans and
//      replacements provision across the network.
//   3. Diurnal 24h-compressed mix — three services with staggered diurnal
//      peaks (trace::DiurnalMix) plus MMPP bursts, a full synthetic "day"
//      compressed into the measurement window.
//
// Deterministic: same seed, same tables. `--quick` shrinks the windows for
// the CI smoke run.
#include <iostream>

#include "bench/bench_util.h"
#include "src/datacenter/cluster.h"
#include "src/serving/serving.h"
#include "src/trace/diurnal.h"

using namespace orion;

namespace {

using workloads::MakeWorkload;
using workloads::ModelId;
using workloads::TaskType;

serving::ModelServiceConfig ResNetService(double rps, int replicas, int max_replicas) {
  serving::ModelServiceConfig cfg;
  cfg.workload = MakeWorkload(ModelId::kResNet50, TaskType::kInference);
  cfg.tier = serving::PriorityTier::kLatencyCritical;
  cfg.slo_us = MsToUs(60.0);
  cfg.rps = rps;
  cfg.initial_replicas = replicas;
  cfg.max_replicas = max_replicas;
  return cfg;
}

datacenter::ClusterConfig BaseCluster(int num_nodes, double rps_per_node) {
  datacenter::ClusterConfig config;
  config.cluster.num_nodes = num_nodes;
  config.cluster.gpus_per_node = 2;
  config.serving.warmup_us = bench::WarmupWindowUs();
  config.serving.duration_us = bench::MeasureWindowUs();
  config.serving.seed = bench::GlobalBenchArgs().seed;
  // One replica per GPU so every node carries load from the start.
  config.serving.models = {ResNetService(rps_per_node * num_nodes,
                                         /*replicas=*/2 * num_nodes,
                                         /*max_replicas=*/2 * num_nodes + 2)};
  return config;
}

const serving::ModelServingResult& Hp(const datacenter::ClusterResult& result) {
  return result.serving.models[0];
}

void ScalingArm() {
  std::cout << "-- Arm 1: node-count scaling sweep --\n"
            << "ResNet50 (hp, Poisson, 60 ms SLO) at 180 rps per node, one replica\n"
            << "per GPU, 2 GPUs per node. The N=1 row is the single-node serving\n"
            << "engine verbatim (no network is modeled). MB = NIC bytes moved.\n\n";
  Table table({"nodes", "offered rps", "attainment", "p50 ms", "p99 ms", "forwarded",
               "req MB", "resp MB"});
  for (const int nodes : {1, 2, 4, 8}) {
    const datacenter::ClusterResult result = datacenter::RunCluster(BaseCluster(nodes, 180.0));
    table.AddRow({Cell(nodes), Cell(180.0 * nodes, 0), Cell(Hp(result).slo_attainment),
                  Cell(UsToMs(Hp(result).latency.p50())),
                  Cell(UsToMs(Hp(result).latency.p99())), Cell(result.requests_forwarded),
                  Cell(result.request_bytes_moved / 1e6, 1),
                  Cell(result.response_bytes_moved / 1e6, 1)});
  }
  table.Print(std::cout);
}

void NodeFailoverArm() {
  std::cout << "\n-- Arm 2: kill a node mid-run --\n"
            << "4 nodes x 3 GPUs (the fleet fills 8 of 12, leaving free GPUs for\n"
            << "re-placement); node 1 dies a third into the window. Its NIC goes\n"
            << "dark, in-flight transfers abort and re-route, every replica on it\n"
            << "is lost, and replacements provision on survivors' free GPUs.\n\n";
  Table table({"arm", "attainment", "p99 ms", "failed over", "dropped", "replacements",
               "nodes alive"});
  for (const bool kill : {false, true}) {
    datacenter::ClusterConfig config = BaseCluster(4, 180.0);
    config.cluster.gpus_per_node = 3;
    if (kill) {
      fault::FaultEvent death;
      death.kind = fault::FaultKind::kNodeDown;
      death.at_us = config.serving.warmup_us + config.serving.duration_us / 3.0;
      death.node = 1;
      config.serving.fault_plan.events.push_back(death);
    }
    const datacenter::ClusterResult result = datacenter::RunCluster(config);
    table.AddRow({kill ? "node death" : "healthy", Cell(Hp(result).slo_attainment),
                  Cell(UsToMs(Hp(result).latency.p99())), Cell(Hp(result).failed_over),
                  Cell(Hp(result).dropped), Cell(result.serving.replacements),
                  Cell(result.nodes_alive_end)});
  }
  table.Print(std::cout);
}

void DiurnalArm() {
  std::cout << "\n-- Arm 3: diurnal 24h-compressed mix --\n"
            << "Three services on 4 nodes x 2 GPUs, each with a sinusoidal daily\n"
            << "wave (3:1 peak-to-trough) compressed into the measurement window,\n"
            << "peaks staggered across services, MMPP bursts on the hp service.\n"
            << "The autoscaler rides the wave.\n\n";
  datacenter::ClusterConfig config = BaseCluster(4, 0.0);
  const DurationUs day = config.serving.duration_us;  // a compressed "24h"
  trace::DiurnalShape shape;
  shape.period_us = day;
  shape.peak_to_trough = 3.0;
  trace::DiurnalMix mix(shape);
  trace::DiurnalConfig resnet;
  resnet.mean_rps = 500.0;
  resnet.burst.burst_factor = 3.0;
  resnet.burst.burst_fraction = 0.1;
  resnet.burst.mean_burst_us = day / 100.0;
  mix.AddService("resnet50", resnet);
  trace::DiurnalConfig bert;
  bert.mean_rps = 30.0;
  bert.shape.phase_rad = 2.0;  // peak offset from the resnet wave
  mix.AddService("bert", bert);
  trace::DiurnalConfig mobilenet;
  mobilenet.mean_rps = 200.0;
  mobilenet.shape.phase_rad = 4.0;
  mix.AddService("mobilenet", mobilenet);

  auto Diurnal = [&](ModelId model, serving::PriorityTier tier, DurationUs slo_us,
                     std::size_t i) {
    serving::ModelServiceConfig cfg;
    cfg.workload = MakeWorkload(model, TaskType::kInference);
    cfg.tier = tier;
    cfg.slo_us = slo_us;
    cfg.arrivals = serving::ArrivalKind::kDiurnal;
    cfg.diurnal = mix.service_config(i);
    cfg.rps = cfg.diurnal.mean_rps;
    cfg.initial_replicas = 2;
    cfg.max_replicas = 8;
    return cfg;
  };
  config.serving.models = {
      Diurnal(ModelId::kResNet50, serving::PriorityTier::kLatencyCritical, MsToUs(60.0), 0),
      Diurnal(ModelId::kBert, serving::PriorityTier::kBestEffort, MsToUs(500.0), 1),
      Diurnal(ModelId::kMobileNetV2, serving::PriorityTier::kLatencyCritical, MsToUs(40.0), 2),
  };
  config.serving.autoscaler.enabled = true;
  config.serving.autoscaler.eval_period_us = day / 50.0;

  const datacenter::ClusterResult result = datacenter::RunCluster(config);
  Table table({"service", "mean rps", "offered", "attainment", "p99 ms", "shed",
               "final replicas"});
  for (std::size_t m = 0; m < result.serving.models.size(); ++m) {
    const serving::ModelServingResult& model = result.serving.models[m];
    table.AddRow({mix.service_name(m), Cell(mix.service_config(m).mean_rps, 0),
                  Cell(model.offered), Cell(model.slo_attainment),
                  Cell(UsToMs(model.latency.p99())), Cell(model.shed),
                  Cell(model.final_replicas)});
  }
  table.Print(std::cout);
  std::cout << "\nscale ups: " << result.serving.scale_ups
            << "  scale downs: " << result.serving.scale_downs
            << "  replica-s: " << Cell(result.serving.replica_seconds, 1) << "\n";
}

// Instrumented arm (only with --trace-out / --metrics-out): the failover
// scenario with a telemetry hub attached, so node tracks ("n<i>/gpu<j>"),
// route/dispatch/scale reason attributes and the datacenter.* counters land
// in the exported artefacts.
void TelemetryArm() {
  std::cout << "\n-- Telemetry arm: instrumented node-death run --\n";
  telemetry::Hub hub;
  if (!bench::GlobalBenchArgs().trace_out.empty()) {
    hub.EnableTracing();
  }
  datacenter::ClusterConfig config = BaseCluster(4, 180.0);
  fault::FaultEvent death;
  death.kind = fault::FaultKind::kNodeDown;
  death.at_us = config.serving.warmup_us + config.serving.duration_us / 3.0;
  death.node = 1;
  config.serving.fault_plan.events.push_back(death);
  config.serving.telemetry = &hub;
  const datacenter::ClusterResult result = datacenter::RunCluster(config);
  std::cout << "attainment " << Cell(Hp(result).slo_attainment) << ", "
            << result.requests_forwarded << " requests forwarded, "
            << result.nodes_alive_end << "/4 nodes alive\n";
  bench::ExportTelemetry(hub);
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(&argc, argv);
  bench::PrintHeader("Extension (datacenter serving)",
                     "multi-node clusters, node faults, diurnal load");
  ScalingArm();
  NodeFailoverArm();
  DiurnalArm();
  if (bench::TelemetryRequested()) {
    TelemetryArm();
  }
  return 0;
}
