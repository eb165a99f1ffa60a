// Extension bench: the online serving front-end (src/serving, DESIGN.md §9)
// over the shared-GPU cluster. Four arms:
//
//   1. Load sweep × routing policy — SLO attainment and p99 latency of a
//      two-replica ResNet50 service as offered load grows, under round-robin,
//      least-outstanding and interference-aware routing (a be BERT service
//      shares one of the GPUs, so routing around interference matters).
//   2. Dynamic batching ablation — same service, batching on vs off: the
//      sub-linear roofline batch cost raises capacity at a small latency
//      price at low load.
//   3. Autoscaler ablation — a 3x load step beyond two replicas' capacity,
//      fixed fleet vs autoscaled: attainment recovered vs replica-seconds
//      spent.
//   4. Failover — kill one of the GPUs mid-run: requests fail over to the
//      survivor, a replacement provisions over PCIe, and the SLO-violation
//      spike stays bounded.
//
// Deterministic: same seed, same tables. `--quick` shrinks the windows for
// the CI smoke run. The last line encodes the EXPERIMENTS.md verdicts as
// ACCEPTANCE predicates; CI greps those that hold.
#include <iostream>
#include <vector>

#include "bench/bench_util.h"
#include "src/serving/serving.h"

using namespace orion;

namespace {

using workloads::MakeWorkload;
using workloads::ModelId;
using workloads::TaskType;

serving::ModelServiceConfig ResNetService(double rps, int replicas) {
  serving::ModelServiceConfig cfg;
  cfg.workload = MakeWorkload(ModelId::kResNet50, TaskType::kInference);
  cfg.tier = serving::PriorityTier::kLatencyCritical;
  cfg.slo_us = MsToUs(60.0);
  cfg.rps = rps;
  cfg.initial_replicas = replicas;
  cfg.max_replicas = 4;
  return cfg;
}

serving::ModelServiceConfig BertBackground() {
  serving::ModelServiceConfig cfg;
  cfg.workload = MakeWorkload(ModelId::kBert, TaskType::kInference);
  cfg.tier = serving::PriorityTier::kBestEffort;
  cfg.slo_us = MsToUs(500.0);
  cfg.rps = 15.0;
  cfg.max_replicas = 1;
  return cfg;
}

serving::ServingConfig BaseConfig(double rps) {
  serving::ServingConfig config;
  config.num_gpus = 2;
  config.warmup_us = bench::WarmupWindowUs();
  config.duration_us = bench::MeasureWindowUs();
  config.seed = bench::GlobalBenchArgs().seed;
  config.models = {ResNetService(rps, /*replicas=*/2), BertBackground()};
  return config;
}

const serving::ModelServingResult& Hp(const serving::ServingResult& result) {
  return result.models[0];
}

// Verdicts of the four arms, in EXPERIMENTS.md's words.
struct Acceptance {
  bool all_policies_slo_to_300 = true;  // every policy >= 0.99 at <= 300 rps
  bool ia_ge_lo_ge_rr_at_400 = false;   // attainment order at 400 rps
  bool batching_raises_tput = false;
  bool autoscaler_raises_attainment = false;
  bool gpu_death_drops_0 = false;
};

void LoadSweepArm(Acceptance* acceptance) {
  std::cout << "-- Arm 1: load sweep x routing policy --\n"
            << "ResNet50 (hp, Poisson, 60 ms SLO, 2 replicas / 2 GPUs) with a be\n"
            << "BERT service collocated on one GPU. p99 in ms.\n\n";
  const std::vector<double> loads = {100.0, 200.0, 300.0, 400.0};
  const std::vector<serving::RoutePolicy> policies = {
      serving::RoutePolicy::kRoundRobin, serving::RoutePolicy::kLeastOutstanding,
      serving::RoutePolicy::kInterferenceAware};
  Table table({"offered rps", "policy", "attainment", "p50 ms", "p99 ms", "shed"});
  for (const double rps : loads) {
    std::vector<double> attainment;  // in `policies` order
    for (const serving::RoutePolicy policy : policies) {
      serving::ServingConfig config = BaseConfig(rps);
      config.policy = policy;
      const serving::ServingResult result = serving::RunServing(config);
      attainment.push_back(Hp(result).slo_attainment);
      if (rps <= 300.0 && Hp(result).slo_attainment < 0.99) {
        acceptance->all_policies_slo_to_300 = false;
      }
      table.AddRow({Cell(rps, 0), serving::RoutePolicyName(policy),
                    Cell(Hp(result).slo_attainment), Cell(UsToMs(Hp(result).latency.p50())),
                    Cell(UsToMs(Hp(result).latency.p99())), Cell(Hp(result).shed)});
    }
    if (rps == 400.0) {
      acceptance->ia_ge_lo_ge_rr_at_400 =
          attainment[2] >= attainment[1] && attainment[1] >= attainment[0];
    }
  }
  table.Print(std::cout);
}

void BatchingArm(Acceptance* acceptance) {
  std::cout << "\n-- Arm 2: dynamic batching ablation --\n"
            << "Same service at 300 rps, admission off so capacity is visible\n"
            << "as throughput rather than shed volume.\n\n";
  Table table({"batching", "throughput rps", "mean batch", "attainment", "p99 ms"});
  double throughput_off = 0.0;
  for (const bool enabled : {false, true}) {
    serving::ServingConfig config = BaseConfig(300.0);
    config.admission.enabled = false;
    config.batching.enabled = enabled;
    const serving::ServingResult result = serving::RunServing(config);
    if (enabled) {
      acceptance->batching_raises_tput = Hp(result).throughput_rps > throughput_off;
    } else {
      throughput_off = Hp(result).throughput_rps;
    }
    table.AddRow({enabled ? "on" : "off", Cell(Hp(result).throughput_rps, 1),
                  Cell(Hp(result).mean_batch_size), Cell(Hp(result).slo_attainment),
                  Cell(UsToMs(Hp(result).latency.p99()))});
  }
  table.Print(std::cout);
}

void AutoscalerArm(Acceptance* acceptance) {
  std::cout << "\n-- Arm 3: autoscaler ablation --\n"
            << "Offered load 3x two replicas' unbatched capacity; fixed fleet vs\n"
            << "autoscaled (4 GPUs available). replica-s = active-replica seconds.\n\n";
  Table table({"fleet", "attainment", "p99 ms", "shed", "final replicas", "replica-s"});
  double fixed_attainment = 0.0;
  for (const bool autoscale : {false, true}) {
    serving::ServingConfig config = BaseConfig(600.0);
    config.num_gpus = 4;
    if (autoscale) {
      config.autoscaler.enabled = true;
      config.autoscaler.eval_period_us = SecToUs(0.25);
    }
    const serving::ServingResult result = serving::RunServing(config);
    if (autoscale) {
      acceptance->autoscaler_raises_attainment = Hp(result).slo_attainment > fixed_attainment;
    } else {
      fixed_attainment = Hp(result).slo_attainment;
    }
    table.AddRow({autoscale ? "autoscaled" : "fixed", Cell(Hp(result).slo_attainment),
                  Cell(UsToMs(Hp(result).latency.p99())), Cell(Hp(result).shed),
                  Cell(Hp(result).final_replicas), Cell(result.replica_seconds, 1)});
  }
  table.Print(std::cout);
}

void FailoverArm(Acceptance* acceptance) {
  std::cout << "\n-- Arm 4: failover (kill a GPU mid-run) --\n"
            << "GPU 0 dies a third of the way into the window. Queued and\n"
            << "in-flight requests re-route; a replacement provisions over PCIe.\n\n";
  Table table({"arm", "attainment", "p99 ms", "failed over", "dropped", "replacements"});
  for (const bool kill : {false, true}) {
    serving::ServingConfig config = BaseConfig(250.0);
    config.num_gpus = 3;  // room for the replacement (one hp replica per GPU)
    if (kill) {
      fault::FaultEvent death;
      death.kind = fault::FaultKind::kGpuDown;
      death.at_us = config.warmup_us + config.duration_us / 3.0;
      death.gpu = 0;
      config.fault_plan.events.push_back(death);
    }
    const serving::ServingResult result = serving::RunServing(config);
    if (kill) {
      acceptance->gpu_death_drops_0 = Hp(result).dropped == 0;
    }
    table.AddRow({kill ? "gpu death" : "healthy", Cell(Hp(result).slo_attainment),
                  Cell(UsToMs(Hp(result).latency.p99())), Cell(Hp(result).failed_over),
                  Cell(Hp(result).dropped), Cell(result.replacements)});
  }
  table.Print(std::cout);
}

// Instrumented arm, run only when --trace-out / --metrics-out / --attr-out
// was given: one interference-aware run at 250 rps with a telemetry hub
// attached. The summary rows below are read from the ServingResult, which
// RunServing assembles from the hub's metric registry — so the CSV written
// next to the trace reproduces exactly these numbers.
void TelemetryArm() {
  std::cout << "\n-- Telemetry arm: instrumented run (250 rps, 2 GPUs) --\n";
  telemetry::Hub hub;
  bench::EnableRequestedTelemetry(hub);
  serving::ServingConfig config = BaseConfig(250.0);
  config.telemetry = &hub;
  const serving::ServingResult result = serving::RunServing(config);
  Table table({"service", "offered", "completed", "shed", "dropped",
               "attainment", "p99 ms"});
  for (const serving::ModelServingResult& model : result.models) {
    table.AddRow({model.name, Cell(model.offered), Cell(model.completed),
                  Cell(model.shed), Cell(model.dropped), Cell(model.slo_attainment),
                  Cell(UsToMs(model.latency.p99()))});
  }
  table.Print(std::cout);
  bench::ExportTelemetry(hub);
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv, bench::kTraceOut | bench::kMetricsOut | bench::kAttrOut);
  bench::PrintHeader("Extension (online serving)",
                     "SLO-aware routing, batching, autoscaling and failover");
  Acceptance acceptance;
  LoadSweepArm(&acceptance);
  BatchingArm(&acceptance);
  AutoscalerArm(&acceptance);
  FailoverArm(&acceptance);
  if (bench::TelemetryRequested()) {
    TelemetryArm();
  }
  std::cout << "\n";
  bench::PrintAcceptance(
      "online-serving",
      {{"all-policies-slo@<=300rps", acceptance.all_policies_slo_to_300},
       {"ia>=lo>=rr@400rps", acceptance.ia_ge_lo_ge_rr_at_400},
       {"batching-raises-tput", acceptance.batching_raises_tput},
       {"autoscaler-raises-attainment", acceptance.autoscaler_raises_attainment},
       {"gpu-death-drops-0", acceptance.gpu_death_drops_0}});
  return 0;
}
