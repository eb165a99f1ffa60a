// Extension bench (latency attribution study): the SLO-miss blame ledger
// must point at the right subsystem as the bottleneck moves.
//
// Three single-knob regimes run the same harness with attribution enabled
// (DESIGN.md §15) and check that the dominant blame phase of the
// high-priority service's missed requests tracks the injected bottleneck:
//
//   * queue-bound        — the hp service alone, offered 2x its measured
//                          dedicated capacity: misses are waiting-in-line,
//                          blame must land on kQueue.
//   * interference-bound — a closed-loop hp service collocated with a
//                          ResNet101 training tenant under plain stream
//                          sharing (fits in memory, so no paging): misses
//                          are head-of-line blocking behind the tenant's
//                          multi-ms kernels, blame must land on
//                          kInterference.
//   * paging-bound       — a large-footprint hp service alone on a device
//                          with memory for only 60% of its state, pager on
//                          without pinning: every request re-faults its
//                          working set over PCIe, blame must land on
//                          kPaging.
//
// A fourth arm checks the observer contract: the same collocation run with
// attribution on, attribution off, and no telemetry hub at all must agree
// bit-for-bit on completions and latency percentiles (the ledger never feeds
// back into the simulation). CI greps the ACCEPTANCE line.
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"

using namespace orion;

namespace {

// Dedicated-GPU baseline of one client: measured capacity (closed-loop
// throughput) and p50 latency, the anchors the regimes' offered load and SLO
// are set from.
struct Baseline {
  double capacity_rps = 0.0;
  DurationUs p50_us = 0.0;
};

Baseline MeasureDedicated(const harness::ClientConfig& client) {
  harness::ExperimentConfig config;
  config.scheduler = harness::SchedulerKind::kDedicated;
  config.warmup_us = bench::WarmupWindowUs();
  config.duration_us = bench::MeasureWindowUs();
  config.seed = bench::GlobalBenchArgs().seed;
  harness::ClientConfig closed = client;
  closed.arrivals = trace::ArrivalKind::kClosedLoop;
  closed.rps = 0.0;
  config.clients = {closed};
  const harness::ExperimentResult result = harness::RunExperiment(config);
  Baseline baseline;
  baseline.capacity_rps = result.clients[0].throughput_rps;
  baseline.p50_us = result.clients[0].latency.p50();
  return baseline;
}

struct Regime {
  std::string name;
  attribution::Phase expected = attribution::Phase::kQueue;
  harness::ExperimentConfig config;
  std::string hp_label;  // service name in the attribution registry
};

struct RegimeOutcome {
  harness::ExperimentResult result;
  attribution::Phase blame = attribution::Phase::kExecute;
  std::size_t misses = 0;
  bool ok = false;
};

RegimeOutcome RunRegime(const Regime& regime, telemetry::Hub* hub) {
  RegimeOutcome outcome;
  harness::ExperimentConfig config = regime.config;
  config.telemetry = hub;
  outcome.result = harness::RunExperiment(config);
  if (hub != nullptr && hub->attribution_enabled()) {
    const attribution::ScopeStats& e2e =
        hub->attribution().Service(regime.hp_label).e2e();
    outcome.blame = e2e.DominantBlame();
    outcome.misses = e2e.misses;
    outcome.ok = outcome.misses > 0 && outcome.blame == regime.expected;
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv, bench::kTraceOut | bench::kMetricsOut | bench::kAttrOut);
  bench::PrintHeader("Extension (latency attribution)",
                     "SLO-miss blame ledger vs injected bottleneck");

  // --- Anchor each regime's load and SLO on measured dedicated baselines. ---
  harness::ClientConfig queue_hp = bench::InferenceClient(
      workloads::ModelId::kResNet50, trace::ArrivalKind::kPoisson,
      0.0, /*high_priority=*/true);
  // The collocated regimes run closed-loop (one request in flight, next
  // issued on completion): client-side queueing stays near zero, so the
  // miss blame isolates the injected bottleneck rather than the backlog
  // that any slow request accumulates behind an open arrival process.
  harness::ClientConfig interference_hp = bench::InferenceClient(
      workloads::ModelId::kMobileNetV2, trace::ArrivalKind::kClosedLoop,
      0.0, /*high_priority=*/true);
  harness::ClientConfig paging_hp = bench::InferenceClient(
      workloads::ModelId::kBert, trace::ArrivalKind::kClosedLoop,
      0.0, /*high_priority=*/true);
  const Baseline queue_base = MeasureDedicated(queue_hp);
  const Baseline interference_base = MeasureDedicated(interference_hp);
  const Baseline paging_base = MeasureDedicated(paging_hp);

  harness::ClientConfig train_be;
  train_be.workload = workloads::MakeWorkload(workloads::ModelId::kResNet101,
                                              workloads::TaskType::kTraining, 32);
  train_be.paging_ws_fraction = 0.6;

  std::vector<Regime> regimes;
  {
    // 2x overload, nobody else on the GPU: pure queueing delay.
    Regime regime;
    regime.name = "queue-bound";
    regime.expected = attribution::Phase::kQueue;
    queue_hp.rps = 2.0 * queue_base.capacity_rps;
    queue_hp.slo_us = 3.0 * queue_base.p50_us;
    regime.config.scheduler = harness::SchedulerKind::kMps;
    regime.config.clients = {queue_hp};
    regime.hp_label = workloads::WorkloadName(queue_hp.workload) + "/hp";
    regimes.push_back(std::move(regime));
  }
  {
    // Closed loop, heavyweight training tenant, everything fits in memory.
    // Plain stream sharing has no priorities, so the small hp kernels queue
    // behind the tenant's multi-ms training kernels (the paper's Fig. 7
    // head-of-line blocking): the service window stretches far past the
    // isolated cost.
    Regime regime;
    regime.name = "interference-bound";
    regime.expected = attribution::Phase::kInterference;
    interference_hp.slo_us = 1.25 * interference_base.p50_us;
    regime.config.scheduler = harness::SchedulerKind::kStreams;
    regime.config.clients = {interference_hp, train_be};
    regime.hp_label = workloads::WorkloadName(interference_hp.workload) + "/hp";
    regimes.push_back(std::move(regime));
  }
  {
    // The large-footprint hp service alone on a device with memory for only
    // 60% of its state, pager on with no pinning: the cyclic working-set
    // scan against a smaller LRU re-faults every page of every request (the
    // sequential-scan pathology), so the miss is pure PCIe fault stall with
    // no collocated tenant to share the blame.
    Regime regime;
    regime.name = "paging-bound";
    regime.expected = attribution::Phase::kPaging;
    paging_hp.slo_us = 1.5 * paging_base.p50_us;
    regime.config.scheduler = harness::SchedulerKind::kMps;
    regime.config.clients = {paging_hp};
    const std::size_t footprint = bench::PagedStateBytes(paging_hp.workload);
    regime.config.device.memory_bytes =
        static_cast<std::size_t>(footprint * 0.6) / memsub::kPageBytes * memsub::kPageBytes;
    regime.config.paging.enabled = true;
    regime.hp_label = workloads::WorkloadName(paging_hp.workload) + "/hp";
    regimes.push_back(std::move(regime));
  }
  for (Regime& regime : regimes) {
    regime.config.warmup_us = bench::WarmupWindowUs();
    regime.config.duration_us = bench::MeasureWindowUs();
    regime.config.seed = bench::GlobalBenchArgs().seed;
  }

  // --- Blame arms: one shared hub so --attr-out exports all regimes. ---
  telemetry::Hub hub;
  bench::EnableRequestedTelemetry(hub);
  hub.EnableAttribution();
  Table table({"regime", "completed", "misses", "hp p50 ms", "hp p99 ms",
               "dominant blame", "expected", "ok"});
  std::vector<bool> regime_ok;
  std::vector<RegimeOutcome> outcomes;
  for (const Regime& regime : regimes) {
    RegimeOutcome outcome = RunRegime(regime, &hub);
    const harness::ClientResult& hp = outcome.result.hp();
    table.AddRow({regime.name, Cell(hp.completed), Cell(outcome.misses),
                  Cell(UsToMs(hp.latency.p50()), 2), Cell(UsToMs(hp.latency.p99()), 2),
                  attribution::PhaseName(outcome.blame),
                  attribution::PhaseName(regime.expected), bench::YesNo(outcome.ok)});
    regime_ok.push_back(outcome.ok);
    outcomes.push_back(std::move(outcome));
  }
  table.Print(std::cout);
  std::cout << "\n";

  // --- Observer contract: attribution must not perturb the simulation. ---
  // The interference regime reruns (a) with a fresh attribution-enabled hub,
  // (b) with a hub whose attribution is off, (c) with no hub; all three and
  // the blame arm above must agree bit-for-bit.
  bool inert_ok = true;
  {
    const Regime& regime = regimes[1];
    telemetry::Hub attr_hub;
    attr_hub.EnableAttribution();
    telemetry::Hub plain_hub;
    const RegimeOutcome with_attr = RunRegime(regime, &attr_hub);
    const RegimeOutcome with_hub = RunRegime(regime, &plain_hub);
    const RegimeOutcome bare = RunRegime(regime, nullptr);
    const harness::ClientResult& blame_hp = outcomes[1].result.hp();
    for (const RegimeOutcome* other : {&with_attr, &with_hub, &bare}) {
      const harness::ClientResult& hp = other->result.hp();
      // Exact double equality on purpose: the ledger is a pure observer, so
      // instrumented runs must replay the identical event sequence.
      if (hp.completed != blame_hp.completed ||
          hp.latency.p50() != blame_hp.latency.p50() ||
          hp.latency.p99() != blame_hp.latency.p99() ||
          hp.slo_misses != blame_hp.slo_misses) {
        inert_ok = false;
      }
    }
    std::cout << "observer contract (attr-on vs attr-off vs no hub, bitwise): "
              << (inert_ok ? "bit-identical" : "DIVERGED") << "\n\n";
  }

  bench::ExportTelemetry(hub);

  bench::PrintAcceptance("attribution", {{"queue-bound", regime_ok[0]},
                                         {"interference-bound", regime_ok[1]},
                                         {"paging-bound", regime_ok[2]},
                                         {"inert", inert_ok}});
  return 0;
}
