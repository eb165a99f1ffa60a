// Extension bench (paper §5.1.3): memory oversubscription for collocations
// that exceed GPU memory.
//
// Two big-batch training jobs (~20 GB aggregate) share a 16 GB V100. The
// high-priority job's state is pinned device-resident (Orion's §5.1.3
// stance); the best-effort job's state is demand-paged by the unified-memory
// pager (src/memsub), so its per-iteration swap traffic is *measured* —
// page faults riding the real copy engine — rather than assumed. The
// closed-form prediction (stream exactly the memory deficit per iteration,
// perfectly overlapped) is kept as the `deficit_GB` cross-check column: it
// is the lower bound an ideal layer-by-layer prefetcher would pay, while the
// pager shows what LRU demand paging actually costs once the best-effort
// job's cyclic scan stops fitting (every touched page misses — the
// sequential-scan pathology that motivates nvshare's time-quantum fallback,
// see bench/ext_memory_oversub).
#include <iostream>

#include "bench/bench_util.h"

using namespace orion;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(&argc, argv);
  bench::PrintHeader("Extension (Section 5.1.3)", "memory swapping for oversized collocations");

  Table table({"batch", "aggregate_GB", "deficit_GB", "paged_GB/it", "faults/it", "hp_it/s",
               "hp_vs_ideal", "be_it/s"});
  for (int batch : {32, 40, 48, 56}) {
    harness::ClientConfig hp;
    hp.workload =
        workloads::MakeWorkload(workloads::ModelId::kResNet50, workloads::TaskType::kTraining,
                                batch);
    hp.high_priority = true;
    harness::ClientConfig be;
    be.workload = workloads::MakeWorkload(workloads::ModelId::kResNet101,
                                          workloads::TaskType::kTraining, batch);

    harness::ExperimentConfig config;
    config.seed = bench::GlobalBenchArgs().seed;
    config.warmup_us = bench::WarmupWindowUs();
    config.duration_us = bench::MeasureWindowUs();
    config.clients = {hp, be};

    config.scheduler = harness::SchedulerKind::kDedicated;
    const auto ideal = harness::RunExperiment(config);

    config.scheduler = harness::SchedulerKind::kOrion;
    config.paging.enabled = true;
    config.paging.pin_high_priority = true;
    // §5.1.3's other half: without PCIe priority the hp job's input copies
    // share the link fairly with the scan's paging flood.
    config.pcie_priority_scheduling = true;
    // §5.1.1: the hp job trains, so SM_THRESHOLD is tuned — on the paged
    // configuration itself, since an oversized pair only runs with paging.
    config.orion.sm_threshold = harness::TuneSmThreshold(config).best_threshold;
    const auto orion = harness::RunExperiment(config);

    const double aggregate_gb =
        (static_cast<double>(workloads::ApproxModelStateBytes(hp.workload)) +
         static_cast<double>(workloads::ApproxModelStateBytes(be.workload))) /
        1e9;
    // Pager telemetry, normalised per best-effort iteration. The hp job is
    // pinned, so every fault below belongs to the best-effort scan.
    const harness::ClientResult* be_result = nullptr;
    for (const auto& client : orion.clients) {
      if (!client.high_priority) {
        be_result = &client;
      }
    }
    const double be_iters =
        be_result != nullptr ? static_cast<double>(be_result->completed_total) : 0.0;
    const double paged_gb_per_it =
        be_iters > 0.0 ? static_cast<double>(orion.paging.fault_bytes_h2d +
                                             orion.paging.writeback_bytes_d2h) /
                             1e9 / be_iters
                       : 0.0;
    const double faults_per_it =
        be_iters > 0.0 ? static_cast<double>(orion.paging.faults) / be_iters : 0.0;
    table.AddRow({Cell(batch), Cell(aggregate_gb, 1),
                  Cell(static_cast<double>(orion.memory_deficit_bytes) / 1e9, 1),
                  Cell(paged_gb_per_it, 1), Cell(faults_per_it, 0),
                  Cell(orion.hp().throughput_rps, 2),
                  Cell(orion.hp().throughput_rps / ideal.hp().throughput_rps, 2),
                  Cell(bench::BeThroughput(orion), 2)});
  }
  table.Print(std::cout);
  std::cout << "\nOnce the pair stops fitting (deficit > 0), the best-effort job pays PCIe\n"
               "time for its measured page faults while the pinned high-priority job stays\n"
               "protected by Orion's policy. `deficit_GB` is the closed-form lower bound\n"
               "(stream exactly the overflow, perfectly overlapped); `paged_GB/it` is what\n"
               "LRU demand paging actually moves — a cyclic scan that exceeds its frames\n"
               "misses on every page, so the gap between the columns is the price of\n"
               "demand paging over ideal prefetching (§5.1.3 discussion).\n";
  return 0;
}
