// Extension bench (paper §7): CUDA graphs vs interception granularity.
//
// CUDA graphs submit whole kernel graphs with one host call — great for
// launch overhead, but an intercepting scheduler can then only gate graphs,
// not kernels. This bench quantifies both sides of the trade the paper's
// Discussion describes:
//   1. dedicated runs: graphs cut host launch overhead (bigger effect the
//      more host-bound the job is),
//   2. collocation: a best-effort job submitting graphs loses Orion's
//      fine-grained interleaving (the policy judges 32-kernel blobs), so
//      either the hp job's tail or the best-effort throughput suffers.
// The paper proposes implementing Orion's policy at the driver level to
// interleave kernels from multiple graphs; this bench is the quantitative
// case for that. CI greps the ACCEPTANCE line.
#include <algorithm>
#include <cstddef>
#include <iostream>

#include "bench/bench_util.h"

using namespace orion;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  bench::PrintHeader("Extension (Section 7)", "CUDA graphs vs kernel-level interception");

  // --- Part 1: dedicated host-overhead savings. ---
  std::cout << "-- dedicated runs: per-request p50 with eager launches vs captured graphs\n";
  Table table({"workload", "host_overhead_us", "eager_ms", "graphs_ms", "speedup"});
  // The most host-bound row: MobileNetV2's short kernels at 20 us overhead.
  bool host_bound_faster = false;
  std::size_t host_bound_sample = 0;  // fewest latencies behind those p50s
  for (auto overhead : {6.0, 20.0}) {
    for (auto model : {workloads::ModelId::kMobileNetV2, workloads::ModelId::kResNet50}) {
      harness::ExperimentConfig config;
      config.seed = bench::GlobalBenchArgs().seed;
      config.scheduler = harness::SchedulerKind::kDedicated;
      config.warmup_us = SecToUs(0.3);
      config.duration_us = SecToUs(4.0);
      config.launch_overhead_us = overhead;
      harness::ClientConfig client;
      client.workload = workloads::MakeWorkload(model, workloads::TaskType::kInference);
      client.high_priority = true;
      config.clients = {client};
      const auto eager = harness::RunExperiment(config);
      config.clients[0].use_cuda_graphs = true;
      const auto graphs = harness::RunExperiment(config);
      if (overhead == 20.0 && model == workloads::ModelId::kMobileNetV2) {
        host_bound_faster = graphs.hp().latency.p50() < eager.hp().latency.p50();
        host_bound_sample = std::min(graphs.hp().latency.count(), eager.hp().latency.count());
      }
      table.AddRow({workloads::WorkloadName(client.workload), Cell(overhead, 0),
                    Cell(UsToMs(eager.hp().latency.p50()), 2),
                    Cell(UsToMs(graphs.hp().latency.p50()), 2),
                    Cell(eager.hp().latency.p50() / graphs.hp().latency.p50(), 2)});
    }
  }
  table.Print(std::cout);

  // --- Part 2: what graphs cost the scheduler. ---
  std::cout << "\n-- inf-train under Orion: best-effort trainer eager vs graph-captured\n";
  harness::ExperimentConfig config;
  config.seed = bench::GlobalBenchArgs().seed;
  config.scheduler = harness::SchedulerKind::kOrion;
  config.warmup_us = bench::WarmupWindowUs();
  config.duration_us = bench::MeasureWindowUs();
  config.clients.push_back(bench::InferenceClient(
      workloads::ModelId::kResNet50, trace::ArrivalKind::kPoisson,
      trace::RequestsPerSecond(workloads::ModelId::kResNet50,
                               trace::CollocationCase::kInfTrainPoisson),
      true));
  config.clients.push_back(bench::TrainingClient(workloads::ModelId::kResNet50, false));

  Table coll({"be_submission", "hp_p99_ms", "be_it/s"});
  const auto eager = harness::RunExperiment(config);
  config.clients[1].use_cuda_graphs = true;
  const auto graphs = harness::RunExperiment(config);
  coll.AddRow({"eager (per kernel)", Cell(UsToMs(eager.hp().latency.p99()), 2),
               Cell(bench::BeThroughput(eager), 2)});
  coll.AddRow({"cuda graphs (32-kernel)", Cell(UsToMs(graphs.hp().latency.p99()), 2),
               Cell(bench::BeThroughput(graphs), 2)});
  coll.Print(std::cout);
  std::cout << "\nGraphs help a job running alone but blunt the interception point:\n"
            << "Orion can only gate whole graphs, so collocation quality drops — the\n"
            << "paper's argument for pushing the policy into the driver/hardware.\n";
  const bool hp_p99_rises = graphs.hp().latency.p99() > eager.hp().latency.p99();
  bench::PrintAcceptance(
      "cuda-graphs",
      {{"host-bound-dedicated-faster", host_bound_faster, host_bound_sample},
       {"orion-hp-p99-rises", hp_p99_rises,
        std::min(graphs.hp().latency.count(), eager.hp().latency.count())}});
  return 0;
}
