// §6.5 overheads: end-to-end latency of every workload on a dedicated GPU
// submitted directly vs through Orion's interception + scheduler path with no
// best-effort clients. The paper reports <1% overhead; in the simulator the
// scheduling decisions add no device time, so the delta shows the policy
// itself does not reorder/stall a lone high-priority job.
//
// The wall-clock cost of the host-side hot paths (event dispatch, the device
// kernel cycle, the Orion enqueue decision) is measured by perf_sim_core and
// gated against BENCH_simcore.json.
#include <algorithm>
#include <iostream>
#include <limits>

#include "bench/bench_util.h"

using namespace orion;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  bench::PrintHeader("Overheads (Section 6.5)", "kernel-launch interception");
  Table table({"workload", "direct_ms", "intercepted_ms", "overhead_%"});
  bool below_1pct = true;
  std::size_t sample = std::numeric_limits<std::size_t>::max();  // fewest behind a p50
  for (auto model : workloads::kAllModels) {
    for (auto task : {workloads::TaskType::kInference, workloads::TaskType::kTraining}) {
      const auto workload = workloads::MakeWorkload(model, task);

      harness::ExperimentConfig config;
      config.warmup_us = SecToUs(0.5);
      config.duration_us = SecToUs(5.0);
      harness::ClientConfig client;
      client.workload = workload;
      client.high_priority = true;
      client.arrivals = trace::ArrivalKind::kClosedLoop;
      config.clients = {client};

      config.scheduler = harness::SchedulerKind::kDedicated;
      const auto direct = harness::RunExperiment(config);
      config.scheduler = harness::SchedulerKind::kOrion;
      const auto intercepted = harness::RunExperiment(config);

      const double d = direct.hp().latency.p50();
      const double i = intercepted.hp().latency.p50();
      const double overhead_pct = 100.0 * (i - d) / d;
      below_1pct = below_1pct && overhead_pct < 1.0;
      sample = std::min({sample, direct.hp().latency.count(), intercepted.hp().latency.count()});
      table.AddRow({workloads::WorkloadName(workload), Cell(UsToMs(d), 3),
                    Cell(UsToMs(i), 3), Cell(overhead_pct, 2)});
    }
  }
  table.Print(std::cout);
  std::cout << "\n(paper: <1% across all jobs)\n\n";
  bench::PrintAcceptance("overhead", {{"interception-overhead<1%@every-job", below_1pct, sample}});
  return 0;
}
