// Example: latency-sensitive inference serving with best-effort backfill.
//
// Scenario (the paper's inf-inf use case, §6.2.3): an autonomous-driving
// object detector (ResNet101, Apollo-style arrivals) must meet a p99 SLO; the
// operator wants to harvest the GPU's idle capacity for offline batch
// inference jobs without violating that SLO. We sweep the number of
// best-effort clients and report the SLO headroom and the extra throughput
// Orion extracts, then show what MPS would have done to the SLO.

#include <iostream>

#include "src/common/table.h"
#include "src/harness/experiment.h"
#include "src/trace/request_rates.h"

using namespace orion;

namespace {

harness::ExperimentConfig ServingConfig(int best_effort_clients,
                                        harness::SchedulerKind scheduler) {
  harness::ExperimentConfig config;
  config.scheduler = scheduler;
  config.duration_us = SecToUs(15.0);

  harness::ClientConfig detector;
  detector.workload =
      workloads::MakeWorkload(workloads::ModelId::kResNet101, workloads::TaskType::kInference);
  detector.high_priority = true;
  detector.arrivals = trace::ArrivalKind::kApollo;
  detector.rps = trace::RequestsPerSecond(workloads::ModelId::kResNet101,
                                          trace::CollocationCase::kInfInfUniform);
  config.clients.push_back(detector);

  const workloads::ModelId backfill_models[] = {
      workloads::ModelId::kMobileNetV2, workloads::ModelId::kResNet50,
      workloads::ModelId::kTransformer, workloads::ModelId::kBert};
  for (int i = 0; i < best_effort_clients; ++i) {
    harness::ClientConfig batch;
    batch.workload = workloads::MakeWorkload(backfill_models[i % 4],
                                             workloads::TaskType::kInference);
    batch.high_priority = false;
    batch.arrivals = trace::ArrivalKind::kClosedLoop;  // offline: always busy
    config.clients.push_back(batch);
  }
  return config;
}

}  // namespace

int main() {
  std::cout << "Inference serving with Orion backfill\n"
            << "hp: resnet101 object detection, Apollo-like arrivals; SLO: p99 <= 2x alone\n\n";

  // SLO reference: the detector alone on the GPU.
  const auto alone = harness::RunExperiment(ServingConfig(0, harness::SchedulerKind::kOrion));
  const double slo_ms = 2.0 * UsToMs(alone.hp().latency.p99());
  std::cout << "alone p99: " << UsToMs(alone.hp().latency.p99()) << " ms -> SLO " << slo_ms
            << " ms\n\n";

  Table table({"be_clients", "scheduler", "hp_p99_ms", "SLO_met", "backfill_req_s",
               "gpu_compute_%"});
  for (int n : {1, 2, 4}) {
    for (auto scheduler : {harness::SchedulerKind::kOrion, harness::SchedulerKind::kMps}) {
      const auto result = harness::RunExperiment(ServingConfig(n, scheduler));
      double backfill = 0.0;
      for (const auto& client : result.clients) {
        if (!client.high_priority) {
          backfill += client.throughput_rps;
        }
      }
      const double p99 = UsToMs(result.hp().latency.p99());
      table.AddRow({Cell(n), harness::SchedulerKindName(scheduler), Cell(p99, 2),
                    p99 <= slo_ms ? "yes" : "NO", Cell(backfill, 1),
                    Cell(100.0 * result.utilization.compute, 1)});
    }
  }
  table.Print(std::cout);
  std::cout << "\nOrion keeps the detector inside its SLO while serving offline batches;\n"
               "MPS trades the SLO away for the same backfill.\n";
  return 0;
}
