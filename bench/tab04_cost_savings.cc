// Table 4: cost savings of collocating a Poisson-arrival inference job with
// each training job on one GPU (Orion) versus dedicating a GPU to each.
//
//   cost_savings = 2 * Throughput_collocated / Throughput_dedicated
//
// Paper: training throughput drops ~25-40% under collocation, yielding
// 1.26x-1.49x cost savings. The high-priority inference job here is the
// same model as in Fig 7 (each training job collocated with the matching
// Poisson inference client; the paper averages across inference jobs, we
// use ResNet50 inference as the representative high-priority client).
#include <iostream>

#include "bench/bench_util.h"

using namespace orion;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(&argc, argv);
  bench::PrintHeader("Table 4", "training cost savings under Orion collocation");

  const harness::ClientConfig hp = bench::InferenceClient(
      workloads::ModelId::kResNet50, trace::ArrivalKind::kPoisson,
      trace::RequestsPerSecond(workloads::ModelId::kResNet50,
                               trace::CollocationCase::kInfTrainPoisson),
      true);

  struct PaperRow {
    workloads::ModelId model;
    double dedicated, collocated, savings;
  };
  const PaperRow paper[] = {
      {workloads::ModelId::kResNet50, 10.3, 7.45, 1.45},
      {workloads::ModelId::kMobileNetV2, 12.5, 8.78, 1.4},
      {workloads::ModelId::kResNet101, 6.3, 4.7, 1.49},
      {workloads::ModelId::kBert, 4.91, 3.1, 1.26},
      {workloads::ModelId::kTransformer, 6.0, 3.9, 1.3},
  };

  Table table({"training_job", "dedicated_it/s", "collocated_it/s", "cost_savings",
               "paper_savings"});
  for (const PaperRow& row : paper) {
    const harness::ClientConfig be = bench::TrainingClient(row.model, false);
    const auto ideal = bench::RunPair(hp, be, harness::SchedulerKind::kDedicated);
    const auto orion = bench::RunPair(hp, be, harness::SchedulerKind::kOrion);
    const double dedicated = bench::BeThroughput(ideal);
    const double collocated = bench::BeThroughput(orion);
    table.AddRow({workloads::WorkloadName(be.workload), Cell(dedicated, 2),
                  Cell(collocated, 2), Cell(harness::CostSavings(dedicated, collocated), 2),
                  Cell(row.savings, 2)});
  }
  table.Print(std::cout);
  std::cout << "\n(cost_savings > 1 means one shared GPU beats two dedicated GPUs per\n"
               "unit of training work while the inference job keeps its SLO; see Fig 7)\n";
  return 0;
}
