// Table 1: average GPU utilization for the ten DNN workloads (five models x
// {inference, training}) running alone on a V100, at the paper's batch sizes.
//
// Columns mirror the paper: SM busy %, compute throughput %, memory
// bandwidth %, memory capacity %. Paper reference values are printed
// alongside for comparison.
#include <iostream>

#include "bench/bench_util.h"
#include "src/profiler/profiler.h"

using namespace orion;

namespace {

struct PaperRow {
  workloads::ModelId model;
  workloads::TaskType task;
  int sm_busy, compute, membw, memcap;
};

// Table 1 of the paper (V100-16GB).
const PaperRow kPaper[] = {
    {workloads::ModelId::kResNet50, workloads::TaskType::kInference, 24, 30, 22, 9},
    {workloads::ModelId::kMobileNetV2, workloads::TaskType::kInference, 6, 18, 21, 7},
    {workloads::ModelId::kResNet101, workloads::TaskType::kInference, 29, 24, 37, 9},
    {workloads::ModelId::kBert, workloads::TaskType::kInference, 95, 72, 28, 14},
    {workloads::ModelId::kTransformer, workloads::TaskType::kInference, 61, 52, 29, 10},
    {workloads::ModelId::kResNet50, workloads::TaskType::kTraining, 81, 48, 45, 32},
    {workloads::ModelId::kMobileNetV2, workloads::TaskType::kTraining, 71, 34, 49, 43},
    {workloads::ModelId::kResNet101, workloads::TaskType::kTraining, 85, 50, 43, 39},
    {workloads::ModelId::kBert, workloads::TaskType::kTraining, 61, 44, 21, 38},
    {workloads::ModelId::kTransformer, workloads::TaskType::kTraining, 49, 29, 30, 53},
};

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  bench::PrintHeader("Table 1", "average GPU utilization of popular DNN workloads");

  const gpusim::DeviceSpec device = gpusim::DeviceSpec::V100_16GB();
  Table table({"workload", "bs", "SMs_busy_%", "(paper)", "compute_%", "(paper)", "membw_%",
               "(paper)", "memcap_%", "(paper)"});
  for (const PaperRow& row : kPaper) {
    const auto spec = workloads::MakeWorkload(row.model, row.task);
    const auto profile = profiler::ProfileWorkload(device, spec);
    const double memcap = 100.0 *
                          static_cast<double>(workloads::ApproxModelStateBytes(spec)) /
                          static_cast<double>(device.memory_bytes);
    table.AddRow({workloads::WorkloadName(spec), Cell(spec.batch_size),
                  Cell(100.0 * profile.avg_sm_busy, 0), Cell(row.sm_busy),
                  Cell(100.0 * profile.avg_compute_util, 0), Cell(row.compute),
                  Cell(100.0 * profile.avg_membw_util, 0), Cell(row.membw), Cell(memcap, 0),
                  Cell(row.memcap)});
  }
  table.Print(std::cout);
  std::cout << "\nClaim under test: every workload leaves large fractions of compute\n"
               "throughput and memory bandwidth idle, inference more than training.\n";
  return 0;
}
