// Figure 4: fraction of compute-intensive vs memory-intensive vs unknown
// kernels per workload (inference request, left; training minibatch, right),
// plus the kernel-duration ranges the paper quotes (10s-100s of µs for
// inference, 100s-1000s for training).
#include <iostream>

#include "bench/bench_util.h"
#include "src/gpusim/kernel.h"
#include "src/workloads/models.h"

using namespace orion;

namespace {

void Report(workloads::TaskType task, const char* title) {
  std::cout << title << "\n";
  Table table({"workload", "kernels", "compute_%", "memory_%", "unknown_%", "min_us",
               "median_us", "max_us"});
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::V100_16GB();
  for (auto model : workloads::kAllModels) {
    const auto spec = workloads::MakeWorkload(model, task);
    const auto kernels = workloads::BuildKernels(device, spec);
    int compute = 0;
    int memory = 0;
    int unknown = 0;
    LatencyRecorder durations;
    for (const auto& kernel : kernels) {
      durations.Add(kernel.duration_us);
      switch (gpusim::ClassifyKernel(kernel)) {
        case gpusim::ResourceProfile::kComputeBound:
          ++compute;
          break;
        case gpusim::ResourceProfile::kMemoryBound:
          ++memory;
          break;
        case gpusim::ResourceProfile::kUnknown:
          ++unknown;
          break;
      }
    }
    const double n = static_cast<double>(kernels.size());
    table.AddRow({workloads::WorkloadName(spec), Cell(kernels.size()),
                  Cell(100.0 * compute / n, 1), Cell(100.0 * memory / n, 1),
                  Cell(100.0 * unknown / n, 1), Cell(durations.min(), 1),
                  Cell(durations.p50(), 1), Cell(durations.max(), 1)});
  }
  table.Print(std::cout);
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  bench::PrintHeader("Figure 4", "compute- vs memory-intensive kernel mix per workload");
  Report(workloads::TaskType::kInference, "-- inference request (paper: kernels 10s-100s us)");
  Report(workloads::TaskType::kTraining,
         "-- training minibatch (paper: kernels 100s-1000s us; unknowns in update phase)");
  std::cout << "Claim under test: every DNN job mixes both kernel classes, so\n"
               "opposite-profile collocation opportunities exist across jobs.\n";
  return 0;
}
