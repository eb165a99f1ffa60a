// Extension bench (paper §7, Discussion): applicability to LLMs.
//
// The paper observes that the token-generation phase of LLM inference is
// memory-bound and underutilizes SMs and compute throughput, so Orion's
// resource-aware policy should collocate it with computationally intensive
// workloads. This bench quantifies that: an LLM-decode service (high
// priority) collocated with a compute-heavy best-effort training job, under
// Ideal / MPS / REEF / Orion. CI greps the ACCEPTANCE line.
#include <algorithm>
#include <cstddef>
#include <iostream>
#include <limits>

#include "bench/bench_util.h"

using namespace orion;

namespace {

// "Little decode-latency damage": Orion keeps the decode p99 within 5% of
// the decode service running alone.
constexpr double kMaxDecodeP99VsIdeal = 1.05;

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(&argc, argv);
  bench::PrintHeader("Extension (Section 7)", "LLM token-generation collocation");

  // The device every leg of the bench runs on — classification included.
  // Classifying on a fixed V100 while simulating another spec misclassifies
  // kernels whose roofline crossover moves with the compute/bandwidth ratio.
  // A100 40 GB: the decode service's ~19 GB of state cannot share a V100
  // 16 GB with a trainer at all (the §5.1.3 memory check rightly aborts).
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::A100_40GB();

  // High-priority: LLM decode service, Poisson arrivals.
  harness::ClientConfig hp;
  hp.workload =
      workloads::MakeWorkload(workloads::ModelId::kLlmDecode, workloads::TaskType::kInference);
  hp.high_priority = true;
  hp.arrivals = trace::ArrivalKind::kPoisson;
  hp.rps = 1.0;

  // Best-effort: ResNet50 training (compute-heavy kernels).
  const harness::ClientConfig be = bench::TrainingClient(workloads::ModelId::kResNet50, false);

  // Show the decode profile first: memory-bound share of one decode step
  // (the serving engine's iteration unit), classified per device — the
  // crossover differs between specs, so the share is a device property.
  for (const gpusim::DeviceSpec& spec :
       {gpusim::DeviceSpec::V100_16GB(), device}) {
    const auto kernels = workloads::BuildLlmDecodeStepKernels(
        spec, workloads::LlmModelConfig{}, /*batch=*/1, /*context_tokens=*/256);
    int memory = 0;
    double total_us = 0.0;
    for (const auto& kernel : kernels) {
      total_us += kernel.duration_us;
      if (gpusim::ClassifyKernel(kernel) == gpusim::ResourceProfile::kMemoryBound) {
        ++memory;
      }
    }
    std::cout << spec.name << " decode step: " << kernels.size() << " kernels, "
              << Cell(100.0 * memory / kernels.size(), 0) << "% memory-bound, "
              << Cell(UsToMs(total_us), 2) << " ms of kernel time\n";
  }
  std::cout << "\n";

  Table table({"technique", "decode_p99_ms", "p99_vs_ideal", "train_it/s", "gpu_compute_%"});
  double ideal_p99 = 0.0;
  double mps_p99 = 0.0;
  double orion_p99 = 0.0;
  double orion_train = 0.0;
  std::size_t decode_sample = std::numeric_limits<std::size_t>::max();  // fewest behind a p99
  for (auto scheduler :
       {harness::SchedulerKind::kDedicated, harness::SchedulerKind::kMps,
        harness::SchedulerKind::kReef, harness::SchedulerKind::kOrion}) {
    const auto result = bench::RunPair(hp, be, scheduler, device);
    const double p99 = UsToMs(result.hp().latency.p99());
    decode_sample = std::min(decode_sample, result.hp().latency.count());
    if (scheduler == harness::SchedulerKind::kDedicated) {
      ideal_p99 = p99;
    } else if (scheduler == harness::SchedulerKind::kMps) {
      mps_p99 = p99;
    } else if (scheduler == harness::SchedulerKind::kOrion) {
      orion_p99 = p99;
      orion_train = bench::BeThroughput(result);
    }
    table.AddRow({harness::SchedulerKindName(scheduler), Cell(p99, 1),
                  Cell(ideal_p99 > 0 ? p99 / ideal_p99 : 0.0, 2),
                  Cell(bench::BeThroughput(result), 2),
                  Cell(100.0 * result.utilization.compute, 1)});
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: decode kernels are memory-bound, training convs are\n"
               "compute-bound, so Orion's opposite-profile rule collocates them with\n"
               "little decode-latency damage while the trainer makes progress.\n";
  bench::PrintAcceptance(
      "llm-collocation",
      {{"orion-decode-p99@<=1.05x-ideal", orion_p99 <= kMaxDecodeP99VsIdeal * ideal_p99,
        decode_sample},
       {"orion-trainer-progresses", orion_train > 0.0},
       {"mps-decode-p99-above-orion", mps_p99 > orion_p99, decode_sample}});
  return 0;
}
