// Table 2: toy kernel-collocation experiment — sequential vs collocated
// execution of Conv2d (compute-intensive) and BN2d (memory-intensive)
// kernel pairs on dedicated streams.
//
// Paper result: Conv2d+Conv2d 0.98x, BN2d+BN2d 1.08x, Conv2d+BN2d 1.41x.
// The shape to reproduce: same-profile pairs barely benefit (SM or bandwidth
// contention), the opposite-profile pair overlaps well.
//
// A second section sweeps the interference-model ablation: what the pair
// timings would look like if the device ignored bandwidth contention,
// validating that the proportional-share model is what produces Table 2.
#include <iostream>

#include "bench/bench_util.h"
#include "src/runtime/gpu_runtime.h"
#include "src/sim/simulator.h"

using namespace orion;

namespace {

// Measured characteristics from §3.2 of the paper: Conv2d bs=32 runs 1.35 ms
// consuming 100% SMs, 89% compute, 20% bandwidth; BN2d runs 0.93 ms on 40%
// of SMs with 14% compute, 80% bandwidth.
gpusim::KernelDesc Conv2d() {
  gpusim::KernelDesc kernel;
  kernel.kernel_id = 1;
  kernel.name = "conv2d";
  kernel.duration_us = 1350.0;
  kernel.compute_util = 0.89;
  kernel.membw_util = 0.20;
  kernel.geometry = {80, 1024, 64, 0};  // occupies all 80 SMs
  kernel.sm_needed = gpusim::SmsNeeded(gpusim::DeviceSpec::V100_16GB(), kernel.geometry);
  return kernel;
}

gpusim::KernelDesc Bn2d() {
  gpusim::KernelDesc kernel;
  kernel.kernel_id = 2;
  kernel.name = "bn2d";
  kernel.duration_us = 930.0;
  kernel.compute_util = 0.14;
  kernel.membw_util = 0.80;
  kernel.geometry = {32, 1024, 64, 0};  // 40% of SMs
  kernel.sm_needed = gpusim::SmsNeeded(gpusim::DeviceSpec::V100_16GB(), kernel.geometry);
  return kernel;
}

DurationUs RunSequential(const gpusim::KernelDesc& a, const gpusim::KernelDesc& b) {
  Simulator sim;
  runtime::GpuRuntime rt(&sim, gpusim::DeviceSpec::V100_16GB());
  const auto stream = rt.CreateStream();
  rt.LaunchKernel(stream, a);
  rt.LaunchKernel(stream, b);
  sim.RunUntilIdle();
  return sim.now();
}

DurationUs RunCollocated(const gpusim::KernelDesc& a, const gpusim::KernelDesc& b) {
  Simulator sim;
  runtime::GpuRuntime rt(&sim, gpusim::DeviceSpec::V100_16GB());
  const auto s1 = rt.CreateStream();
  const auto s2 = rt.CreateStream();
  rt.LaunchKernel(s1, a);
  rt.LaunchKernel(s2, b);
  sim.RunUntilIdle();
  return sim.now();
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  bench::PrintHeader("Table 2", "toy Conv2d/BN2d kernel collocation");

  struct Pair {
    const char* name;
    gpusim::KernelDesc a, b;
    double paper_speedup;
  };
  const Pair pairs[] = {
      {"Conv2d-Conv2d", Conv2d(), Conv2d(), 0.98},
      {"BN2d-BN2d", Bn2d(), Bn2d(), 1.08},
      {"Conv2d-BN2d", Conv2d(), Bn2d(), 1.41},
  };

  Table table({"pair", "sequential_ms", "collocated_ms", "speedup", "paper_speedup"});
  for (const Pair& pair : pairs) {
    const DurationUs seq = RunSequential(pair.a, pair.b);
    const DurationUs col = RunCollocated(pair.a, pair.b);
    table.AddRow({pair.name, Cell(UsToMs(seq), 2), Cell(UsToMs(col), 2), Cell(seq / col, 2),
                  Cell(pair.paper_speedup, 2)});
  }
  table.Print(std::cout);

  // Ablation: drop the bandwidth-contention term by zeroing membw demands —
  // BN2d+BN2d would then overlap perfectly, contradicting the paper's
  // measurement. This documents why the interference model matters.
  std::cout << "\nAblation: interference model without bandwidth contention\n";
  auto bn_noband = Bn2d();
  bn_noband.membw_util = 0.0;
  const DurationUs seq = RunSequential(Bn2d(), Bn2d());
  const DurationUs col_noband = RunCollocated(bn_noband, bn_noband);
  std::cout << "BN2d-BN2d speedup without the bandwidth term: " << Cell(seq / col_noband, 2)
            << "x (would wrongly predict near-perfect overlap; paper measures 1.08x)\n";
  return 0;
}
