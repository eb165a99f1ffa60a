// Figure 1: GPU compute-throughput and memory-bandwidth utilization over
// time for one MobileNetV2 training iteration (batch size 96).
//
// The paper's point: utilization is bursty — individual operators saturate
// one resource while leaving the other idle, and the averages (red dotted
// lines in the figure) stay low. We print a bucketed timeline plus the
// averages.
#include <iostream>

#include "bench/bench_util.h"
#include "src/profiler/profiler.h"
#include "src/runtime/gpu_runtime.h"
#include "src/sim/simulator.h"

using namespace orion;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  bench::PrintHeader("Figure 1", "MobileNetV2 training (bs=96) utilization timeline");

  const gpusim::DeviceSpec device = gpusim::DeviceSpec::V100_16GB();
  const auto spec = workloads::MakeWorkload(workloads::ModelId::kMobileNetV2,
                                            workloads::TaskType::kTraining, 96);

  // Replay one iteration alone (the profiler is exactly this run).
  profiler::ProfileOptions opts;
  opts.warmup_requests = 1;
  opts.measured_requests = 1;
  const auto profile = profiler::ProfileWorkload(device, spec, opts);

  // Re-run a single iteration with a fresh device to get a clean timeline.
  Simulator sim;
  runtime::GpuRuntime rt(&sim, device);
  rt.device().utilization().KeepSamples();
  const auto stream = rt.CreateStream();
  const auto ops = workloads::BuildRequestOps(device, spec);
  // Submit with host pacing like the real framework would.
  std::size_t next = 0;
  std::function<void()> submit = [&]() {
    if (next >= ops.size()) {
      return;
    }
    rt.Submit(ops[next], stream, nullptr);
    ++next;
    sim.ScheduleAfter(opts.launch_overhead_us, submit);
  };
  submit();
  sim.RunUntilIdle();

  const TimeUs end = sim.now();
  constexpr int kBuckets = 50;
  const auto timeline = rt.device().utilization().Timeline(0.0, end, kBuckets);

  Table table({"t_ms", "compute_%", "membw_%", "sm_busy_%"});
  for (const auto& sample : timeline) {
    table.AddRow({Cell(UsToMs(sample.start), 2), Cell(100.0 * sample.compute, 1),
                  Cell(100.0 * sample.membw, 1), Cell(100.0 * sample.sm_busy, 1)});
  }
  table.Print(std::cout);

  const auto avg = rt.device().utilization().Average(end);
  std::cout << "\niteration time: " << UsToMs(end) << " ms ("
            << profile.kernels.size() << " kernels)\n";
  std::cout << "averages (paper: compute <40%, membw <55%): compute "
            << 100.0 * avg.compute << "%, membw " << 100.0 * avg.membw << "%, SM busy "
            << 100.0 * avg.sm_busy << "%\n";
  // ASCII sparkline of compute utilization to show burstiness.
  std::cout << "\ncompute utilization sparkline:\n";
  const char* levels = " .:-=+*#%@";
  for (const auto& sample : timeline) {
    const int level = std::min(9, static_cast<int>(sample.compute * 10));
    std::cout << levels[level];
  }
  std::cout << "\nmemory bandwidth sparkline:\n";
  for (const auto& sample : timeline) {
    const int level = std::min(9, static_cast<int>(sample.membw * 10));
    std::cout << levels[level];
  }
  std::cout << "\n";
  return 0;
}
