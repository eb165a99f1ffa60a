// Extension bench (paper §7): multi-GPU data-parallel training on the
// shared-node interconnect.
//
// Two claims:
//   1. Scaling — with a fixed global batch, DDP iteration time drops as GPUs
//      are added (per-GPU compute shrinks; the gradient all-reduce, sized by
//      parameter bytes, is the non-scaling part). Runs on a DGX-style
//      NVLink-pairs node.
//   2. Interference — a collocated bandwidth-hungry best-effort client
//      (back-to-back H2D copies on one DDP GPU) inflates all-reduce time
//      when the ring crosses the shared PCIe root, but not when the ring
//      runs entirely over NVLink. This is the multi-GPU face of the paper's
//      PCIe-contention discussion (§5.1.3).
// CI greps the ACCEPTANCE line.
#include <cmath>
#include <iostream>
#include <sstream>

#include "bench/bench_util.h"
#include "src/harness/multi_gpu.h"

using namespace orion;

namespace {

constexpr int kGlobalBatch = 32;
constexpr int kIterations = 8;

harness::MultiGpuConfig BaseConfig(interconnect::NodeTopology topology, int num_gpus) {
  harness::MultiGpuConfig config;
  config.topology = std::move(topology);
  config.ddp.model = workloads::ModelId::kResNet50;
  config.ddp.num_gpus = num_gpus;
  config.ddp.global_batch_size = kGlobalBatch;
  config.iterations = kIterations;
  return config;
}

std::string RingName(const std::vector<int>& ring) {
  std::ostringstream os;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    os << (i > 0 ? "-" : "") << ring[i];
  }
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(&argc, argv, bench::kTraceOut | bench::kMetricsOut);
  bench::PrintHeader("Extension (Section 7)", "multi-GPU DDP over the node interconnect");

  // --- Claim 1: fixed-global-batch scaling on an NVLink-pairs node. ---
  std::cout << "ResNet50 DDP, global batch " << kGlobalBatch << ", " << kIterations
            << " iterations, 4-GPU NVLink-pairs node:\n\n";
  Table scaling({"gpus", "ring", "iter_ms", "allreduce_ms", "speedup", "ideal"});
  double one_gpu_ms = 0.0;
  double prev_iter_ms = 0.0;
  bool iter_time_falls = true;
  harness::MultiGpuResult four_gpu;
  for (const int gpus : {1, 2, 4}) {
    const auto result =
        harness::RunDdpExperiment(BaseConfig(interconnect::NodeTopology::NvLinkPairs(4), gpus));
    const double iter_ms = UsToMs(result.iteration_us.mean());
    if (gpus == 1) {
      one_gpu_ms = iter_ms;
    } else {
      iter_time_falls = iter_time_falls && iter_ms < prev_iter_ms;
    }
    prev_iter_ms = iter_ms;
    if (gpus == 4) {
      four_gpu = result;
    }
    scaling.AddRow({Cell(gpus), RingName(result.ring), Cell(iter_ms, 2),
                    Cell(result.allreduce_us.count() > 0 ? UsToMs(result.allreduce_us.mean()) : 0.0, 3),
                    Cell(one_gpu_ms / iter_ms, 2), Cell(static_cast<double>(gpus), 2)});
  }
  scaling.Print(std::cout);
  std::cout << "\nSpeedup trails ideal by the all-reduce time plus launch overhead; the\n"
               "all-reduce does not shrink with GPU count (same parameter bytes).\n\n";

  // Per-link traffic of the 4-GPU run: each ring-link direction carries
  // 2*(N-1)/N of the gradient bytes per all-reduced bucket round-trip. The
  // traffic is exact when every link direction a ring hop routes over
  // carries iterations x gradient bytes x 2(N-1)/N and no other carries any.
  const auto& ring = four_gpu.ring;
  const double n = static_cast<double>(ring.size());
  const double ring_bytes =
      kIterations * static_cast<double>(four_gpu.param_bytes) * 2.0 * (n - 1.0) / n;
  const interconnect::NodeTopology four_gpu_topology = interconnect::NodeTopology::NvLinkPairs(4);
  std::size_t ring_directions = 0;
  for (std::size_t i = 0; i < ring.size(); ++i) {
    ring_directions += four_gpu_topology.Route(ring[i], ring[(i + 1) % ring.size()]).size();
  }
  std::size_t loaded_directions = 0;
  bool loads_exact = true;
  Table traffic({"link", "kind", "fwd_MB", "bwd_MB"});
  for (const auto& link : four_gpu.link_traffic) {
    traffic.AddRow({link.name, interconnect::LinkKindName(link.kind),
                    Cell(link.forward_bytes / (1 << 20), 1),
                    Cell(link.backward_bytes / (1 << 20), 1)});
    for (const double bytes : {link.forward_bytes, link.backward_bytes}) {
      if (bytes > 0.0) {
        ++loaded_directions;
        loads_exact = loads_exact && std::abs(bytes - ring_bytes) <= 1.0;
      }
    }
  }
  const bool ring_traffic_exact = loads_exact && loaded_directions == ring_directions;
  traffic.Print(std::cout);
  std::cout << "\nGradient bytes/iteration: " << Cell(four_gpu.param_bytes / double(1 << 20), 1)
            << " MB in " << four_gpu.buckets_per_iteration << " buckets; ring "
            << RingName(four_gpu.ring) << " crosses PCIe between the NVLink pairs.\n\n";

  // --- Claim 2: a PCIe bandwidth hog hurts a PCIe ring, not an NVLink ring. ---
  std::cout << "2-GPU DDP vs. a collocated H2D bandwidth hog on GPU 0 (32 MB copies,\n"
               "closed loop):\n\n";
  Table interference({"topology", "hog", "allreduce_ms", "iter_ms", "hog_copies"});
  // allreduce_us[nvlink][hog]: mean all-reduce time of each arm.
  double allreduce_us[2][2] = {};
  for (const bool nvlink : {false, true}) {
    for (const bool hog : {false, true}) {
      auto config = BaseConfig(nvlink ? interconnect::NodeTopology::NvLinkPairs(2)
                                      : interconnect::NodeTopology::PcieOnly(2),
                               2);
      if (hog) {
        config.hog = harness::BandwidthHogConfig{};
      }
      const auto result = harness::RunDdpExperiment(config);
      allreduce_us[nvlink][hog] = result.allreduce_us.mean();
      interference.AddRow({nvlink ? "NVLink pair" : "PCIe only", bench::YesNo(hog),
                           Cell(UsToMs(result.allreduce_us.mean()), 3),
                           Cell(UsToMs(result.iteration_us.mean()), 2),
                           Cell(result.hog_copies)});
    }
  }
  interference.Print(std::cout);
  std::cout << "\nOn the PCIe-only node the ring shares both host links with the hog's\n"
               "copies (fair-share per link direction), inflating every bucket's\n"
               "all-reduce; the NVLink ring never touches PCIe and is unaffected.\n";
  const bool nvlink_unaffected =
      std::abs(allreduce_us[1][1] - allreduce_us[1][0]) <= 1e-6 * allreduce_us[1][0];
  const bool pcie_slowed = allreduce_us[0][1] > allreduce_us[0][0];

  // --- Instrumented arm (only with --trace-out / --metrics-out): the 4-GPU
  // scaling run again with a telemetry hub attached. The trace holds one
  // kernel track per GPU plus collective/fabric async spans; the metrics CSV
  // mirrors the run's "ddp.*" counters/histograms.
  if (bench::TelemetryRequested()) {
    std::cout << "\n-- Telemetry arm: instrumented 4-GPU run --\n";
    telemetry::Hub hub;
    bench::EnableRequestedTelemetry(hub);
    auto config = BaseConfig(interconnect::NodeTopology::NvLinkPairs(4), 4);
    config.telemetry = &hub;
    const auto result = harness::RunDdpExperiment(config);
    std::cout << "iterations: " << result.iterations
              << "  iter_ms: " << Cell(UsToMs(result.iteration_us.mean()), 2)
              << "  allreduce_ms: " << Cell(UsToMs(result.allreduce_us.mean()), 3)
              << "\n";
    bench::ExportTelemetry(hub);
  }
  bench::PrintAcceptance("ddp", {{"ring-traffic-exact", ring_traffic_exact},
                                 {"nvlink-ring-unaffected-by-hog", nvlink_unaffected},
                                 {"pcie-ring-slowed-by-hog", pcie_slowed},
                                 {"iter-time-falls-1-2-4-gpus", iter_time_falls}});
  return 0;
}
