// Benchmark workloads: the simulation runs each workload performs, generated
// from the benchmark seed. The simulator libraries only ever see the configs
// built here; the seed itself never reaches them except through the
// per-run `seed` fields of those configs.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/datacenter/cluster.h"
#include "src/harness/experiment.h"

namespace perfbench {

enum class RunKind { kExperiment, kCluster };

// One call into the simulator: harness::RunExperiment or datacenter::RunCluster.
struct SimRun {
  std::string label;
  RunKind kind = RunKind::kExperiment;
  orion::harness::ExperimentConfig experiment;  // kExperiment
  orion::datacenter::ClusterConfig cluster;     // kCluster
  // Feeds model.hp_p99_ms / model.goodput_rps.
  bool model_metric = false;
  // oversub_paging at 1.0x: index of the same run with the pager off (always
  // the next run), whose results must be identical: the pager is inert when
  // memory fits.
  int paging_off_twin = -1;

  // Simulated seconds the run covers (warmup + measurement window).
  double SimSeconds() const;
};

struct Workload {
  std::string name;
  std::vector<SimRun> runs;
  // Distinct (hp, be) workload pairs, replayed through gpusim::Device in the
  // traced run. Empty where the workload never touches the device model.
  std::vector<std::pair<orion::workloads::WorkloadSpec, orion::workloads::WorkloadSpec>>
      kernel_pairs;
  orion::gpusim::DeviceSpec device = orion::gpusim::DeviceSpec::V100_16GB();
};

const std::vector<std::string>& WorkloadNames();

// Builds the named workload for `seed`. Returns false for an unknown name.
bool MakeWorkload(const std::string& name, std::uint64_t seed, Workload* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
