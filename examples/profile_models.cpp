// Example: the offline profiling workflow (§5.2).
//
// Orion deployments profile each DNN workload once, offline, and ship the
// resulting profile files with the job. This example profiles the whole
// model zoo on a simulated V100, writes one profile file per workload into
// ./profiles/, reloads one of them, and shows the kernel-level contents the
// scheduler consumes (duration, compute/memory class, sm_needed).

#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "src/common/table.h"
#include "src/profiler/profiler.h"

using namespace orion;

int main() {
  const gpusim::DeviceSpec device = gpusim::DeviceSpec::V100_16GB();
  const std::filesystem::path dir = "profiles";
  std::filesystem::create_directories(dir);

  std::cout << "Profiling the model zoo on " << device.name << "...\n\n";
  Table table({"workload", "kernels", "req_latency_ms", "compute", "memory", "unknown"});
  for (auto model : {workloads::ModelId::kResNet50, workloads::ModelId::kMobileNetV2,
                     workloads::ModelId::kResNet101, workloads::ModelId::kBert,
                     workloads::ModelId::kTransformer}) {
    for (auto task : {workloads::TaskType::kInference, workloads::TaskType::kTraining}) {
      const auto spec = workloads::MakeWorkload(model, task);
      const auto profile = profiler::ProfileWorkload(device, spec);
      int by_class[3] = {};
      for (const auto& kernel : profile.kernels) {
        ++by_class[static_cast<int>(kernel.profile)];
      }
      const auto path = dir / (profile.workload_name + ".profile");
      std::ofstream file(path);
      profiler::SaveProfile(profile, file);
      table.AddRow({profile.workload_name, Cell(profile.kernels.size()),
                    Cell(UsToMs(profile.request_latency_us), 2), Cell(by_class[0]),
                    Cell(by_class[1]), Cell(by_class[2])});
    }
  }
  table.Print(std::cout);

  // Reload one profile and show what the scheduler looks up per kernel.
  const std::filesystem::path reload_path = dir / "resnet50-inf-bs4.profile";
  std::ifstream file(reload_path);
  std::string error;
  const std::optional<profiler::WorkloadProfile> loaded = profiler::LoadProfile(file, &error);
  if (!loaded.has_value()) {
    std::cerr << reload_path.string() << ": " << error << "\n";
    return 2;
  }
  const profiler::WorkloadProfile& reloaded = *loaded;
  std::cout << "\nfirst kernels of " << reloaded.workload_name << " (as the scheduler sees "
            << "them):\n";
  Table kernels({"kernel", "duration_us", "class", "sm_needed"});
  for (std::size_t i = 0; i < 8 && i < reloaded.kernels.size(); ++i) {
    const auto& kp = reloaded.kernels[i];
    kernels.AddRow({kp.name, Cell(kp.duration_us, 1),
                    gpusim::ResourceProfileName(kp.profile), Cell(kp.sm_needed)});
  }
  kernels.Print(std::cout);
  std::cout << "\nprofiles written to ./" << dir.string() << "/\n";
  return 0;
}
