// Command-line collocation runner.
//
// Runs an arbitrary two-or-more-client collocation from the command line and
// prints per-client latency/throughput plus GPU utilization:
//
//   orion_sim_cli --scheduler=orion --device=v100 --client=resnet50:inf:poisson:15:hp
//                 --client=mobilenetv2:train
//
// Client syntax:  model:task[:arrivals[:rps]][:hp][:swap]
//   model     resnet50 | mobilenetv2 | resnet101 | bert | transformer | llm
//   task      inf | train
//   arrivals  closed | poisson | uniform | apollo   (default: closed)
//   rps       arrival rate (required for open-loop arrivals)
//   hp        mark as the high-priority client
//   swap      page memory overflow through the unified-memory pager (§5.1.3);
//             on any client it enables paging for the whole run
// Scheduler: ideal | mig | temporal | streams | mps | reef | ticktock | orion.
//
// Bad input exits with status 2 and a message: unknown flags or client specs,
// numeric values that do not parse completely or are not finite, and a shared
// collocation that exceeds GPU memory with no :swap client.

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/table.h"
#include "src/harness/experiment.h"

using namespace orion;

namespace {

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--scheduler=NAME] [--device=v100|a100] [--seconds=N] [--seed=N]\n"
               "       [--dur-threshold=PCT] [--sm-threshold=N] [--pcie-priority]\n"
               "       --client=SPEC [--client=SPEC ...]\n"
               "client SPEC: model:task[:arrivals[:rps]][:hp][:swap]\n"
               "  :swap on any client pages memory overflow (required when a shared\n"
               "  collocation exceeds GPU memory)\n";
  return 2;
}

int BadValue(const char* flag, const std::string& text) {
  std::cerr << "invalid value for " << flag << ": '" << text << "'\n";
  return 2;
}

// Numeric values must parse completely; doubles must also be finite (the
// rule bench flags follow, see bench/bench_util.h).
bool ParseDouble(const std::string& text, double* value) {
  errno = 0;
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0' && errno != ERANGE && std::isfinite(*value);
}

bool ParseUint(const std::string& text, std::uint64_t* value) {
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  *value = std::strtoull(text.c_str(), &end, 10);
  return *end == '\0' && errno != ERANGE;
}

bool ParseModel(const std::string& token, workloads::ModelId* model) {
  using workloads::ModelId;
  if (token == "resnet50") {
    *model = ModelId::kResNet50;
  } else if (token == "mobilenetv2") {
    *model = ModelId::kMobileNetV2;
  } else if (token == "resnet101") {
    *model = ModelId::kResNet101;
  } else if (token == "bert") {
    *model = ModelId::kBert;
  } else if (token == "transformer") {
    *model = ModelId::kTransformer;
  } else if (token == "llm") {
    *model = ModelId::kLlmDecode;
  } else {
    return false;
  }
  return true;
}

// A :swap token sets `*paging` (paging is per run, not per client).
bool ParseClient(const std::string& spec, harness::ClientConfig* client, bool* paging) {
  std::istringstream ss(spec);
  std::string token;
  std::vector<std::string> tokens;
  while (std::getline(ss, token, ':')) {
    tokens.push_back(token);
  }
  if (tokens.size() < 2) {
    return false;
  }
  workloads::ModelId model;
  if (!ParseModel(tokens[0], &model)) {
    return false;
  }
  workloads::TaskType task;
  if (tokens[1] == "inf") {
    task = workloads::TaskType::kInference;
  } else if (tokens[1] == "train") {
    task = workloads::TaskType::kTraining;
  } else {
    return false;
  }
  client->workload = workloads::MakeWorkload(model, task);
  client->arrivals = trace::ArrivalKind::kClosedLoop;
  std::size_t index = 2;
  if (index < tokens.size()) {
    if (tokens[index] == "poisson" || tokens[index] == "uniform" ||
        tokens[index] == "apollo") {
      if (tokens[index] == "poisson") {
        client->arrivals = trace::ArrivalKind::kPoisson;
      } else if (tokens[index] == "uniform") {
        client->arrivals = trace::ArrivalKind::kUniform;
      } else {
        client->arrivals = trace::ArrivalKind::kApollo;
      }
      ++index;
      if (index >= tokens.size()) {
        return false;  // open-loop arrivals need a rate
      }
      if (!ParseDouble(tokens[index], &client->rps) || client->rps <= 0.0) {
        return false;
      }
      ++index;
    } else if (tokens[index] == "closed") {
      ++index;
    }
  }
  for (; index < tokens.size(); ++index) {
    if (tokens[index] == "hp") {
      client->high_priority = true;
    } else if (tokens[index] == "swap") {
      *paging = true;
    } else {
      return false;
    }
  }
  return true;
}

bool ParseScheduler(const std::string& name, harness::SchedulerKind* kind) {
  using harness::SchedulerKind;
  if (name == "ideal") {
    *kind = SchedulerKind::kDedicated;
  } else if (name == "mig") {
    *kind = SchedulerKind::kMig;
  } else if (name == "temporal") {
    *kind = SchedulerKind::kTemporal;
  } else if (name == "streams") {
    *kind = SchedulerKind::kStreams;
  } else if (name == "mps") {
    *kind = SchedulerKind::kMps;
  } else if (name == "reef") {
    *kind = SchedulerKind::kReef;
  } else if (name == "ticktock") {
    *kind = SchedulerKind::kTickTock;
  } else if (name == "orion") {
    *kind = SchedulerKind::kOrion;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  harness::ExperimentConfig config;
  config.duration_us = SecToUs(10.0);

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> std::string {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--scheduler=", 0) == 0) {
      if (!ParseScheduler(value_of("--scheduler="), &config.scheduler)) {
        return Usage(argv[0]);
      }
    } else if (arg.rfind("--device=", 0) == 0) {
      const std::string device = value_of("--device=");
      if (device == "v100") {
        config.device = gpusim::DeviceSpec::V100_16GB();
      } else if (device == "a100") {
        config.device = gpusim::DeviceSpec::A100_40GB();
      } else {
        return Usage(argv[0]);
      }
    } else if (arg.rfind("--seconds=", 0) == 0) {
      double seconds = 0.0;
      if (!ParseDouble(value_of("--seconds="), &seconds) || seconds <= 0.0) {
        return BadValue("--seconds", value_of("--seconds="));
      }
      config.duration_us = SecToUs(seconds);
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!ParseUint(value_of("--seed="), &config.seed)) {
        return BadValue("--seed", value_of("--seed="));
      }
    } else if (arg.rfind("--dur-threshold=", 0) == 0) {
      double pct = 0.0;
      if (!ParseDouble(value_of("--dur-threshold="), &pct)) {
        return BadValue("--dur-threshold", value_of("--dur-threshold="));
      }
      config.orion.dur_threshold_frac = pct / 100.0;
    } else if (arg.rfind("--sm-threshold=", 0) == 0) {
      std::uint64_t sms = 0;
      if (!ParseUint(value_of("--sm-threshold="), &sms) ||
          sms > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
        return BadValue("--sm-threshold", value_of("--sm-threshold="));
      }
      config.orion.sm_threshold = static_cast<int>(sms);
    } else if (arg == "--pcie-priority") {
      config.pcie_priority_scheduling = true;
    } else if (arg.rfind("--client=", 0) == 0) {
      harness::ClientConfig client;
      if (!ParseClient(value_of("--client="), &client, &config.paging.enabled)) {
        std::cerr << "bad client spec: " << arg << "\n";
        return Usage(argv[0]);
      }
      config.clients.push_back(client);
    } else {
      return Usage(argv[0]);
    }
  }
  if (config.clients.empty()) {
    // Default demo: the quickstart pair.
    harness::ClientConfig hp;
    hp.workload =
        workloads::MakeWorkload(workloads::ModelId::kResNet50, workloads::TaskType::kInference);
    hp.high_priority = true;
    hp.arrivals = trace::ArrivalKind::kPoisson;
    hp.rps = 15.0;
    harness::ClientConfig be;
    be.workload =
        workloads::MakeWorkload(workloads::ModelId::kResNet50, workloads::TaskType::kTraining);
    config.clients = {hp, be};
    std::cout << "(no --client given; running the default resnet50 inf+train demo)\n";
  }

  // §5.1.3: a shared GPU must hold every client's state unless the pager
  // services the overflow (RunExperiment aborts on it; reject it here).
  const bool shares_gpu = config.scheduler != harness::SchedulerKind::kDedicated &&
                          config.scheduler != harness::SchedulerKind::kMig;
  std::size_t total_state = 0;
  for (const harness::ClientConfig& client : config.clients) {
    total_state += workloads::ApproxModelStateBytes(client.workload);
  }
  if (shares_gpu && total_state > config.device.memory_bytes && !config.paging.enabled) {
    std::cerr << "collocation exceeds GPU memory by "
              << Cell(static_cast<double>(total_state - config.device.memory_bytes) / 1e9, 2)
              << " GB; add :swap to a client to page the overflow\n";
    return 2;
  }

  const auto result = harness::RunExperiment(config);
  std::cout << "scheduler: " << result.scheduler_name << " on " << config.device.name << "\n";
  Table table({"client", "completed", "throughput_rps", "p50_ms", "p99_ms", "queue_p99_ms",
               "service_p99_ms"});
  for (const auto& client : result.clients) {
    table.AddRow({client.name, Cell(client.completed), Cell(client.throughput_rps, 2),
                  Cell(UsToMs(client.latency.p50()), 2),
                  Cell(UsToMs(client.latency.p99()), 2),
                  Cell(UsToMs(client.queueing.p99()), 2),
                  Cell(UsToMs(client.service.p99()), 2)});
  }
  table.Print(std::cout);
  std::cout << "GPU: compute " << Cell(100.0 * result.utilization.compute, 1) << "%, membw "
            << Cell(100.0 * result.utilization.membw, 1) << "%, SMs busy "
            << Cell(100.0 * result.utilization.sm_busy, 1) << "%\n";
  if (result.paging_active) {
    std::cout << "paging: deficit "
              << Cell(static_cast<double>(result.memory_deficit_bytes) / 1e9, 2) << " GB, "
              << result.paging.faults << " faults, "
              << Cell(static_cast<double>(result.paging.fault_bytes_h2d +
                                          result.paging.writeback_bytes_d2h) /
                          1e9,
                      2)
              << " GB paged\n";
  }
  return 0;
}
