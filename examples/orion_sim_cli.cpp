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
// Scheduler: any name harness::SchedulerKindName gives a SchedulerKind; the
// CLI keeps no name table of its own, so it accepts every kind the harness
// runs.
//
// Bad input exits with status 2 and a message: unknown flags, client specs or
// scheduler names (the message lists the valid names), numeric values that
// orion::ParseUint / ParseDouble reject, and a shared collocation that
// exceeds GPU memory with no :swap client.

#include <cstddef>
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/parse.h"
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

int BadValue(const std::string& flag, const std::string& text) {
  std::cerr << "invalid value for " << flag << ": '" << text << "'\n";
  return 2;
}

// The value `token` names in `table`, if any.
template <typename T, std::size_t N>
std::optional<T> Lookup(const std::pair<const char*, T> (&table)[N], const std::string& token) {
  for (const auto& [name, value] : table) {
    if (token == name) {
      return value;
    }
  }
  return std::nullopt;
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
  using workloads::ModelId;
  static constexpr std::pair<const char*, ModelId> kModels[] = {
      {"resnet50", ModelId::kResNet50}, {"mobilenetv2", ModelId::kMobileNetV2},
      {"resnet101", ModelId::kResNet101}, {"bert", ModelId::kBert},
      {"transformer", ModelId::kTransformer}, {"llm", ModelId::kLlmDecode}};
  static constexpr std::pair<const char*, workloads::TaskType> kTasks[] = {
      {"inf", workloads::TaskType::kInference}, {"train", workloads::TaskType::kTraining}};
  static constexpr std::pair<const char*, trace::ArrivalKind> kOpenLoop[] = {
      {"poisson", trace::ArrivalKind::kPoisson},
      {"uniform", trace::ArrivalKind::kUniform},
      {"apollo", trace::ArrivalKind::kApollo}};
  const std::optional<ModelId> model = Lookup(kModels, tokens[0]);
  const std::optional<workloads::TaskType> task = Lookup(kTasks, tokens[1]);
  if (!model || !task) {
    return false;
  }
  client->workload = workloads::MakeWorkload(*model, *task);
  client->arrivals = trace::ArrivalKind::kClosedLoop;
  std::size_t index = 2;
  if (index < tokens.size()) {
    if (const auto arrivals = Lookup(kOpenLoop, tokens[index])) {
      client->arrivals = *arrivals;
      ++index;
      if (index >= tokens.size()) {
        return false;  // open-loop arrivals need a rate
      }
      const std::optional<double> rps = ParseDouble(tokens[index]);
      if (!rps || *rps <= 0.0) {
        return false;
      }
      client->rps = *rps;
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

// The SchedulerKind that harness::SchedulerKindName calls `name`, trying
// every kind (kTimeQuantum is the last); an unknown name is reported with the
// valid ones.
std::optional<harness::SchedulerKind> ParseScheduler(const std::string& name) {
  std::string valid;
  for (int k = 0; k <= static_cast<int>(harness::SchedulerKind::kTimeQuantum); ++k) {
    const auto kind = static_cast<harness::SchedulerKind>(k);
    if (name == harness::SchedulerKindName(kind)) {
      return kind;
    }
    valid += std::string(" ") + harness::SchedulerKindName(kind);
  }
  std::cerr << "unknown scheduler '" << name << "'; valid names:" << valid << "\n";
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  harness::ExperimentConfig config;
  config.duration_us = SecToUs(10.0);

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (arg == "--pcie-priority") {
      config.pcie_priority_scheduling = true;
    } else if (eq == std::string::npos) {
      return Usage(argv[0]);
    } else if (flag == "--scheduler") {
      const std::optional<harness::SchedulerKind> kind = ParseScheduler(value);
      if (!kind) {
        return 2;
      }
      config.scheduler = *kind;
    } else if (flag == "--device") {
      if (value == "v100") {
        config.device = gpusim::DeviceSpec::V100_16GB();
      } else if (value == "a100") {
        config.device = gpusim::DeviceSpec::A100_40GB();
      } else {
        return Usage(argv[0]);
      }
    } else if (flag == "--seconds") {
      const std::optional<double> seconds = ParseDouble(value);
      if (!seconds || *seconds <= 0.0) {
        return BadValue(flag, value);
      }
      config.duration_us = SecToUs(*seconds);
    } else if (flag == "--seed") {
      const std::optional<std::uint64_t> seed = ParseUint(value);
      if (!seed) {
        return BadValue(flag, value);
      }
      config.seed = *seed;
    } else if (flag == "--dur-threshold") {
      const std::optional<double> pct = ParseDouble(value);
      if (!pct) {
        return BadValue(flag, value);
      }
      config.orion.dur_threshold_frac = *pct / 100.0;
    } else if (flag == "--sm-threshold") {
      const std::optional<std::uint64_t> sms = ParseUint(value);
      if (!sms || *sms > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
        return BadValue(flag, value);
      }
      config.orion.sm_threshold = static_cast<int>(*sms);
    } else if (flag == "--client") {
      harness::ClientConfig client;
      if (!ParseClient(value, &client, &config.paging.enabled)) {
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

  // §5.1.3: every partition must hold its clients' state, unless the pager
  // services a shared GPU's overflow (RunExperiment aborts on it; reject it
  // here).
  if (const auto overflow = harness::FirstMemoryOverflow(config)) {
    const auto gb = [](std::size_t bytes) { return Cell(static_cast<double>(bytes) / 1e9, 2); };
    if (config.scheduler == harness::SchedulerKind::kMig ||
        config.scheduler == harness::SchedulerKind::kDedicated) {
      std::cerr << "client " << overflow->partition << " exceeds its "
                << gb(overflow->capacity_bytes) << " GB partition by "
                << gb(overflow->excess_bytes) << " GB\n";
    } else {
      std::cerr << "collocation exceeds GPU memory by " << gb(overflow->excess_bytes)
                << " GB; add :swap to a client to page the overflow\n";
    }
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
