// Shared helpers for the per-figure/table bench binaries.
//
// Every binary in bench/ regenerates one artefact of the paper's evaluation
// (see DESIGN.md's experiment index) and prints the same rows/series the
// paper reports. Absolute numbers come from the simulator and differ from
// the authors' testbed; the shapes are the reproduction target.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/parse.h"
#include "src/common/table.h"
#include "src/harness/experiment.h"
#include "src/harness/sm_tuner.h"
#include "src/telemetry/exporters.h"
#include "src/telemetry/telemetry.h"
#include "src/trace/request_rates.h"

namespace orion {
namespace bench {

// Measurement window used by the collocation benches. Long enough for a few
// hundred inference requests and dozens of training iterations per run.
constexpr DurationUs kWarmupUs = SecToUs(1.0);
constexpr DurationUs kDurationUs = SecToUs(15.0);

// Flags shared by every bench binary. Parsed once by ParseBenchArgs; the
// accessors below fold them into the standard measurement windows so
// individual benches stay flag-free.
struct BenchArgs {
  bool quick = false;        // --quick: ~8x shorter windows, for CI smoke runs
  std::uint64_t seed = 42;   // --seed=N: experiment seed
  double window_scale = 1.0; // --window-scale=X: multiply both windows by X
  std::string trace_out;     // --trace-out=P: write a Chrome/Perfetto trace
  std::string metrics_out;   // --metrics-out=P: write a metrics CSV snapshot
  std::string attr_out;      // --attr-out=P: write the per-service latency
                             // attribution (SLO blame ledger) as CSV
};

inline BenchArgs& GlobalBenchArgs() {
  static BenchArgs args;
  return args;
}

// A numeric flag's value, parsed by `parse` (orion::ParseUint or ParseDouble:
// the whole value is the number, finite and in range); anything else exits
// with 2.
template <typename T>
T FlagValue(std::string_view flag, const char* text, std::optional<T> (*parse)(std::string_view)) {
  const std::optional<T> value = parse(text);
  if (!value) {
    std::cerr << "invalid value for " << flag << ": '" << text << "' (try --help)\n";
    std::exit(2);
  }
  return *value;
}

// The telemetry flags a bench honours, or'ed together. A bench that records
// no instrumented run honours none of them.
enum ExportFlags : unsigned {
  kNoExports = 0,
  kTraceOut = 1u << 0,    // --trace-out
  kMetricsOut = 1u << 1,  // --metrics-out
  kAttrOut = 1u << 2,     // --attr-out
  kAllExports = kTraceOut | kMetricsOut | kAttrOut,
};

// Parses --quick / --seed=N / --window-scale=X / --help and the telemetry
// flags in `honoured`. A telemetry flag the bench does not honour is rejected
// by name rather than ignored, and any other flag is an error. Every error
// exits with status 2. Call first thing in main().
inline void ParseBenchArgs(int argc, char** argv, unsigned honoured = kNoExports) {
  BenchArgs& args = GlobalBenchArgs();
  const auto require = [&](unsigned flag, std::string_view name) {
    if ((honoured & flag) == 0) {
      std::cerr << argv[0] << " does not support " << name
                << ": it records no telemetry of that kind (try --help)\n";
      std::exit(2);
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--trace-out", 0) == 0) {
      require(kTraceOut, "--trace-out");
    } else if (arg.rfind("--metrics-out", 0) == 0) {
      require(kMetricsOut, "--metrics-out");
    } else if (arg.rfind("--attr-out", 0) == 0) {
      require(kAttrOut, "--attr-out");
    }
    if (arg == "--quick") {
      args.quick = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      args.seed = FlagValue("--seed", argv[i] + 7, ParseUint);
    } else if (arg.rfind("--window-scale=", 0) == 0) {
      args.window_scale = FlagValue("--window-scale", argv[i] + 15, ParseDouble);
      if (args.window_scale <= 0.0) {
        std::cerr << "--window-scale must be > 0\n";
        std::exit(2);
      }
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      args.trace_out = std::string(arg.substr(12));
    } else if (arg == "--trace-out" && i + 1 < argc) {
      args.trace_out = argv[++i];
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      args.metrics_out = std::string(arg.substr(14));
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      args.metrics_out = argv[++i];
    } else if (arg.rfind("--attr-out=", 0) == 0) {
      args.attr_out = std::string(arg.substr(11));
    } else if (arg == "--attr-out" && i + 1 < argc) {
      args.attr_out = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "Usage: " << argv[0] << " [--quick] [--seed=N] [--window-scale=X]"
                << ((honoured & kTraceOut) != 0 ? " [--trace-out=P]" : "")
                << ((honoured & kMetricsOut) != 0 ? " [--metrics-out=P]" : "")
                << ((honoured & kAttrOut) != 0 ? " [--attr-out=P]" : "") << "\n"
                << "  --quick           ~8x shorter measurement windows (CI smoke)\n"
                << "  --seed=N          experiment seed (default 42)\n"
                << "  --window-scale=X  multiply warmup+measurement windows by X\n";
      if ((honoured & kTraceOut) != 0) {
        std::cout << "  --trace-out=P     write a Chrome/Perfetto trace of one run to P\n";
      }
      if ((honoured & kMetricsOut) != 0) {
        std::cout << "  --metrics-out=P   write that run's metrics snapshot as CSV to P\n";
      }
      if ((honoured & kAttrOut) != 0) {
        std::cout << "  --attr-out=P      write that run's per-service latency attribution\n"
                     "                    (SLO-miss blame ledger) as CSV to P\n";
      }
      std::exit(0);
    } else {
      std::cerr << "unknown argument: " << arg << " (try --help)\n";
      std::exit(2);
    }
  }
}

// True when --trace-out, --metrics-out or --attr-out was given, i.e. the
// bench should run one arm with a telemetry hub attached.
inline bool TelemetryRequested() {
  const BenchArgs& args = GlobalBenchArgs();
  return !args.trace_out.empty() || !args.metrics_out.empty() || !args.attr_out.empty();
}

// True when --attr-out was given: the instrumented arm should also call
// Hub::EnableAttribution() so per-request latency ledgers are kept.
inline bool AttributionRequested() { return !GlobalBenchArgs().attr_out.empty(); }

// Turns on what the telemetry flags ask `hub` to record beyond metrics:
// spans for --trace-out, per-request latency ledgers for --attr-out.
inline void EnableRequestedTelemetry(telemetry::Hub& hub) {
  if (!GlobalBenchArgs().trace_out.empty()) {
    hub.EnableTracing();
  }
  if (AttributionRequested()) {
    hub.EnableAttribution();
  }
}

// Writes the hub's trace/metrics to the --trace-out / --metrics-out paths
// (whichever were given) and prints where they went. Call once, after the
// instrumented run.
inline void ExportTelemetry(telemetry::Hub& hub) {
  const BenchArgs& args = GlobalBenchArgs();
  if (!args.trace_out.empty()) {
    telemetry::ExportChromeTrace(hub.spans(), args.trace_out);
    std::cout << "wrote trace: " << args.trace_out
              << " (open in https://ui.perfetto.dev)\n";
  }
  if (!args.metrics_out.empty()) {
    telemetry::ExportMetricsCsv(hub.metrics(), args.metrics_out);
    std::cout << "wrote metrics: " << args.metrics_out << "\n";
  }
  if (!args.attr_out.empty()) {
    attribution::ExportAttributionCsv(hub.attribution(), args.attr_out);
    std::cout << "wrote attribution: " << args.attr_out
              << " (render with tools/attribution_report.py)\n";
  }
}

// Standard windows with --quick / --window-scale applied.
inline DurationUs WarmupWindowUs() {
  const BenchArgs& args = GlobalBenchArgs();
  return kWarmupUs * (args.quick ? 0.25 : 1.0) * args.window_scale;
}

inline DurationUs MeasureWindowUs() {
  const BenchArgs& args = GlobalBenchArgs();
  return kDurationUs * (args.quick ? 0.125 : 1.0) * args.window_scale;
}

inline harness::ClientConfig InferenceClient(workloads::ModelId model,
                                             trace::ArrivalKind arrivals,
                                             double rps, bool high_priority) {
  harness::ClientConfig client;
  client.workload = workloads::MakeWorkload(model, workloads::TaskType::kInference);
  client.high_priority = high_priority;
  client.arrivals = arrivals;
  client.rps = rps;
  return client;
}

inline harness::ClientConfig TrainingClient(workloads::ModelId model, bool high_priority) {
  harness::ClientConfig client;
  client.workload = workloads::MakeWorkload(model, workloads::TaskType::kTraining);
  client.high_priority = high_priority;
  client.arrivals = trace::ArrivalKind::kClosedLoop;
  return client;
}

inline harness::ExperimentResult RunPair(const harness::ClientConfig& hp,
                                         const harness::ClientConfig& be,
                                         harness::SchedulerKind scheduler,
                                         const gpusim::DeviceSpec& device =
                                             gpusim::DeviceSpec::V100_16GB(),
                                         const core::OrionOptions& orion_options = {}) {
  harness::ExperimentConfig config;
  config.device = device;
  config.scheduler = scheduler;
  config.orion = orion_options;
  config.warmup_us = WarmupWindowUs();
  config.duration_us = MeasureWindowUs();
  config.seed = GlobalBenchArgs().seed;
  config.clients = {hp, be};
  return harness::RunExperiment(config);
}

// Orion options for a collocation: when the high-priority job is
// throughput-oriented (training), tune SM_THRESHOLD with the §5.1.1 binary
// search (the paper does the same for the train-train experiments);
// otherwise keep the conservative defaults.
inline core::OrionOptions OrionOptionsFor(const harness::ClientConfig& hp,
                                          const harness::ClientConfig& be,
                                          const gpusim::DeviceSpec& device =
                                              gpusim::DeviceSpec::V100_16GB()) {
  core::OrionOptions options;
  // §5.1.1: SM_THRESHOLD is tuned when the high-priority job is
  // throughput-oriented — training, or closed-loop inference (Fig. 2).
  const bool throughput_oriented =
      hp.workload.task == workloads::TaskType::kTraining ||
      hp.arrivals == trace::ArrivalKind::kClosedLoop;
  if (!throughput_oriented) {
    return options;
  }
  harness::ExperimentConfig config;
  config.device = device;
  config.scheduler = harness::SchedulerKind::kOrion;
  config.warmup_us = WarmupWindowUs();
  config.seed = GlobalBenchArgs().seed;
  config.clients = {hp, be};
  options.sm_threshold = harness::TuneSmThreshold(config).best_threshold;
  return options;
}

// A workload's model state rounded up to whole pager pages: the memory it
// occupies once the unified-memory pager manages it.
inline std::size_t PagedStateBytes(const workloads::WorkloadSpec& workload) {
  const std::size_t pages =
      (workloads::ApproxModelStateBytes(workload) + memsub::kPageBytes - 1) / memsub::kPageBytes;
  return pages * memsub::kPageBytes;
}

// Best-effort throughput of a two-client result.
inline double BeThroughput(const harness::ExperimentResult& result) {
  double throughput = 0.0;
  for (const auto& client : result.clients) {
    if (!client.high_priority) {
      throughput += client.throughput_rps;
    }
  }
  return throughput;
}

inline void PrintHeader(const std::string& artefact, const std::string& title) {
  std::cout << "\n=== " << artefact << ": " << title << " ===\n"
            << "(simulated V100 unless stated; shapes, not absolute numbers, "
               "are the reproduction target)\n\n";
}

inline const char* YesNo(bool held) { return held ? "yes" : "no"; }

// One predicate of an ACCEPTANCE line. A predicate that reads a latency
// percentile also gives `sample`, the size of the smallest latency sample it
// reads: the percentile of an empty sample is 0, which would let a bound such
// as "p99 <= 1.05x ideal" hold on runs that completed nothing.
struct Predicate {
  std::string_view name;
  bool held = false;
  std::optional<std::size_t> sample = std::nullopt;
};

// Prints the verdict line `ACCEPTANCE <artefact>: name=yes|no ...` that CI
// greps. A predicate whose latency sample is empty prints `no`, and a
// `sample guard:` line above the verdict names it. Returns whether every
// predicate printed `yes`.
inline bool PrintAcceptance(std::string_view artefact, const std::vector<Predicate>& predicates) {
  for (const Predicate& predicate : predicates) {
    if (predicate.sample == 0u) {
      std::cout << "sample guard: " << predicate.name
                << " reads a latency percentile of 0 requests, so it prints no\n";
    }
  }
  bool all = true;
  std::cout << "ACCEPTANCE " << artefact << ":";
  for (const Predicate& predicate : predicates) {
    const bool held = predicate.held && predicate.sample != 0u;
    std::cout << " " << predicate.name << "=" << YesNo(held);
    all = all && held;
  }
  std::cout << "\n";
  return all;
}

}  // namespace bench
}  // namespace orion

#endif  // BENCH_BENCH_UTIL_H_
