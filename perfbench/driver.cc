// End-to-end benchmark driver for the simulator.
//
// Usage:
//   orion_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--setup-only] [--spans-out PATH]
//
// One process, one thread: the simulator is single-threaded, and the runs
// go back to back like a single caller in a closed loop (arrivals inside the
// model are open-loop in simulated time, so there is no host-side generator
// to fall behind). The driver calls the libraries' public entry points
// (harness::RunExperiment, datacenter::RunCluster, profiler::ProfileWorkload,
// gpusim::Device on a Simulator it owns) and times each call from outside.
//
// Phases:
//   set-up  config generation, one ProfileWorkload per distinct (device,
//           workload), and one untimed warm-up run;
//   timed   the workload's runs, cycled in order for S seconds (at least one
//           full pass); each run's host time is the minimum over its passes;
//   checks  every repeat must reproduce the first pass's digest, the first
//           run is repeated once more at the end and compared field by field,
//           plus the workload's own identities (see CheckRun).
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
// traced passes (spans around every call, a metrics-only telemetry::Hub per
// run), then times the profiler and replays kernel pairs and 2 MiB copies
// through gpusim::Device, and prints the per-layer metrics. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/gpusim/device.h"
#include "src/sim/simulator.h"
#include "src/telemetry/telemetry.h"

namespace perfbench {
namespace {

using orion::datacenter::ClusterResult;
using orion::harness::ExperimentResult;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) {
    total += v;
  }
  return total;
}

// num / den, or 0 when there is nothing to divide by (a layer the workload
// never calls).
double Per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size());
  std::size_t index = static_cast<std::size_t>(rank);
  if (static_cast<double>(index) < rank) {
    ++index;
  }
  return values[std::max<std::size_t>(index, 1) - 1];
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool setup_only = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    char* end = nullptr;
    if (arg == "--setup-only") {
      args->setup_only = true;
    } else if (!has_value) {
      std::cerr << "missing value for " << arg << "\n";
      return false;
    } else if (arg == "--workload") {
      args->workload = argv[++i];
    } else if (arg == "--seed") {
      args->seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0';
    } else if (arg == "--seconds") {
      args->seconds = std::strtod(argv[++i], &end);
      have_seconds = end != nullptr && *end == '\0' && args->seconds > 0.0;
    } else if (arg == "--trace") {
      const std::string value = argv[++i];
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (arg == "--spans-out") {
      args->spans_out = argv[++i];
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return false;
    }
  }
  if (args->setup_only) {
    return have_seed && !args->workload.empty();
  }
  return have_seed && have_seconds && have_trace && !args->workload.empty();
}

// ---------------------------------------------------------------------------
// Digest of simulated numbers (FNV-1a over their bit patterns).

class Digest {
 public:
  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  void F64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  void Str(const std::string& s) {
    for (const char c : s) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    U64(s.size());
  }
  // Sorted, so the digest does not depend on whether a percentile query
  // already sorted the recorder in place.
  void Samples(const orion::LatencyRecorder& recorder) {
    std::vector<double> samples = recorder.samples();
    std::sort(samples.begin(), samples.end());
    U64(samples.size());
    for (const double s : samples) {
      F64(s);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t DigestOf(const ExperimentResult& r) {
  Digest d;
  d.Str(r.scheduler_name);
  for (const auto& c : r.clients) {
    d.Str(c.name);
    d.U64(c.completed);
    d.U64(c.completed_total);
    d.F64(c.throughput_rps);
    d.Samples(c.latency);
    d.Samples(c.queueing);
    d.Samples(c.service);
    d.U64(c.slo_misses);
    d.U64(c.page_faults);
    d.F64(c.page_stall_us);
  }
  d.F64(r.utilization.compute);
  d.F64(r.utilization.membw);
  d.F64(r.utilization.sm_busy);
  d.U64(r.memory_deficit_bytes);
  d.U64(r.memory_used_end_bytes);
  d.U64(r.paging.accesses);
  d.U64(r.paging.faults);
  d.U64(r.paging.evictions);
  d.U64(r.paging.writebacks);
  d.U64(r.paging.fault_bytes_h2d);
  d.U64(r.paging.writeback_bytes_d2h);
  d.F64(r.paging.stall_us);
  d.U64(r.tq_exclusive_entries);
  d.U64(r.tq_quanta);
  d.F64(r.tq_exclusive_us);
  return d.value();
}

std::uint64_t DigestOf(const ClusterResult& r) {
  Digest d;
  const orion::serving::ServingResult& s = r.serving;
  for (const auto& m : s.models) {
    d.Str(m.name);
    for (const std::size_t v : {m.offered, m.completed, m.slo_met, m.shed, m.dropped,
                                m.failed_over, m.batches, m.total_offered, m.total_completed,
                                m.total_shed, m.total_dropped, m.left_in_system}) {
      d.U64(v);
    }
    d.F64(m.slo_attainment);
    d.F64(m.throughput_rps);
    d.F64(m.mean_batch_size);
    d.U64(static_cast<std::uint64_t>(m.final_replicas));
    d.Samples(m.latency);
    d.Samples(m.queueing);
  }
  for (const std::size_t v : {s.scale_ups, s.scale_downs, s.scale_failures, s.faults_injected,
                              s.faults_skipped, s.replicas_lost, s.replacements,
                              s.replacement_failures, s.gpus_alive_end}) {
    d.U64(v);
  }
  d.F64(s.replica_seconds);
  for (const auto& n : r.nodes) {
    d.U64(n.alive_end ? 1 : 0);
    d.U64(n.replicas_created);
    d.U64(n.replicas_killed);
    d.U64(n.batches);
    d.U64(n.requests);
  }
  d.U64(r.nodes_alive_end);
  d.U64(r.node_faults);
  d.U64(r.requests_forwarded);
  d.F64(r.request_bytes_moved);
  d.F64(r.response_bytes_moved);
  return d.value();
}

// Exact completions, p50 and p99 per client: the harness's own equality test
// for runs that must agree (ext_memory_oversub's inertness check).
bool SameExperiment(const ExperimentResult& a, const ExperimentResult& b) {
  if (a.clients.size() != b.clients.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.clients.size(); ++i) {
    if (a.clients[i].completed != b.clients[i].completed ||
        a.clients[i].latency.p50() != b.clients[i].latency.p50() ||
        a.clients[i].latency.p99() != b.clients[i].latency.p99()) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Spans recorded around the driver's calls into the libraries.

struct Span {
  std::string name;  // "<layer>.<call>"
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  long run = -1;  // index into the workload's runs, or -1
};

class SpanLog {
 public:
  int Begin(const std::string& name, int parent, long run) {
    spans_.push_back({name, SecondsBetween(kProcessStart, Clock::now()), 0.0, parent, run});
    return static_cast<int>(spans_.size()) - 1;
  }
  double End(int id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_s = SecondsBetween(kProcessStart, Clock::now());
    return span.end_s - span.start_s;
  }
  std::size_t size() const { return spans_.size(); }

  // Self time per layer: a span's duration minus the part its children cover.
  std::map<std::string, double> SelfSecondsByLayer() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::string& name = spans_[i].name;
      self[name.substr(0, name.find('.'))] += spans_[i].end_s - spans_[i].start_s - child[i];
    }
    return self;
  }

  bool Write(const std::string& path, const std::string& workload, std::uint64_t seed) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    out.precision(9);
    out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
        << ", \"time_unit\": \"s since process start\", \"self_s\": {";
    bool first = true;
    for (const auto& [layer, seconds] : SelfSecondsByLayer()) {
      out << (first ? "" : ", ") << "\"" << layer << "\": " << seconds;
      first = false;
    }
    out << "}, \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"start\": " << s.start_s
          << ", \"end\": " << s.end_s << ", \"parent\": " << s.parent << ", \"run\": " << s.run
          << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Running one simulation and checking it.

// What the checks and model metrics need from one run.
struct Outcome {
  std::uint64_t digest = 0;
  double hp_p99_ms = 0.0;    // hp client; clusters: geometric mean over latency-critical services
  double goodput_rps = 0.0;  // completions (clusters: SLO-met completions) per simulated s
  // Model-metric runs only: hp (clusters: latency-critical service) latency
  // samples in µs, keyed by workload or service name.
  std::vector<std::pair<std::string, std::vector<double>>> hp_latency_us;
  double offered = 0.0;      // clusters: offered_total over all services
  double forwarded = 0.0;    // clusters: requests sent over the network
  bool conserved = true;     // clusters: offered == completed + shed + dropped + in-system
};

struct Results {
  ExperimentResult experiment;
  ClusterResult cluster;
};

Outcome Summarize(const SimRun& run, const Results& r) {
  Outcome o;
  if (run.kind == RunKind::kExperiment) {
    o.digest = DigestOf(r.experiment);
    const orion::harness::ClientResult& hp = r.experiment.hp();
    o.hp_p99_ms = orion::UsToMs(hp.latency.p99());
    o.goodput_rps = r.experiment.TotalThroughput();
    if (run.model_metric) {
      o.hp_latency_us.emplace_back(hp.name, hp.latency.samples());
    }
    return o;
  }
  o.digest = DigestOf(r.cluster);
  const auto& s = r.cluster.serving;
  double log_p99 = 0.0;
  int lc = 0;
  double slo_met = 0.0;
  for (const auto& m : s.models) {
    if (m.tier == orion::serving::PriorityTier::kLatencyCritical) {
      log_p99 += std::log(orion::UsToMs(m.latency.p99()));
      ++lc;
      if (run.model_metric) {
        o.hp_latency_us.emplace_back(m.name, m.latency.samples());
      }
    }
    slo_met += static_cast<double>(m.slo_met);
    o.offered += static_cast<double>(m.total_offered);
    o.conserved = o.conserved && m.total_offered == m.total_completed + m.total_shed +
                                                        m.total_dropped + m.left_in_system;
  }
  o.hp_p99_ms = lc > 0 ? std::exp(log_p99 / lc) : 0.0;
  o.goodput_rps = slo_met / orion::UsToSec(s.window_us);
  o.forwarded = static_cast<double>(r.cluster.requests_forwarded);
  return o;
}

// Calls the run's library entry point and returns the host seconds of that
// call alone. `hub` (may be null) is attached to a copy of the config.
double Execute(const SimRun& run, orion::telemetry::Hub* hub, Results* out) {
  if (run.kind == RunKind::kExperiment) {
    orion::harness::ExperimentConfig config = run.experiment;
    config.telemetry = hub;
    const Clock::time_point t0 = Clock::now();
    out->experiment = orion::harness::RunExperiment(config);
    return SecondsBetween(t0, Clock::now());
  }
  orion::datacenter::ClusterConfig config = run.cluster;
  config.serving.telemetry = hub;
  const Clock::time_point t0 = Clock::now();
  out->cluster = orion::datacenter::RunCluster(config);
  return SecondsBetween(t0, Clock::now());
}

// Distinct (device, workload, options) inputs of RunExperiment's offline
// profiling phase, with the number of ProfileWorkload calls one pass makes
// on each (one per distinct workload per RunExperiment).
struct ProfileInput {
  orion::gpusim::DeviceSpec device;
  orion::workloads::WorkloadSpec workload;
  orion::profiler::ProfileOptions options;
  std::size_t calls_per_pass = 0;
};

std::vector<ProfileInput> ProfileInputs(const Workload& w) {
  std::map<std::string, ProfileInput> inputs;
  for (const SimRun& run : w.runs) {
    if (run.kind != RunKind::kExperiment) {
      continue;
    }
    const auto& config = run.experiment;
    std::set<std::string> seen;
    for (const auto& client : config.clients) {
      const std::string name = orion::workloads::WorkloadName(client.workload);
      if (!seen.insert(name).second) {
        continue;
      }
      ProfileInput input{config.device, client.workload, config.profile_options, 0};
      input.options.launch_overhead_us = config.launch_overhead_us;
      const std::string key = config.device.name + "/" +
                              std::to_string(config.device.memory_bytes) + "/" + name + "/" +
                              std::to_string(input.options.launch_overhead_us);
      inputs.emplace(key, input).first->second.calls_per_pass += 1;
    }
  }
  std::vector<ProfileInput> out;
  for (auto& [key, input] : inputs) {
    out.push_back(input);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Metrics output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// The benchmark.

class Bench {
 public:
  Bench(const Args& args, Workload workload)
      : args_(args), w_(std::move(workload)), n_(w_.runs.size()) {}

  // Offline profiling pass and one untimed warm-up run.
  void SetUp() {
    for (const ProfileInput& input : ProfileInputs(w_)) {
      orion::profiler::ProfileWorkload(input.device, input.workload, input.options);
    }
    Results warm;
    Execute(w_.runs.front(), nullptr, &warm);
  }

  // `setup_s`: host seconds from process start to the end of SetUp.
  int Run(double setup_s) {
    setup_s_ = setup_s;
    const bool traced = args_.trace;
    first_.resize(n_);
    untraced_walls_.assign(n_, {});
    traced_walls_.assign(n_, {});
    const Clock::time_point start = Clock::now();
    // Passes run whole; with tracing, even passes are untraced and odd
    // passes traced, so both see the same machine state on average.
    for (std::size_t pass = 0;; ++pass) {
      const bool trace_pass = traced && pass % 2 == 1;
      RunPass(pass, trace_pass);
      const bool enough = !traced || pass >= 1;
      if (enough && SecondsBetween(start, Clock::now()) >= args_.seconds) {
        passes_ = pass + 1;
        break;
      }
    }
    RepeatFirstRun();

    PrintSummary();
    std::vector<Metric> metrics = traced ? LayerMetrics() : EndToEndMetrics();
    if (traced && !args_.spans_out.empty() &&
        !spans_.Write(args_.spans_out, w_.name, args_.seed)) {
      std::cerr << "cannot write " << args_.spans_out << "\n";
      return 1;
    }
    PrintResult(failed_ == 0, attempted_, failed_, metrics);
    return 0;
  }

 private:
  void Fail(std::size_t i, const std::string& why) {
    ++failed_;
    std::cout << "CHECK FAILED: " << w_.runs[i].label << ": " << why << "\n";
  }

  void RunPass(std::size_t pass, bool trace_pass) {
    const int pass_span = trace_pass ? spans_.Begin("driver.pass", -1, -1) : -1;
    Results previous;  // the run before, for the paging on/off comparison
    for (std::size_t i = 0; i < n_; ++i) {
      const SimRun& run = w_.runs[i];
      Results results;
      double wall = 0.0;
      if (trace_pass) {
        orion::telemetry::Hub hub;
        const int span = spans_.Begin(run.kind == RunKind::kExperiment
                                          ? "harness.RunExperiment"
                                          : "datacenter.RunCluster",
                                      pass_span, static_cast<long>(i));
        Execute(run, &hub, &results);
        wall = spans_.End(span);
        if (!counted_) {
          CountHub(hub);
        }
        traced_walls_[i].push_back(wall);
      } else {
        wall = Execute(run, nullptr, &results);
        untraced_walls_[i].push_back(wall);
      }
      ++attempted_;
      if (pass == 0 && i == 0) {
        // Copied before Summarize: percentile queries sort recorders in
        // place, and the final repeat compares raw sample order.
        first_results_ = results;
      }
      const Outcome outcome = Summarize(run, results);
      if (pass == 0) {
        first_[i] = outcome;
        CheckRun(i, outcome, results, previous);
      } else if (outcome.digest != first_[i].digest) {
        Fail(i, trace_pass ? "traced run differs from the untraced run (observer not pure)"
                           : "repeat differs from the first pass");
      }
      previous = std::move(results);
    }
    if (trace_pass) {
      spans_.End(pass_span);
      counted_ = true;
    }
  }

  // First-pass checks of the workload's own identities.
  void CheckRun(std::size_t i, const Outcome& outcome, const Results& results,
                const Results& previous) {
    const SimRun& run = w_.runs[i];
    if (run.model_metric && !(outcome.hp_p99_ms > 0.0 && outcome.goodput_rps > 0.0)) {
      Fail(i, "no hp completions or no goodput");
    }
    if (run.kind == RunKind::kCluster && !outcome.conserved) {
      Fail(i, "offered != completed + shed + dropped + left_in_system");
    }
    const bool paging_off_twin = i > 0 && w_.runs[i - 1].paging_off_twin == static_cast<int>(i);
    if (paging_off_twin && !SameExperiment(previous.experiment, results.experiment)) {
      Fail(i, "1.0x run differs with the pager on and off");
    }
  }

  // The first run once more after the timed phase, compared field by field.
  void RepeatFirstRun() {
    Results again;
    Execute(w_.runs.front(), nullptr, &again);
    ++attempted_;
    const bool same = w_.runs.front().kind == RunKind::kExperiment
                          ? SameExperiment(first_results_.experiment, again.experiment)
                          : orion::datacenter::ClusterResultsBitIdentical(first_results_.cluster,
                                                                          again.cluster);
    if (!same) {
      Fail(0, "final repeat of the first run is not identical");
    }
  }

  void CountHub(const orion::telemetry::Hub& hub) {
    const auto& reg = hub.metrics();
    for (const char* name :
         {"orion.be_polls", "orion.be_polls_coalesced", "orion.be_kernels_submitted",
          "orion.be_throttle_skips", "orion.be_profile_skips", "tq.quanta",
          "tq.exclusive_entries", "memsub.faults", "memsub.evictions",
          "fabric.transfers_started"}) {
      hub_counts_[name] += reg.CounterValue(name);
    }
    for (const auto& row : reg.Snapshot()) {
      if (row.name == "memsub.fault_stall_us" || row.name == "serving.batches") {
        hub_counts_[row.name] += row.kind == orion::telemetry::MetricKind::kHistogram
                                     ? row.sum
                                     : row.value;
      }
    }
  }

  // Per-run host seconds: the fastest of the run's passes of one kind. Other
  // tenants of the machine only ever add time, in episodes lasting seconds;
  // the minimum over a run's passes tracks the uncontended cost, where the
  // median drifts with how much of the window such an episode covered.
  std::vector<double> RunSeconds(const std::vector<std::vector<double>>& walls) const {
    std::vector<double> out(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      out[i] = walls[i].empty() ? 0.0 : *std::min_element(walls[i].begin(), walls[i].end());
    }
    return out;
  }

  double PassSimSeconds() const {
    double total = 0.0;
    for (const SimRun& run : w_.runs) {
      total += run.SimSeconds();
    }
    return total;
  }

  // model.hp_p99_ms: per hp workload (clusters: latency-critical service),
  // the p99 of its requests pooled over the model-metric runs, then the
  // geometric mean over workloads. Pooling gives the tail enough samples
  // (BERT at 4 rps sees a handful per run), and the geometric mean weighs
  // every workload the same in relative terms. model.goodput_rps: the
  // geometric mean over the runs. CheckRun keeps every term positive.
  void ModelMetrics(double* p99_ms, double* goodput) const {
    std::map<std::string, orion::LatencyRecorder> pooled;
    double log_tput = 0.0;
    int runs = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (!w_.runs[i].model_metric) {
        continue;
      }
      for (const auto& [name, samples] : first_[i].hp_latency_us) {
        orion::LatencyRecorder& recorder = pooled[name];
        for (const double us : samples) {
          recorder.Add(us);
        }
      }
      log_tput += std::log(first_[i].goodput_rps);
      ++runs;
    }
    double log_p99 = 0.0;
    for (const auto& [name, recorder] : pooled) {
      log_p99 += std::log(orion::UsToMs(recorder.p99()));
    }
    *p99_ms = pooled.empty() ? 0.0 : std::exp(log_p99 / static_cast<double>(pooled.size()));
    *goodput = runs > 0 ? std::exp(log_tput / runs) : 0.0;
  }

  std::uint64_t WorkloadDigest() const {
    Digest d;
    for (const Outcome& o : first_) {
      d.U64(o.digest);
    }
    return d.value();
  }

  void PrintSummary() const {
    const double host = Sum(RunSeconds(untraced_walls_));
    std::printf("workload %s seed %llu: %zu runs per pass, %zu passes, %.1f simulated s per pass\n",
                w_.name.c_str(), static_cast<unsigned long long>(args_.seed), n_, passes_,
                PassSimSeconds());
    std::printf("host s per pass (sum of per-run minima): %.4f; untraced passes:", host);
    for (std::size_t pass = 0;; ++pass) {
      double total = 0.0;
      bool any = false;
      for (const auto& walls : untraced_walls_) {
        if (pass < walls.size()) {
          total += walls[pass];
          any = true;
        }
      }
      if (!any) {
        break;
      }
      std::printf(" %.4f", total);
    }
    std::printf("\n");
    std::printf("run_fail_frac: %.6g (%zu of %zu runs failed a check)\n",
                Per(static_cast<double>(failed_), static_cast<double>(attempted_)), failed_,
                attempted_);
    std::printf("simulated-output digest %s: %016llx\n", w_.name.c_str(),
                static_cast<unsigned long long>(WorkloadDigest()));
    if (w_.name == "colloc_sweep") {
      PrintReference();
    }
  }

  // Orion hp p99 / ideal, as fig06 computes it: per hp model, mean p99 over
  // the partners for each technique, then the mean ratio over models.
  void PrintReference() const {
    std::map<std::string, std::pair<double, double>> by_model;  // ideal, orion sums
    for (std::size_t i = 0; i < n_; ++i) {
      const auto& config = w_.runs[i].experiment;
      const std::string hp = orion::workloads::WorkloadName(config.clients.front().workload);
      if (config.scheduler == orion::harness::SchedulerKind::kDedicated) {
        by_model[hp].first += first_[i].hp_p99_ms;
      } else if (config.scheduler == orion::harness::SchedulerKind::kOrion) {
        by_model[hp].second += first_[i].hp_p99_ms;
      }
    }
    double ratio = 0.0;
    for (const auto& [model, sums] : by_model) {
      ratio += sums.second / sums.first;
    }
    ratio /= static_cast<double>(by_model.size());
    std::printf(
        "reference: Orion hp p99 / ideal = %.3fx here; the paper reports within 14%% of ideal "
        "(1.14x, sec. 6.2.1), EXPERIMENTS.md records 1.01x for fig06. Simulated numbers; the "
        "model is not validated against real hardware.\n",
        ratio);
  }

  std::vector<Metric> EndToEndMetrics() const {
    const double host = Sum(RunSeconds(untraced_walls_));
    double p99 = 0.0;
    double goodput = 0.0;
    ModelMetrics(&p99, &goodput);
    return {
        {"sim_s_per_host_s", PassSimSeconds() / host, "s/s"},
        {"setup_s", setup_s_, "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"model.hp_p99_ms", p99, "ms"},
        {"model.goodput_rps", goodput, "1/s"},
    };
  }

  std::vector<Metric> LayerMetrics() {
    const std::vector<double> traced = RunSeconds(traced_walls_);
    const double traced_total = Sum(traced);
    const double untraced_total = Sum(RunSeconds(untraced_walls_));

    // harness / datacenter: host ms per call, from the traced passes.
    std::vector<double> exp_ms;
    std::vector<double> cluster_ms;
    std::map<std::string, std::vector<double>> by_scheduler;
    double cluster_s = 0.0;
    double offered = 0.0;
    double forwarded = 0.0;
    double twin_on_s = 0.0;
    double twin_off_s = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      const SimRun& run = w_.runs[i];
      if (run.kind == RunKind::kExperiment) {
        exp_ms.push_back(1e3 * traced[i]);
        by_scheduler[orion::harness::SchedulerKindName(run.experiment.scheduler)].push_back(
            1e3 * traced[i]);
      } else {
        cluster_ms.push_back(1e3 * traced[i]);
        cluster_s += traced[i];
        offered += first_[i].offered;
        forwarded += first_[i].forwarded;
      }
      if (run.paging_off_twin >= 0) {
        twin_on_s += traced[i];
        twin_off_s += traced[static_cast<std::size_t>(run.paging_off_twin)];
      }
    }

    // profiler: ProfileWorkload timed directly on the inputs RunExperiment uses.
    const int profile_root = spans_.Begin("driver.profile", -1, -1);
    double profile_calls = 0.0;
    double profile_s = 0.0;
    for (const ProfileInput& input : ProfileInputs(w_)) {
      std::vector<double> walls;
      for (int rep = 0; rep < 3; ++rep) {
        const int span = spans_.Begin("profiler.ProfileWorkload", profile_root, -1);
        orion::profiler::ProfileWorkload(input.device, input.workload, input.options);
        walls.push_back(spans_.End(span));
      }
      profile_calls += static_cast<double>(input.calls_per_pass);
      profile_s += static_cast<double>(input.calls_per_pass) *
                   *std::min_element(walls.begin(), walls.end());
    }
    spans_.End(profile_root);

    const Replay replay = ReplayDevice();

    const auto count = [this](const char* name) {
      const auto it = hub_counts_.find(name);
      return it == hub_counts_.end() ? 0.0 : it->second;
    };
    const double polls = count("orion.be_polls");
    const double submitted = count("orion.be_kernels_submitted");
    std::printf("core.orion: %.0f be polls for %.0f be kernels submitted (%.3f polls per kernel)\n",
                polls, submitted, Per(polls, submitted));
    const auto sched_ms = [&by_scheduler](const char* name) { return Median(by_scheduler[name]); };
    const auto overhead = [](double with, double without) {
      return without > 0.0 ? with / without - 1.0 : 0.0;
    };
    return {
        {"profiler.calls", profile_calls, "count"},
        {"profiler.ms_per_call", 1e3 * Per(profile_s, profile_calls), "ms"},
        {"profiler.share", Per(profile_s, traced_total), "frac"},
        {"harness.runs", static_cast<double>(exp_ms.size()), "count"},
        {"harness.run_ms_p50", Median(exp_ms), "ms"},
        // A p90 needs ten samples above it.
        {"harness.run_ms_p90", exp_ms.size() >= 100 ? Percentile(exp_ms, 90.0) : 0.0, "ms"},
        {"harness.run_ms_p50.ideal", sched_ms("ideal"), "ms"},
        {"harness.run_ms_p50.temporal", sched_ms("temporal"), "ms"},
        {"harness.run_ms_p50.streams", sched_ms("streams"), "ms"},
        {"harness.run_ms_p50.mps", sched_ms("mps"), "ms"},
        {"harness.run_ms_p50.reef", sched_ms("reef"), "ms"},
        {"harness.run_ms_p50.orion", sched_ms("orion"), "ms"},
        {"harness.run_ms_p50.nvshare-tq", sched_ms("nvshare-tq"), "ms"},
        {"gpusim.kernels", replay.kernels, "count"},
        {"gpusim.ns_per_kernel", 1e9 * Per(replay.kernel_s, replay.kernels), "ns"},
        {"gpusim.copies", replay.copies, "count"},
        {"gpusim.ns_per_copy", 1e9 * Per(replay.copy_s, replay.copies), "ns"},
        {"sim.events", replay.events, "count"},
        {"sim.ns_per_event", 1e9 * Per(replay.run_s, replay.events), "ns"},
        {"core.orion.be_polls", polls, "count"},
        {"core.orion.be_polls_coalesced", count("orion.be_polls_coalesced"), "count"},
        {"core.orion.be_kernels_submitted", submitted, "count"},
        {"core.orion.be_throttle_skips", count("orion.be_throttle_skips"), "count"},
        {"core.orion.be_profile_skips", count("orion.be_profile_skips"), "count"},
        {"baselines.tq.quanta", count("tq.quanta"), "count"},
        {"baselines.tq.exclusive_entries", count("tq.exclusive_entries"), "count"},
        {"memsub.faults", count("memsub.faults"), "count"},
        {"memsub.evictions", count("memsub.evictions"), "count"},
        {"memsub.fault_stall_us", count("memsub.fault_stall_us"), "us"},
        {"memsub.inert_overhead_frac", overhead(twin_on_s, twin_off_s), "frac"},
        {"datacenter.runs", static_cast<double>(cluster_ms.size()), "count"},
        {"datacenter.run_ms_p50", Median(cluster_ms), "ms"},
        {"serving.ns_per_request", 1e9 * Per(cluster_s, offered), "ns"},
        {"serving.offered_total", offered, "count"},
        {"serving.batches", count("serving.batches"), "count"},
        {"datacenter.requests_forwarded", forwarded, "count"},
        {"interconnect.fabric.transfers_started", count("fabric.transfers_started"), "count"},
        {"telemetry.hub_overhead_frac", overhead(traced_total, untraced_total), "frac"},
        {"trace.spans", static_cast<double>(spans_.size()), "count"},
    };
  }

  struct Replay {
    double kernels = 0.0;
    double kernel_s = 0.0;  // launch + drain of the kernel replays
    double copies = 0.0;
    double copy_s = 0.0;
    double events = 0.0;
    double run_s = 0.0;  // Simulator::RunUntilIdle time, both replays
  };

  // Replays every distinct (hp, be) kernel pair on two priority streams of
  // a fresh device until drained, then 2 MiB H2D/D2H copy traffic.
  Replay ReplayDevice() {
    constexpr int kRequests = 4;  // requests per stream and pair
    constexpr int kCopies = 256;  // copies per direction
    constexpr std::size_t kCopyBytes = std::size_t{2} * 1024 * 1024;
    Replay r;
    if (w_.kernel_pairs.empty()) {
      return r;
    }
    const int root = spans_.Begin("driver.replay", -1, -1);
    for (const auto& [hp, be] : w_.kernel_pairs) {
      const auto hp_kernels = orion::workloads::BuildKernels(w_.device, hp);
      const auto be_kernels = orion::workloads::BuildKernels(w_.device, be);
      orion::Simulator sim;
      orion::gpusim::Device device(&sim, w_.device);
      const int span = spans_.Begin("gpusim.ReplayKernels", root, -1);
      const auto high = device.CreateStream(orion::gpusim::kPriorityHigh);
      const auto low = device.CreateStream(orion::gpusim::kPriorityDefault);
      for (int req = 0; req < kRequests; ++req) {
        for (const auto& k : hp_kernels) {
          device.LaunchKernel(high, k);
        }
        for (const auto& k : be_kernels) {
          device.LaunchKernel(low, k);
        }
      }
      const int run = spans_.Begin("sim.RunUntilIdle", span, -1);
      sim.RunUntilIdle();
      r.run_s += spans_.End(run);
      r.kernel_s += spans_.End(span);
      r.kernels += static_cast<double>(device.kernels_completed());
      r.events += static_cast<double>(sim.events_processed());
    }
    {
      orion::Simulator sim;
      orion::gpusim::Device device(&sim, w_.device);
      const int span = spans_.Begin("gpusim.ReplayCopies", root, -1);
      const auto high = device.CreateStream(orion::gpusim::kPriorityHigh);
      const auto low = device.CreateStream(orion::gpusim::kPriorityDefault);
      for (int c = 0; c < kCopies; ++c) {
        device.EnqueueMemcpy(low, kCopyBytes, orion::gpusim::MemcpyKind::kHostToDevice);
        device.EnqueueMemcpy(high, kCopyBytes, orion::gpusim::MemcpyKind::kDeviceToHost);
      }
      const int run = spans_.Begin("sim.RunUntilIdle", span, -1);
      sim.RunUntilIdle();
      r.run_s += spans_.End(run);
      r.copy_s += spans_.End(span);
      r.copies += static_cast<double>(device.memcpys_completed());
      r.events += static_cast<double>(sim.events_processed());
    }
    spans_.End(root);
    return r;
  }

  const Args args_;
  const Workload w_;
  const std::size_t n_;
  double setup_s_ = 0.0;
  std::size_t passes_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<Outcome> first_;
  Results first_results_;
  std::vector<std::vector<double>> untraced_walls_;
  std::vector<std::vector<double>> traced_walls_;
  SpanLog spans_;
  bool counted_ = false;  // hub counters cover exactly one traced pass
  std::map<std::string, double> hub_counts_;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: orion_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--setup-only] [--spans-out PATH]\n";
    return 2;
  }
  perfbench::Workload workload;
  if (!perfbench::MakeWorkload(args.workload, args.seed, &workload)) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  perfbench::Bench bench(args, std::move(workload));
  bench.SetUp();
  const double setup_s =
      perfbench::SecondsBetween(perfbench::kProcessStart, std::chrono::steady_clock::now());
  if (args.setup_only) {
    std::printf("{\"setup_s\": %.17g}\n", setup_s);
    return 0;
  }
  return bench.Run(setup_s);
}
