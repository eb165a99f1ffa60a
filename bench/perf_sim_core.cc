// Perf bench: simulation-core throughput baseline (BENCH_simcore.json).
//
// Every layer of the reproduction — kernel dispatch, fabric transfers,
// serving timers, telemetry spans — funnels through Simulator::Step, and
// trace-driven replay at scale is gated on how fast that hot path turns
// events over. This bench pins the perf trajectory with four microbenches
// plus a wall-clock measurement of the online-serving smoke run:
//
//   event_loop_heap_small  self-rescheduling timer chains, 8-byte captures
//                          (the scattered-deadline heap path)
//   event_loop_heap_large  same, 48-byte captures (exercises the callback
//                          small-buffer storage; std::function heap-allocates
//                          captures this size)
//   event_loop_fifo        zero-delay bursts at one timestamp (the dominant
//                          same-time-FIFO cascade: completion -> poll -> submit)
//   event_loop_cancel      schedule/cancel churn (linger timers, watchdogs,
//                          fabric completion reschedules are all cancel-heavy)
//   fabric_churn           8-GPU NVLink-pair fabric under transfer churn with
//                          link flaps and cancels (incremental rebalance path)
//   device_kernel_pair     one fig06 kernel pair replayed on a high- and a
//                          default-priority stream of a device until drained
//                          (gpusim per-kernel cost; events = kernels)
//   fig06_pair_run         one warm harness::RunExperiment of the fig06 Orion
//                          pair at --quick windows: client drivers, the
//                          Orion scheduler and the device together
//                          (events = kernels of completed requests)
//   serving_inprocess      repeated serving::RunServing of the ext_online_serving
//                          base configuration at --quick windows
//   cluster_serving        repeated datacenter::RunCluster of a 4-node x 2-GPU
//                          cluster
//   ext_online_serving     wall clock of the sibling binary with --quick, when
//                          it is present next to this one
//
// Wall-clock numbers are real time (std::chrono::steady_clock), everything
// else is deterministic. Results go to BENCH_simcore.json (see --out) via the
// bench_json writer; CI validates the JSON and archives it per commit —
// baseline only, no gating thresholds yet.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "src/common/check.h"
#include "src/datacenter/cluster.h"
#include "src/gpusim/device.h"
#include "src/harness/experiment.h"
#include "src/interconnect/fabric.h"
#include "src/interconnect/topology.h"
#include "src/serving/serving.h"
#include "src/sim/simulator.h"
#include "src/trace/request_rates.h"
#include "src/workloads/models.h"

using namespace orion;

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// Deterministic 64-bit LCG (same constants as common/rng's splitmix seeding);
// the benches must not consume the experiment RNG streams.
std::uint64_t Lcg(std::uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 16;
}

struct Measurement {
  std::string name;
  std::size_t events = 0;    // events processed (or transfers, runs)
  double wall_ms_min = 0.0;  // best of `repeats` (least scheduler noise)
  double wall_ms_mean = 0.0;
  int repeats = 0;
  double extra = -1.0;  // bench-specific: see per-bench comment
};

std::vector<Measurement>& AllMeasurements() {
  static std::vector<Measurement> measurements;
  return measurements;
}

// Runs `body` (which returns the number of events it processed) `repeats`
// times and records min/mean wall time plus derived rates.
template <typename Body>
Measurement& Measure(const std::string& name, int repeats, Body body) {
  Measurement m;
  m.name = name;
  m.repeats = repeats;
  double total = 0.0;
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const Clock::time_point start = Clock::now();
    const std::size_t events = body();
    const double ms = ElapsedMs(start);
    total += ms;
    if (r == 0 || ms < best) {
      best = ms;
    }
    m.events = events;
  }
  m.wall_ms_min = best;
  m.wall_ms_mean = total / repeats;
  AllMeasurements().push_back(m);
  const double per_sec = m.events / (m.wall_ms_min * 1e-3);
  std::cout << "  " << name << ": " << m.events << " events, "
            << m.wall_ms_min << " ms (best of " << repeats << "), "
            << static_cast<std::uint64_t>(per_sec) << " events/s, "
            << (m.wall_ms_min * 1e6 / m.events) << " ns/event\n";
  return AllMeasurements().back();
}

// --- Event-loop microbenches -------------------------------------------

// Self-rescheduling timer chains with pseudo-random deadlines: the classic
// discrete-event heap workload (every device completion / arrival process
// looks like this). `Pad` sizes the callback capture.
template <std::size_t PadBytes>
std::size_t RunHeapChains(std::size_t total_events, std::size_t num_chains) {
  struct Chain {
    Simulator* sim;
    std::uint64_t rng;
    std::size_t* budget;
  };
  struct Pad {
    unsigned char bytes[PadBytes];
  };
  Simulator sim;
  std::size_t budget = total_events;
  std::vector<Chain> chains(num_chains);
  // Self-scheduling needs a named callable; a struct keeps the capture size
  // exact so both variants measure what they claim.
  struct Pump {
    Chain* chain;
    Pad pad;
    void operator()() const {
      Chain& c = *chain;
      if (*c.budget == 0) {
        return;
      }
      --*c.budget;
      const double delay = 0.5 + static_cast<double>(Lcg(c.rng) & 0xffffff) / (1 << 24);
      c.sim->ScheduleAfter(delay, Pump{chain, pad});
    }
  };
  for (std::size_t i = 0; i < num_chains; ++i) {
    chains[i] = Chain{&sim, 0x9e3779b97f4a7c15ULL * (i + 1), &budget};
    sim.ScheduleAfter(1.0 + static_cast<double>(i) * 1e-3, Pump{&chains[i], Pad{}});
  }
  return sim.RunUntilIdle();
}

// Zero-delay cascades: one driver per timestamp fans out a burst of
// same-timestamp events, the pattern bursty completions and poll wake-ups
// produce. Exercises the same-time-FIFO fast path.
std::size_t RunFifoBursts(std::size_t total_events, std::size_t burst) {
  struct Driver {
    Simulator* sim;
    std::size_t* budget;
    std::size_t burst;
  };
  Simulator sim;
  std::size_t budget = total_events;
  Driver driver{&sim, &budget, burst};
  struct Pump {
    Driver* d;
    void operator()() const {
      if (*d->budget == 0) {
        return;
      }
      const std::size_t fan = std::min(d->burst, *d->budget);
      *d->budget -= fan;
      for (std::size_t i = 0; i + 1 < fan; ++i) {
        d->sim->ScheduleAfter(0.0, []() {});
      }
      d->sim->ScheduleAfter(1.0, Pump{d});
    }
  };
  sim.ScheduleAfter(1.0, Pump{&driver});
  return sim.RunUntilIdle();
}

// Schedule/cancel churn: K staggered timers per round, 3 of 4 cancelled
// before they fire (linger timers, watchdogs, completion reschedules).
// Returns scheduled events; `extra` records the cancel count.
std::size_t RunCancelChurn(std::size_t rounds, std::size_t timers_per_round,
                           std::size_t* cancels_out) {
  Simulator sim;
  std::vector<EventHandle> handles;
  handles.reserve(timers_per_round);
  std::size_t fired = 0;
  std::size_t cancels = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    handles.clear();
    for (std::size_t i = 0; i < timers_per_round; ++i) {
      handles.push_back(
          sim.ScheduleAfter(1.0 + static_cast<double>(i), [&fired]() { ++fired; }));
    }
    for (std::size_t i = 0; i < timers_per_round; ++i) {
      if (i % 4 != 0) {
        sim.Cancel(handles[i]);
        ++cancels;
      }
    }
    sim.RunUntilIdle();
  }
  *cancels_out = cancels;
  return rounds * timers_per_round;
}

// Headline event-loop bench: the simulator's real per-completion profile,
// taken from how orion_scheduler + the device model actually drive the
// loop. Each device completion (heap pop) triggers a same-timestamp
// poll -> submit -> telemetry cascade (ring events), schedules the next
// completion (heap push) and re-arms a watchdog whose previous instance is
// cancelled — the mix the pure heap/fifo/cancel benches isolate.
std::size_t RunMixedLoad(std::size_t total_completions, std::size_t streams,
                         std::size_t* events_out) {
  struct Stream {
    Simulator* sim;
    std::uint64_t rng;
    std::size_t* budget;
    EventHandle watchdog;
  };
  Simulator sim;
  std::size_t budget = total_completions;
  std::vector<Stream> pool(streams);
  struct Completion {
    Stream* st;
    void operator()() const {
      Stream& s = *st;
      if (*s.budget == 0) {
        return;
      }
      --*s.budget;
      // Same-timestamp control-plane cascade (poll, submit, span close).
      for (int i = 0; i < 3; ++i) {
        s.sim->ScheduleAfter(0.0, []() {});
      }
      // Next completion for this stream.
      const double delay = 1.0 + static_cast<double>(Lcg(s.rng) & 0xffff) / (1 << 16);
      s.sim->ScheduleAfter(delay, Completion{st});
      // Re-armed watchdog: the prior one practically never fires.
      s.sim->Cancel(s.watchdog);
      s.watchdog = s.sim->ScheduleAfter(delay * 16.0, []() {});
    }
  };
  for (std::size_t i = 0; i < streams; ++i) {
    pool[i] = Stream{&sim, 0x2545f4914f6cdd1dULL * (i + 1), &budget, EventHandle()};
    sim.ScheduleAfter(1.0 + static_cast<double>(i) * 1e-3, Completion{&pool[i]});
  }
  const std::size_t ran = sim.RunUntilIdle();
  *events_out = ran;
  return ran;
}

// --- Fabric churn -------------------------------------------------------

// Transfer churn over an 8-GPU NVLink-pair node: a steady in-flight
// population with completions immediately replaced, periodic link flaps and
// cancels. Measures the enqueue/complete/fault rebalance path; returns the
// number of simulator events processed.
std::size_t RunFabricChurn(std::size_t total_transfers, std::size_t in_flight,
                           std::size_t* completed_out) {
  Simulator sim;
  interconnect::Fabric fabric(&sim, interconnect::NodeTopology::NvLinkPairs(8));
  std::uint64_t rng = 0x243f6a8885a308d3ULL;
  std::size_t started = 0;
  std::uint64_t flap_link = 0;

  struct Churn {
    Simulator* sim;
    interconnect::Fabric* fabric;
    std::uint64_t* rng;
    std::size_t* started;
    std::uint64_t* flap_link;
    std::size_t total;

    void StartOne() const {
      if (*started >= total) {
        return;
      }
      ++*started;
      const int src = static_cast<int>(Lcg(*rng) % 8);
      int dst = static_cast<int>(Lcg(*rng) % 8);
      if (dst == src) {
        dst = (dst + 1) % 8;
      }
      const std::size_t bytes = (64 + (Lcg(*rng) % 4032)) << 10;  // 64KB..4MB
      const std::uint64_t n = *started;
      Churn self = *this;
      const interconnect::TransferId id =
          fabric->StartTransfer(src, dst, bytes, [self]() { self.StartOne(); });
      if (n % 13 == 0) {
        // Cancel shortly after it starts streaming (post-setup).
        sim->ScheduleAfter(10.0, [self, id]() { self.fabric->CancelTransfer(id); });
      }
      if (n % 97 == 0) {
        // Flap one PCIe direction: degrade, then restore.
        const interconnect::LinkId link =
            self.fabric->topology().PcieLink(static_cast<int>(*self.flap_link % 8));
        ++*self.flap_link;
        self.fabric->SetLinkFactor(link, true, 0.25);
        sim->ScheduleAfter(50.0, [self, link]() {
          self.fabric->SetLinkFactor(link, true, 1.0);
        });
      }
    }
  };

  Churn churn{&sim, &fabric, &rng, &started, &flap_link, total_transfers};
  for (std::size_t i = 0; i < in_flight; ++i) {
    churn.StartOne();
  }
  const std::size_t events = sim.RunUntilIdle();
  *completed_out = fabric.transfers_completed();
  return events;
}

// --- Device model -------------------------------------------------------

// A fig06 collocation pair, ResNet50 inference (hp) against ResNet50
// training (be), each replayed `requests` times on its own priority stream
// of a fresh V100 until the device drains: kernel launch, water-filling and
// completion with no scheduler or client driver on top. Returns the number
// of kernels completed; `events_out` gets the simulator events.
std::size_t RunDeviceKernelPair(std::size_t requests, std::size_t* events_out) {
  const gpusim::DeviceSpec spec = gpusim::DeviceSpec::V100_16GB();
  const std::vector<gpusim::KernelDesc> hp_kernels = workloads::BuildKernels(
      spec, workloads::MakeWorkload(workloads::ModelId::kResNet50,
                                    workloads::TaskType::kInference));
  const std::vector<gpusim::KernelDesc> be_kernels = workloads::BuildKernels(
      spec, workloads::MakeWorkload(workloads::ModelId::kResNet50,
                                    workloads::TaskType::kTraining));
  Simulator sim;
  gpusim::Device device(&sim, spec);
  const gpusim::StreamId high = device.CreateStream(gpusim::kPriorityHigh);
  const gpusim::StreamId low = device.CreateStream(gpusim::kPriorityDefault);
  for (std::size_t r = 0; r < requests; ++r) {
    for (const gpusim::KernelDesc& kernel : hp_kernels) {
      device.LaunchKernel(high, kernel);
    }
    for (const gpusim::KernelDesc& kernel : be_kernels) {
      device.LaunchKernel(low, kernel);
    }
  }
  *events_out = sim.RunUntilIdle();
  return device.kernels_completed();
}

// --- Harness -------------------------------------------------------------

// The fig06 pair under Orion: Apollo-arrival ResNet50 inference at its
// inf-train rate (high priority) next to closed-loop ResNet50 training, at
// the --quick windows of bench_util.
harness::ExperimentConfig Fig06PairConfig() {
  harness::ClientConfig hp;
  hp.workload =
      workloads::MakeWorkload(workloads::ModelId::kResNet50, workloads::TaskType::kInference);
  hp.high_priority = true;
  hp.arrivals = trace::ArrivalKind::kApollo;
  hp.rps = trace::RequestsPerSecond(workloads::ModelId::kResNet50,
                                    trace::CollocationCase::kInfTrainPoisson);
  harness::ClientConfig be;
  be.workload =
      workloads::MakeWorkload(workloads::ModelId::kResNet50, workloads::TaskType::kTraining);
  be.arrivals = trace::ArrivalKind::kClosedLoop;

  harness::ExperimentConfig config;
  config.scheduler = harness::SchedulerKind::kOrion;
  config.warmup_us = bench::kWarmupUs * 0.25;
  config.duration_us = bench::kDurationUs * 0.125;
  config.seed = bench::GlobalBenchArgs().seed;
  config.clients = {hp, be};
  return config;
}

// One RunExperiment of `config`; returns the kernels of the requests and
// iterations it completed, given each client's kernels per request.
std::size_t RunPair(const harness::ExperimentConfig& config,
                    const std::vector<std::size_t>& kernels_per_request) {
  const harness::ExperimentResult result = harness::RunExperiment(config);
  std::size_t kernels = 0;
  for (std::size_t c = 0; c < result.clients.size(); ++c) {
    kernels += result.clients[c].completed_total * kernels_per_request[c];
  }
  return kernels;
}

// --- Serving wall clock -------------------------------------------------

// The ext_online_serving base configuration (2 GPUs, hp ResNet50 + be BERT)
// at --quick windows; one run per repeat, interference-aware routing.
serving::ServingConfig ServingQuickConfig() {
  serving::ModelServiceConfig resnet;
  resnet.workload =
      workloads::MakeWorkload(workloads::ModelId::kResNet50, workloads::TaskType::kInference);
  resnet.tier = serving::PriorityTier::kLatencyCritical;
  resnet.slo_us = MsToUs(60.0);
  resnet.rps = 300.0;
  resnet.initial_replicas = 2;
  resnet.max_replicas = 4;

  serving::ModelServiceConfig bert;
  bert.workload =
      workloads::MakeWorkload(workloads::ModelId::kBert, workloads::TaskType::kInference);
  bert.tier = serving::PriorityTier::kBestEffort;
  bert.slo_us = MsToUs(500.0);
  bert.rps = 15.0;
  bert.max_replicas = 1;

  serving::ServingConfig config;
  config.num_gpus = 2;
  config.policy = serving::RoutePolicy::kInterferenceAware;
  // The --quick windows of bench_util, independent of this binary's flags so
  // the measurement is comparable across runs.
  config.warmup_us = bench::kWarmupUs * 0.25;
  config.duration_us = bench::kDurationUs * 0.125;
  config.seed = bench::GlobalBenchArgs().seed;
  config.models = {resnet, bert};
  return config;
}

// A 4-node x 2-GPU datacenter cluster (ResNet50 at 180 rps per node, one
// replica per GPU) at --quick windows — the ext_datacenter_serving scaling
// arm's shape, small enough to repeat.
datacenter::ClusterConfig ClusterQuickConfig() {
  serving::ModelServiceConfig resnet;
  resnet.workload =
      workloads::MakeWorkload(workloads::ModelId::kResNet50, workloads::TaskType::kInference);
  resnet.tier = serving::PriorityTier::kLatencyCritical;
  resnet.slo_us = MsToUs(60.0);
  resnet.rps = 180.0 * 4;
  resnet.initial_replicas = 8;
  resnet.max_replicas = 10;

  datacenter::ClusterConfig config;
  config.cluster.num_nodes = 4;
  config.cluster.gpus_per_node = 2;
  config.serving.policy = serving::RoutePolicy::kInterferenceAware;
  // Fixed --quick-sized windows (like ServingQuickConfig) so the rows are
  // comparable across full and quick runs.
  config.serving.warmup_us = bench::kWarmupUs * 0.25;
  config.serving.duration_us = bench::kDurationUs * 0.125;
  config.serving.seed = bench::GlobalBenchArgs().seed;
  config.serving.models = {resnet};
  return config;
}

// Times the sibling ext_online_serving binary with --quick, if present.
// Returns wall ms, or -1 when the binary is missing (e.g. bench run from an
// install tree).
double TimeSiblingServingBench(const char* argv0) {
  std::string dir(argv0);
  const std::size_t slash = dir.find_last_of('/');
  dir = slash == std::string::npos ? std::string(".") : dir.substr(0, slash);
  const std::string cmd = dir + "/ext_online_serving --quick > /dev/null 2>&1";
  // Probe once (also warms caches); non-zero status means "not available".
  if (std::system(cmd.c_str()) != 0) {
    return -1.0;
  }
  const Clock::time_point start = Clock::now();
  if (std::system(cmd.c_str()) != 0) {
    return -1.0;
  }
  return ElapsedMs(start);
}

}  // namespace

int main(int argc, char** argv) {
  // --out=PATH is specific to this bench; strip it before the shared parser.
  std::string out_path = "BENCH_simcore.json";
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  bench::ParseBenchArgs(argc, argv);
  const bool quick = bench::GlobalBenchArgs().quick;
  const int repeats = quick ? 3 : 5;

  bench::PrintHeader("BENCH_simcore", "simulation-core throughput baseline");
  std::cout << (quick ? "(--quick: reduced event budgets)\n" : "") << "\n";

  const std::size_t scale = quick ? 1 : 4;

  {
    std::size_t ran = 0;
    Measurement& m = Measure("event_loop_mixed", repeats, [&]() {
      return RunMixedLoad(scale * 200 * 1000, 256, &ran);
    });
    m.extra = static_cast<double>(ran);  // extra = total events run
  }
  Measure("event_loop_heap_small", repeats,
          [&]() { return RunHeapChains<8>(scale * 1000 * 1000, 256); });
  Measure("event_loop_heap_large", repeats,
          [&]() { return RunHeapChains<48>(scale * 500 * 1000, 256); });
  Measure("event_loop_fifo", repeats,
          [&]() { return RunFifoBursts(scale * 1000 * 1000, 64); });
  {
    std::size_t cancels = 0;
    Measurement& m = Measure("event_loop_cancel", repeats, [&]() {
      return RunCancelChurn(scale * 2000, 512, &cancels);
    });
    m.extra = static_cast<double>(cancels);  // extra = cancelled events
  }
  {
    std::size_t completed = 0;
    Measurement& m = Measure("fabric_churn", repeats, [&]() {
      return RunFabricChurn(scale * 25 * 1000, 64, &completed);
    });
    m.extra = static_cast<double>(completed);  // extra = transfers completed
  }
  {
    std::size_t events = 0;
    Measurement& m = Measure("device_kernel_pair", repeats, [&]() {
      return RunDeviceKernelPair(scale * 8, &events);
    });
    m.extra = static_cast<double>(events);  // extra = simulator events
  }
  {
    const harness::ExperimentConfig config = Fig06PairConfig();
    std::vector<std::size_t> kernels_per_request;
    for (const harness::ClientConfig& client : config.clients) {
      kernels_per_request.push_back(workloads::BuildKernels(config.device, client.workload).size());
    }
    // Warm: profiles and request templates are memoized per process.
    RunPair(config, kernels_per_request);
    Measurement& m = Measure("fig06_pair_run", repeats,
                             [&]() { return RunPair(config, kernels_per_request); });
    m.extra = m.wall_ms_min;  // extra = ms per run
  }
  {
    const serving::ServingConfig config = ServingQuickConfig();
    Measurement& m = Measure("serving_inprocess", repeats, [&]() {
      const serving::ServingResult result = serving::RunServing(config);
      ORION_CHECK(result.models[0].completed > 0);
      return result.models[0].completed + result.models[1].completed;
    });
    m.extra = m.wall_ms_min;  // extra = ms per run (same thing here)
  }
  {
    const datacenter::ClusterConfig config = ClusterQuickConfig();
    std::size_t completed = 0;
    Measurement& m = Measure("cluster_serving", repeats, [&]() {
      const datacenter::ClusterResult result = datacenter::RunCluster(config);
      ORION_CHECK(result.requests_forwarded > 0);
      completed = result.serving.models[0].completed;
      return completed;
    });
    m.extra = static_cast<double>(completed);  // extra = requests completed
  }
  {
    const double wall = TimeSiblingServingBench(argv[0]);
    Measurement m;
    m.name = "ext_online_serving_quick";
    m.repeats = 1;
    m.events = wall >= 0.0 ? 1 : 0;  // events = runs measured
    m.wall_ms_min = wall;
    m.wall_ms_mean = wall;
    AllMeasurements().push_back(m);
    if (wall >= 0.0) {
      std::cout << "  ext_online_serving --quick: " << wall << " ms wall\n";
    } else {
      std::cout << "  ext_online_serving --quick: binary not found, skipped\n";
    }
  }

  bench::JsonValue root;
  root["bench"] = "perf_sim_core";
  root["quick"] = quick;
  root["seed"] = bench::GlobalBenchArgs().seed;
  bench::JsonValue& results = root["results"];
  results = bench::JsonValue::Array();
  for (const Measurement& m : AllMeasurements()) {
    bench::JsonValue& entry = results.Append();
    entry["name"] = m.name;
    entry["events"] = m.events;
    entry["repeats"] = m.repeats;
    entry["wall_ms_min"] = m.wall_ms_min;
    entry["wall_ms_mean"] = m.wall_ms_mean;
    if (m.events > 0 && m.wall_ms_min > 0.0) {
      entry["events_per_sec"] = m.events / (m.wall_ms_min * 1e-3);
      entry["ns_per_event"] = m.wall_ms_min * 1e6 / static_cast<double>(m.events);
    }
    if (m.extra >= 0.0) {
      entry["extra"] = m.extra;
    }
  }
  if (root.WriteFile(out_path)) {
    std::cout << "\nwrote " << out_path << "\n";
  } else {
    std::cerr << "\nfailed to write " << out_path << "\n";
    return 1;
  }
  return 0;
}
