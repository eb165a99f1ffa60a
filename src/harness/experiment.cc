#include "src/harness/experiment.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/passthrough.h"
#include "src/baselines/reef.h"
#include "src/baselines/temporal.h"
#include "src/baselines/ticktock.h"
#include "src/baselines/time_quantum.h"
#include "src/common/check.h"
#include "src/fault/fault_injector.h"
#include "src/memsub/pager.h"
#include "src/runtime/gpu_runtime.h"
#include "src/sim/simulator.h"
#include "src/telemetry/exporters.h"

namespace orion {
namespace harness {

const char* SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kDedicated:
      return "ideal";
    case SchedulerKind::kMig:
      return "mig";
    case SchedulerKind::kTemporal:
      return "temporal";
    case SchedulerKind::kStreams:
      return "streams";
    case SchedulerKind::kMps:
      return "mps";
    case SchedulerKind::kReef:
      return "reef";
    case SchedulerKind::kTickTock:
      return "ticktock";
    case SchedulerKind::kOrion:
      return "orion";
    case SchedulerKind::kTimeQuantum:
      return "nvshare-tq";
  }
  return "invalid";
}

std::unique_ptr<core::Scheduler> MakeScheduler(SchedulerKind kind,
                                               const core::OrionOptions& orion_options) {
  switch (kind) {
    case SchedulerKind::kDedicated:
      // Per-device pass-through; RunExperiment gives each client a device.
      return std::make_unique<baselines::PassthroughScheduler>("ideal", true, 0.0);
    case SchedulerKind::kMig:
      // Per-partition pass-through; RunExperiment gives each client a slice.
      return std::make_unique<baselines::PassthroughScheduler>("mig", true, 0.0);
    case SchedulerKind::kTemporal:
      return std::make_unique<baselines::TemporalScheduler>();
    case SchedulerKind::kStreams:
      return baselines::MakeStreamsBaseline();
    case SchedulerKind::kMps:
      return baselines::MakeMpsBaseline();
    case SchedulerKind::kReef:
      return std::make_unique<baselines::ReefScheduler>();
    case SchedulerKind::kTickTock:
      return std::make_unique<baselines::TickTockScheduler>();
    case SchedulerKind::kOrion:
      return std::make_unique<core::OrionScheduler>(orion_options);
    case SchedulerKind::kTimeQuantum:
      return std::make_unique<baselines::TimeQuantumScheduler>();
  }
  ORION_CHECK_MSG(false, "unhandled scheduler kind");
  return nullptr;
}

const ClientResult& ExperimentResult::hp() const {
  for (const ClientResult& client : clients) {
    if (client.high_priority) {
      return client;
    }
  }
  ORION_CHECK_MSG(false, "no high-priority client in result");
  return clients.front();
}

double ExperimentResult::TotalThroughput() const {
  double total = 0.0;
  for (const ClientResult& client : clients) {
    total += client.throughput_rps;
  }
  return total;
}

double CostSavings(double dedicated_throughput, double collocated_throughput) {
  ORION_CHECK(dedicated_throughput > 0.0);
  return 2.0 * collocated_throughput / dedicated_throughput;
}

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  ORION_CHECK(!config.clients.empty());

  // --- Offline profiling phase (§5.2), one profile per distinct workload,
  // in client order: the fault injector forks its poison RNG per profile in
  // that order, so it must not depend on hashing.
  std::vector<std::unique_ptr<profiler::WorkloadProfile>> profiles;
  const auto profile_of =
      [&profiles](const workloads::WorkloadSpec& workload) -> profiler::WorkloadProfile* {
    const std::string name = workloads::WorkloadName(workload);
    for (const auto& profile : profiles) {
      if (profile->workload_name == name) {
        return profile.get();
      }
    }
    return nullptr;
  };
  for (const ClientConfig& client : config.clients) {
    if (profile_of(client.workload) != nullptr) {
      continue;
    }
    profiler::ProfileOptions opts = config.profile_options;
    opts.launch_overhead_us = config.launch_overhead_us;
    profiles.push_back(std::make_unique<profiler::WorkloadProfile>(
        profiler::ProfileWorkload(config.device, client.workload, opts)));
  }

  // --- Memory admission (§5.1.3). Shared-GPU collocations must fit in
  // device memory unless unified-memory paging (src/memsub) is enabled: the
  // pager admits any footprint and services the overflow as demand faults.
  const bool shares_gpu = config.scheduler != SchedulerKind::kDedicated &&
                          config.scheduler != SchedulerKind::kMig;
  const bool paging = config.paging.enabled && shares_gpu;
  std::vector<std::size_t> state(config.clients.size(), 0);
  std::size_t memory_deficit = 0;
  if (shares_gpu) {
    std::size_t total_state = 0;
    for (std::size_t i = 0; i < config.clients.size(); ++i) {
      state[i] = workloads::ApproxModelStateBytes(config.clients[i].workload);
      total_state += state[i];
    }
    if (total_state > config.device.memory_bytes) {
      memory_deficit = total_state - config.device.memory_bytes;
    }
    ORION_CHECK_MSG(memory_deficit == 0 || paging,
                    "collocation exceeds GPU memory by "
                        << memory_deficit
                        << " bytes; enable config.paging to page the overflow (§5.1.3)");
  }

  // --- Per-client telemetry labels, shared by the attribution sinks and
  // the result-mirror step below.
  std::vector<std::string> client_labels;
  for (const ClientConfig& cc : config.clients) {
    client_labels.push_back(workloads::WorkloadName(cc.workload) +
                            (cc.high_priority ? "/hp" : "/be"));
  }
  telemetry::DisambiguateLabels(&client_labels);
  const bool attr =
      config.telemetry != nullptr && config.telemetry->attribution_enabled();
  const auto bind_attribution = [&](ClientDriver& driver, std::size_t c) {
    const ClientConfig& cc = config.clients[c];
    driver.set_isolated_request_us(profile_of(cc.workload)->request_latency_us);
    if (attr) {
      attribution::ServiceAttribution& sink =
          config.telemetry->attribution().Service(client_labels[c]);
      sink.set_tier(cc.high_priority ? "hp" : "be");
      driver.set_attribution(&sink);
    }
  };

  // --- Online phase. ---
  Simulator sim;
  std::vector<std::unique_ptr<runtime::GpuRuntime>> runtimes;
  std::vector<std::unique_ptr<core::Scheduler>> schedulers;
  std::vector<std::unique_ptr<ClientDriver>> drivers;
  std::unique_ptr<memsub::UnifiedMemoryPager> pager;
  Rng root_rng(config.seed);

  // Partitions: a shared run puts every client on one device; Ideal gives
  // each client a private full device; MIG a private 1/N static partition —
  // SMs, compute, bandwidth and memory all shrink, and a client can never
  // harvest its neighbours' idle capacity (§4).
  const int num_clients = static_cast<int>(config.clients.size());
  std::vector<std::vector<int>> partitions(shares_gpu ? 1 : config.clients.size());
  for (int i = 0; i < num_clients; ++i) {
    partitions[shares_gpu ? 0 : static_cast<std::size_t>(i)].push_back(i);
  }
  gpusim::DeviceSpec spec = config.device;
  if (config.scheduler == SchedulerKind::kMig) {
    const int n = std::max(1, num_clients);
    spec.name += "-mig-1of" + std::to_string(n);
    spec.num_sms = std::max(1, spec.num_sms / n);
    spec.peak_fp32_tflops /= n;
    spec.peak_membw_gbps /= n;
    spec.memory_bytes /= static_cast<std::size_t>(n);
  }
  // Utilization and end-of-run memory are read from the high-priority
  // client's device.
  std::size_t hp_partition = 0;
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    if (std::any_of(partitions[p].begin(), partitions[p].end(), [&config](int i) {
          return config.clients[static_cast<std::size_t>(i)].high_priority;
        })) {
      hp_partition = p;
      break;
    }
  }

  for (std::size_t p = 0; p < partitions.size(); ++p) {
    const std::vector<int>& members = partitions[p];
    auto rt = std::make_unique<runtime::GpuRuntime>(&sim, spec);
    rt->device().set_pcie_priority_scheduling(config.pcie_priority_scheduling);
    if (config.telemetry != nullptr && config.telemetry->tracing()) {
      config.telemetry->kernels().RecordInto(rt->device(), "gpu" + std::to_string(p));
    }
    auto sched = MakeScheduler(config.scheduler, config.orion);
    sched->set_telemetry(config.telemetry);
    std::vector<core::SchedClientInfo> infos;
    for (const int i : members) {
      const ClientConfig& cc = config.clients[static_cast<std::size_t>(i)];
      core::SchedClientInfo info;
      info.id = i;
      info.name = workloads::WorkloadName(cc.workload);
      info.high_priority = cc.high_priority;
      info.profile = profile_of(cc.workload);
      infos.push_back(std::move(info));
    }
    sched->Attach(&sim, rt.get(), infos);
    if (paging) {
      // Created after Attach so scheduler stream ids match a non-paging run
      // exactly (the inertness property: a fitting collocation with paging
      // enabled is bit-identical to one without).
      pager = std::make_unique<memsub::UnifiedMemoryPager>(&sim, &rt->device(),
                                                           config.telemetry);
      // Pinned clients claim their frames first so unpinned pre-warm can
      // never steal them.
      for (int pass = 0; pass < 2; ++pass) {
        for (const int i : members) {
          const ClientConfig& cc = config.clients[static_cast<std::size_t>(i)];
          const bool pinned = config.paging.pin_high_priority && cc.high_priority;
          if ((pass == 0) != pinned) {
            continue;
          }
          // Training state mutates every iteration: its evictions pay a
          // writeback. Inference state is read-only.
          pager->RegisterClient(i, workloads::WorkloadName(cc.workload),
                                state[static_cast<std::size_t>(i)], pinned,
                                cc.workload.task == workloads::TaskType::kTraining,
                                cc.paging_ws_fraction);
        }
      }
      if (auto* tq = dynamic_cast<baselines::TimeQuantumScheduler*>(sched.get())) {
        tq->set_pager(pager.get());
      }
    }
    const DurationUs overhead =
        config.launch_overhead_us *
        sched->HostOverheadMultiplier(static_cast<int>(members.size()));
    for (const int i : members) {
      drivers.push_back(std::make_unique<ClientDriver>(
          &sim, sched.get(), i, config.clients[static_cast<std::size_t>(i)], spec, overhead,
          root_rng.Fork(i + 1)));
      bind_attribution(*drivers.back(), static_cast<std::size_t>(i));
      if (pager != nullptr) {
        drivers.back()->set_pager(pager.get());
      }
    }
    runtimes.push_back(std::move(rt));
    schedulers.push_back(std::move(sched));
  }

  // --- Fault injection (src/fault): wire the plan to the live objects. ---
  std::unique_ptr<fault::FaultInjector> injector;
  if (!config.fault_plan.empty()) {
    injector = std::make_unique<fault::FaultInjector>(&sim, config.fault_plan);
    injector->set_telemetry(config.telemetry);
    for (std::size_t i = 0; i < runtimes.size(); ++i) {
      injector->RegisterDevice(static_cast<int>(i), &runtimes[i]->device());
    }
    for (auto& sched : schedulers) {
      injector->RegisterScheduler(sched.get());
    }
    for (const auto& profile : profiles) {
      injector->RegisterProfile(profile.get());
    }
    // Client faults only: this harness has no fabric and no cluster. A crash
    // or hang that names no client here still counts as applied.
    injector->set_target_handler([&drivers, &pager](const fault::FaultEvent& event) {
      if (event.kind != fault::FaultKind::kClientCrash &&
          event.kind != fault::FaultKind::kClientHang) {
        return false;
      }
      for (auto& driver : drivers) {
        if (driver->id() != event.client) {
          continue;
        }
        if (event.kind == fault::FaultKind::kClientHang) {
          driver->Hang(event.runaway_us);
        } else {
          driver->Crash();
        }
        if (pager != nullptr) {
          // Dead process: its pages free immediately (host copy wins).
          pager->ReleaseClient(static_cast<int>(event.client));
        }
        break;
      }
      return true;
    });
    injector->Arm();
  }

  const TimeUs measure_from = config.warmup_us;
  const TimeUs horizon = config.warmup_us + config.duration_us;
  for (auto& driver : drivers) {
    driver->set_measure_from(measure_from);
    driver->Start();
  }
  std::unique_ptr<telemetry::StreamingExporter> streamer;
  if (config.telemetry != nullptr && config.telemetry_flush.period_us > 0.0) {
    streamer = std::make_unique<telemetry::StreamingExporter>(&sim, config.telemetry,
                                                              config.telemetry_flush);
    streamer->Start();
  }
  sim.RunUntil(horizon);
  if (streamer != nullptr) {
    streamer->Stop();
  }

  // --- Collect. ---
  ExperimentResult result;
  result.scheduler_name = SchedulerKindName(config.scheduler);
  result.window_us = config.duration_us;
  result.memory_deficit_bytes = memory_deficit;
  result.paging_active = pager != nullptr;
  if (pager != nullptr) {
    result.paging = pager->totals();
  }
  result.telemetry_flushes = streamer != nullptr ? streamer->flushes() : 0;
  for (auto& driver : drivers) {
    ClientResult cr;
    cr.name = driver->name();
    cr.high_priority = driver->config().high_priority;
    cr.completed = driver->completed_measured();
    cr.completed_total = driver->completed_total();
    cr.throughput_rps = static_cast<double>(cr.completed) / UsToSec(config.duration_us);
    cr.latency = driver->latencies();
    cr.queueing = driver->queueing();
    cr.service = driver->service();
    cr.slo_misses = driver->slo_misses();
    if (pager != nullptr) {
      cr.page_faults = pager->client_faults(static_cast<int>(driver->id()));
      cr.page_stall_us = pager->client_stall_us(static_cast<int>(driver->id()));
    }
    result.clients.push_back(std::move(cr));
  }
  result.utilization =
      runtimes[hp_partition]->device().utilization().AverageOver(measure_from, horizon);
  if (injector != nullptr) {
    result.faults_injected = injector->injected();
    result.faults_skipped = injector->skipped();
  }
  result.memory_used_end_bytes = runtimes[hp_partition]->memory().used();
  for (auto& sched : schedulers) {
    if (const auto* orion = dynamic_cast<const core::OrionScheduler*>(sched.get())) {
      result.clients_quarantined += orion->clients_quarantined();
      result.runaway_quarantines += orion->runaway_quarantines();
    }
    if (const auto* tq = dynamic_cast<const baselines::TimeQuantumScheduler*>(sched.get())) {
      result.tq_exclusive_entries = tq->exclusive_entries();
      result.tq_quanta = tq->quanta_granted();
      result.tq_exclusive_us = tq->exclusive_us();
    }
  }

  // Mirror the result into the hub registry so an exported CSV snapshot
  // reproduces the harness's numbers (latency samples feed histograms so the
  // snapshot carries window percentiles too).
  if (config.telemetry != nullptr) {
    telemetry::MetricRegistry& reg = config.telemetry->metrics();
    for (std::size_t c = 0; c < result.clients.size(); ++c) {
      const ClientResult& cr = result.clients[c];
      const telemetry::Labels by_client = {{"client", client_labels[c]}};
      reg.GetCounter("harness.completed", by_client)
          ->Inc(static_cast<double>(cr.completed));
      reg.GetGauge("harness.throughput_rps", by_client)->Set(cr.throughput_rps);
      telemetry::Histogram* latency = reg.GetHistogram("harness.latency_us", by_client);
      for (const double sample : cr.latency.samples()) {
        latency->Add(sample);
      }
    }
    reg.GetGauge("harness.util_compute")->Set(result.utilization.compute);
    reg.GetGauge("harness.util_membw")->Set(result.utilization.membw);
    reg.GetGauge("harness.util_sm_busy")->Set(result.utilization.sm_busy);
  }
  return result;
}

}  // namespace harness
}  // namespace orion
