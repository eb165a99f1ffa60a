// Fault injector: schedules a FaultPlan on the discrete-event clock.
//
// The injector is the one fault dispatcher of every harness. It applies the
// faults whose targets it can be given — device degradation, profile
// poisoning and the scheduler side of a client crash — to the devices,
// schedulers and workload profiles a harness registers. Faults whose targets
// only the harness knows (links, whole GPUs and nodes, clients) go to the one
// handler the harness installs; the link topology lives with the harness
// that has one. Arm() schedules one simulator event per fault. Everything is
// deterministic: events fire at their planned virtual times in plan order,
// and profile poisoning draws from the event's own seed.
#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <cstddef>
#include <functional>
#include <map>
#include <vector>

#include "src/core/scheduler.h"
#include "src/fault/fault_plan.h"
#include "src/gpusim/device.h"
#include "src/profiler/profiler.h"
#include "src/sim/simulator.h"
#include "src/telemetry/telemetry.h"

namespace orion {
namespace fault {

class FaultInjector {
 public:
  // Applies a link degrade/down, GPU down, node down or client crash/hang
  // event to the harness's own targets (the fabric, the serving fleet, the
  // client drivers) and returns whether it did. A false return, or no
  // handler at all, counts the event as skipped. After an applied crash the
  // injector runs the scheduler-side cleanup, Scheduler::OnClientCrash.
  using TargetHandler = std::function<bool(const FaultEvent&)>;

  FaultInjector(Simulator* sim, FaultPlan plan);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Target registration. All optional: events whose target is missing are
  // counted in skipped() instead of firing (a plan written for a 4-GPU node
  // can run against a single-device harness).
  void RegisterDevice(int gpu, gpusim::Device* device);
  void RegisterScheduler(core::Scheduler* scheduler);
  void RegisterProfile(profiler::WorkloadProfile* profile);
  void set_target_handler(TargetHandler handler);

  // Telemetry (src/telemetry): injected/skipped become "fault.*" registry
  // counters and, with tracing on, every applied fault is an instant marker
  // on a "faults" track (named by FaultKindName, with the target as args).
  // Call before Arm.
  void set_telemetry(telemetry::Hub* hub);

  // Schedules every plan event. Call exactly once, after registration and
  // before running the simulator.
  void Arm();

  std::size_t injected() const { return CounterCount(injected_); }
  std::size_t skipped() const { return CounterCount(skipped_); }

 private:
  void Apply(const FaultEvent& event);
  void ApplyDeviceDegrade(const FaultEvent& event);
  void ApplyTargetFault(const FaultEvent& event);
  void ApplyProfilePoison(const FaultEvent& event);

  Simulator* sim_;
  FaultPlan plan_;
  std::map<int, gpusim::Device*> devices_;
  std::vector<core::Scheduler*> schedulers_;
  std::vector<profiler::WorkloadProfile*> profiles_;
  TargetHandler target_handler_;
  bool armed_ = false;

  static std::size_t CounterCount(const telemetry::Counter* c) {
    return c ? static_cast<std::size_t>(c->AsCount()) : 0;
  }
  void BindInstruments();
  void MarkFault(const FaultEvent& event);

  telemetry::Hub* hub_ = nullptr;
  telemetry::MetricRegistry local_metrics_;
  telemetry::TrackId trace_track_ = -1;
  telemetry::Counter* injected_ = nullptr;
  telemetry::Counter* skipped_ = nullptr;
};

}  // namespace fault
}  // namespace orion

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
