#include "src/fault/fault_injector.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace orion {
namespace fault {

FaultInjector::FaultInjector(Simulator* sim, FaultPlan plan)
    : sim_(sim), plan_(std::move(plan)) {
  ORION_CHECK(sim_ != nullptr);
  BindInstruments();
}

void FaultInjector::set_telemetry(telemetry::Hub* hub) {
  ORION_CHECK_MSG(!armed_, "set_telemetry must be called before Arm");
  hub_ = hub;
  BindInstruments();
}

void FaultInjector::BindInstruments() {
  telemetry::MetricRegistry& reg = hub_ != nullptr ? hub_->metrics() : local_metrics_;
  injected_ = reg.GetCounter("fault.injected");
  skipped_ = reg.GetCounter("fault.skipped");
  trace_track_ = hub_ != nullptr && hub_->tracing() ? hub_->spans().Track("faults") : -1;
}

void FaultInjector::MarkFault(const FaultEvent& event) {
  injected_->Inc();
  if (trace_track_ < 0) {
    return;
  }
  telemetry::Labels args;
  switch (event.kind) {
    case FaultKind::kDeviceDegrade:
    case FaultKind::kGpuDown:
      args.emplace_back("gpu", std::to_string(event.gpu));
      break;
    case FaultKind::kLinkDegrade:
    case FaultKind::kLinkDown:
      args.emplace_back("link", std::to_string(event.link));
      break;
    case FaultKind::kClientCrash:
    case FaultKind::kClientHang:
      args.emplace_back("client", std::to_string(event.client));
      break;
    case FaultKind::kProfilePoison:
      args.emplace_back("drop_fraction", std::to_string(event.drop_fraction));
      break;
    case FaultKind::kNodeDown:
      args.emplace_back("node", std::to_string(event.node));
      break;
  }
  hub_->spans().Instant(trace_track_, FaultKindName(event.kind), sim_->now(),
                        std::move(args));
}

void FaultInjector::RegisterDevice(int gpu, gpusim::Device* device) {
  ORION_CHECK(!armed_ && device != nullptr);
  devices_[gpu] = device;
}

void FaultInjector::RegisterScheduler(core::Scheduler* scheduler) {
  ORION_CHECK(!armed_ && scheduler != nullptr);
  schedulers_.push_back(scheduler);
}

void FaultInjector::RegisterProfile(profiler::WorkloadProfile* profile) {
  ORION_CHECK(!armed_ && profile != nullptr);
  profiles_.push_back(profile);
}

void FaultInjector::set_target_handler(TargetHandler handler) {
  ORION_CHECK(!armed_);
  target_handler_ = std::move(handler);
}

void FaultInjector::Arm() {
  ORION_CHECK_MSG(!armed_, "FaultInjector::Arm called twice");
  armed_ = true;
  for (const FaultEvent& event : plan_.events) {
    ORION_CHECK_MSG(event.at_us >= sim_->now(),
                    "fault event in the past: at_us=" << event.at_us);
    sim_->ScheduleAt(event.at_us, [this, event]() { Apply(event); });
  }
}

void FaultInjector::Apply(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kDeviceDegrade:
      ApplyDeviceDegrade(event);
      return;
    case FaultKind::kProfilePoison:
      ApplyProfilePoison(event);
      return;
    case FaultKind::kLinkDegrade:
    case FaultKind::kLinkDown:
    case FaultKind::kGpuDown:
    case FaultKind::kClientCrash:
    case FaultKind::kClientHang:
    case FaultKind::kNodeDown:
      ApplyTargetFault(event);
      return;
  }
  ORION_CHECK_MSG(false, "unhandled fault kind");
}

void FaultInjector::ApplyDeviceDegrade(const FaultEvent& event) {
  const auto it = devices_.find(event.gpu);
  if (it == devices_.end()) {
    skipped_->Inc();
    return;
  }
  if (event.sms_lost > 0) {
    it->second->DegradeSms(event.sms_lost);
  }
  if (event.membw_factor < 1.0) {
    it->second->ScaleMembw(event.membw_factor);
  }
  // The degradation response above the device: SM_THRESHOLD re-resolves
  // against the shrunken SM pool (Orion), other policies ignore the hook.
  for (core::Scheduler* scheduler : schedulers_) {
    scheduler->OnDeviceDegraded();
  }
  MarkFault(event);
}

void FaultInjector::ApplyTargetFault(const FaultEvent& event) {
  if (!target_handler_ || !target_handler_(event)) {
    skipped_->Inc();
    return;
  }
  // The harness acted first (a hang submits its runaway kernel through the
  // live scheduler path); then the scheduler side of a crash: quarantine the
  // dead client's queues and release its device memory. A hung client stays
  // attached — detecting it is the scheduler watchdog's job.
  if (event.kind == FaultKind::kClientCrash) {
    for (core::Scheduler* scheduler : schedulers_) {
      scheduler->OnClientCrash(event.client);
    }
  }
  MarkFault(event);
}

void FaultInjector::ApplyProfilePoison(const FaultEvent& event) {
  if (profiles_.empty()) {
    skipped_->Inc();
    return;
  }
  std::uint64_t stream = 0;
  for (profiler::WorkloadProfile* profile : profiles_) {
    Rng rng = Rng(event.seed).Fork(++stream);
    std::vector<profiler::KernelProfile> kept;
    kept.reserve(profile->kernels.size());
    for (profiler::KernelProfile& kernel : profile->kernels) {
      if (rng.NextDouble() < event.drop_fraction) {
        continue;  // entry lost: the scheduler will miss on this kernel id
      }
      kernel.duration_us *= event.perturb_factor;
      kept.push_back(kernel);
    }
    profile->kernels = std::move(kept);
    profile->RebuildIndex();
  }
  MarkFault(event);
}

}  // namespace fault
}  // namespace orion
