#include "src/harness/multi_gpu.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/collective/collective.h"
#include "src/common/check.h"
#include "src/fault/fault_injector.h"
#include "src/interconnect/fabric.h"
#include "src/runtime/gpu_runtime.h"
#include "src/sim/simulator.h"

namespace orion {
namespace harness {
namespace {

// Sets the bandwidth factor of the selected direction(s) of one link.
void SetLinkFactor(interconnect::Fabric& fabric, int link, fault::LinkDir dir, double factor) {
  if (dir == fault::LinkDir::kForward || dir == fault::LinkDir::kBoth) {
    fabric.SetLinkFactor(link, /*forward=*/true, factor);
  }
  if (dir == fault::LinkDir::kBackward || dir == fault::LinkDir::kBoth) {
    fabric.SetLinkFactor(link, /*forward=*/false, factor);
  }
}

// Executes the DDP job: lockstep data-parallel iterations across the ring's
// devices, paced kernel submission, bucketed all-reduce overlapped with the
// backward pass, optimizer update after the last bucket.
class DdpRun {
 public:
  DdpRun(Simulator* sim, const workloads::DdpIterationPlan& plan,
         std::vector<gpusim::Device*> devices, std::vector<gpusim::StreamId> compute_streams,
         collective::CollectiveEngine* engine, std::vector<int> ring, int iterations,
         DurationUs launch_overhead_us, bool* finished)
      : sim_(sim),
        plan_(plan),
        devices_(std::move(devices)),
        compute_streams_(std::move(compute_streams)),
        engine_(engine),
        ring_(std::move(ring)),
        iterations_(iterations),
        launch_overhead_us_(launch_overhead_us),
        finished_(finished) {
    ORION_CHECK(devices_.size() == ring_.size());
    ORION_CHECK(iterations_ >= 1);
  }

  void Start() {
    started_at_ = sim_->now();
    StartIteration();
  }

  std::size_t iterations_done() const { return iterations_done_; }
  TimeUs started_at() const { return started_at_; }
  TimeUs finished_at() const { return finished_at_; }
  const LatencyRecorder& iteration_us() const { return iteration_us_; }
  const LatencyRecorder& allreduce_us() const { return allreduce_us_; }

 private:
  struct GpuState {
    std::size_t next_compute = 0;
    std::size_t compute_done = 0;
    std::size_t update_done = 0;
    DurationUs backward_done_us = 0.0;  // alone-time of completed bwd kernels
  };

  std::size_t NumGpus() const { return devices_.size(); }

  void StartIteration() {
    gpus_.assign(NumGpus(), GpuState{});
    next_bucket_ = 0;
    buckets_done_ = 0;
    compute_finished_gpus_ = 0;
    update_finished_gpus_ = 0;
    update_started_ = false;
    iteration_start_ = sim_->now();
    for (std::size_t slot = 0; slot < NumGpus(); ++slot) {
      PumpCompute(slot);
    }
  }

  // Paced submission: the host thread launches asynchronously, one kernel
  // per launch_overhead_us, running ahead of the device (streams queue).
  void PumpCompute(std::size_t slot) {
    GpuState& state = gpus_[slot];
    if (state.next_compute >= plan_.compute_kernels.size()) {
      return;
    }
    const gpusim::KernelDesc& kernel = plan_.compute_kernels[state.next_compute++];
    devices_[slot]->LaunchKernel(compute_streams_[slot], kernel,
                                 [this, slot]() { OnComputeDone(slot); });
    if (state.next_compute < plan_.compute_kernels.size()) {
      sim_->ScheduleAfter(launch_overhead_us_, [this, slot]() { PumpCompute(slot); });
    }
  }

  void OnComputeDone(std::size_t slot) {
    GpuState& state = gpus_[slot];
    // Stream FIFO order: completion k is compute_kernels[k].
    const gpusim::KernelDesc& kernel = plan_.compute_kernels[state.compute_done];
    if (kernel.phase == gpusim::KernelPhase::kBackward) {
      state.backward_done_us += kernel.duration_us;
    }
    ++state.compute_done;
    MaybeIssueBuckets();
    if (state.compute_done == plan_.compute_kernels.size()) {
      ++compute_finished_gpus_;
      MaybeStartUpdate();
    }
  }

  // Issues every bucket whose gradients exist on ALL GPUs (in lockstep
  // data-parallelism the GPUs progress together, but the all-GPU check keeps
  // the gate correct if their speeds ever diverge).
  void MaybeIssueBuckets() {
    while (next_bucket_ < plan_.buckets.size()) {
      double min_fraction = 1.0;
      for (const GpuState& state : gpus_) {
        const double fraction = plan_.backward_us > 0.0
                                    ? state.backward_done_us / plan_.backward_us
                                    : 1.0;
        min_fraction = std::min(min_fraction, fraction);
      }
      const workloads::GradientBucket& bucket = plan_.buckets[next_bucket_];
      if (min_fraction + 1e-9 < bucket.ready_fraction) {
        return;
      }
      ++next_bucket_;
      const TimeUs issued = sim_->now();
      engine_->AllReduce(ring_, bucket.bytes, [this, issued]() {
        allreduce_us_.Add(sim_->now() - issued);
        ++buckets_done_;
        MaybeStartUpdate();
      });
    }
  }

  void MaybeStartUpdate() {
    if (update_started_ || compute_finished_gpus_ < NumGpus() ||
        buckets_done_ < plan_.buckets.size()) {
      return;
    }
    update_started_ = true;
    if (plan_.update_kernels.empty()) {
      FinishIteration();
      return;
    }
    for (std::size_t slot = 0; slot < NumGpus(); ++slot) {
      PumpUpdate(slot, 0);
    }
  }

  void PumpUpdate(std::size_t slot, std::size_t index) {
    const gpusim::KernelDesc& kernel = plan_.update_kernels[index];
    devices_[slot]->LaunchKernel(compute_streams_[slot], kernel,
                                 [this, slot]() { OnUpdateDone(slot); });
    if (index + 1 < plan_.update_kernels.size()) {
      sim_->ScheduleAfter(launch_overhead_us_,
                          [this, slot, index]() { PumpUpdate(slot, index + 1); });
    }
  }

  void OnUpdateDone(std::size_t slot) {
    GpuState& state = gpus_[slot];
    ++state.update_done;
    if (state.update_done < plan_.update_kernels.size()) {
      return;
    }
    ++update_finished_gpus_;
    if (update_finished_gpus_ == NumGpus()) {
      FinishIteration();
    }
  }

  void FinishIteration() {
    iteration_us_.Add(sim_->now() - iteration_start_);
    ++iterations_done_;
    if (iterations_done_ < static_cast<std::size_t>(iterations_)) {
      StartIteration();
      return;
    }
    finished_at_ = sim_->now();
    *finished_ = true;  // releases the bandwidth hog
  }

  Simulator* sim_;
  const workloads::DdpIterationPlan& plan_;
  std::vector<gpusim::Device*> devices_;
  std::vector<gpusim::StreamId> compute_streams_;
  collective::CollectiveEngine* engine_;
  std::vector<int> ring_;
  int iterations_;
  DurationUs launch_overhead_us_;
  bool* finished_;

  std::vector<GpuState> gpus_;
  std::size_t next_bucket_ = 0;
  std::size_t buckets_done_ = 0;
  std::size_t compute_finished_gpus_ = 0;
  std::size_t update_finished_gpus_ = 0;
  bool update_started_ = false;
  TimeUs iteration_start_ = 0.0;

  TimeUs started_at_ = 0.0;
  TimeUs finished_at_ = 0.0;
  std::size_t iterations_done_ = 0;
  LatencyRecorder iteration_us_;
  LatencyRecorder allreduce_us_;
};

// Size of each bandwidth-hog H2D copy.
constexpr std::size_t kHogCopyBytes = std::size_t{32} << 20;

// Closed-loop H2D copy client: keeps one GPU's host link saturated until the
// DDP job finishes (checked between copies, so the last copy drains and the
// simulation goes idle).
class HogDriver {
 public:
  HogDriver(gpusim::Device* device, gpusim::StreamId stream, const bool* stop)
      : device_(device), stream_(stream), stop_(stop) {}

  void Start() { IssueNext(); }
  std::size_t copies() const { return copies_; }

 private:
  void IssueNext() {
    if (*stop_) {
      return;
    }
    device_->EnqueueMemcpy(stream_, kHogCopyBytes, gpusim::MemcpyKind::kHostToDevice,
                           [this]() {
                             ++copies_;
                             IssueNext();
                           });
  }

  gpusim::Device* device_;
  gpusim::StreamId stream_;
  const bool* stop_;
  std::size_t copies_ = 0;
};

}  // namespace

MultiGpuResult RunDdpExperiment(const MultiGpuConfig& config) {
  const int topo_gpus = config.topology.num_gpus();
  ORION_CHECK(config.iterations >= 1);

  ORION_CHECK(config.ddp.num_gpus <= topo_gpus);
  std::vector<int> ddp_gpus;
  for (int gpu = 0; gpu < config.ddp.num_gpus; ++gpu) {
    ddp_gpus.push_back(gpu);
  }
  if (config.hog.has_value()) {
    ORION_CHECK(config.hog->gpu >= 0 && config.hog->gpu < topo_gpus);
  }

  Simulator sim;
  interconnect::Fabric fabric(&sim, config.topology);
  fabric.set_telemetry(config.telemetry);
  collective::CollectiveEngine engine(&sim, &fabric);
  engine.set_options(config.collective);
  engine.set_telemetry(config.telemetry);

  // One runtime per topology GPU, all copy engines on the shared fabric.
  std::vector<std::unique_ptr<runtime::GpuRuntime>> runtimes;
  for (int gpu = 0; gpu < topo_gpus; ++gpu) {
    auto rt = std::make_unique<runtime::GpuRuntime>(&sim, config.device);
    rt->device().AttachHostLink(&fabric, gpu);
    if (config.telemetry != nullptr && config.telemetry->tracing()) {
      config.telemetry->TraceKernels(rt->device(), "gpu" + std::to_string(gpu));
    }
    runtimes.push_back(std::move(rt));
  }

  const std::vector<int> ring = config.topology.PreferredRing(ddp_gpus);
  std::vector<gpusim::Device*> devices;
  std::vector<gpusim::StreamId> compute_streams;
  for (const int gpu : ring) {
    gpusim::Device& device = runtimes[static_cast<std::size_t>(gpu)]->device();
    engine.BindCommStream(gpu, &device, device.CreateStream());
    compute_streams.push_back(device.CreateStream());
    devices.push_back(&device);
  }

  const workloads::DdpIterationPlan plan = PlanDdpIteration(config.device, config.ddp);

  bool finished = false;
  DdpRun run(&sim, plan, std::move(devices), std::move(compute_streams), &engine, ring,
             config.iterations, config.launch_overhead_us, &finished);

  std::unique_ptr<HogDriver> hog;
  if (config.hog.has_value()) {
    gpusim::Device& device = runtimes[static_cast<std::size_t>(config.hog->gpu)]->device();
    hog = std::make_unique<HogDriver>(&device, device.CreateStream(), &finished);
  }

  // Fault injection: device and fabric faults only (there is no scheduler
  // or per-client driver in the DDP harness). This is the one harness with a
  // fabric, so link and GPU-down faults are applied here.
  std::unique_ptr<fault::FaultInjector> injector;
  if (!config.fault_plan.empty()) {
    injector = std::make_unique<fault::FaultInjector>(&sim, config.fault_plan);
    injector->set_telemetry(config.telemetry);
    for (int gpu = 0; gpu < topo_gpus; ++gpu) {
      injector->RegisterDevice(gpu, &runtimes[static_cast<std::size_t>(gpu)]->device());
    }
    const int num_links = static_cast<int>(config.topology.links().size());
    injector->set_target_handler([&sim, &fabric, topo_gpus,
                                  num_links](const fault::FaultEvent& event) {
      switch (event.kind) {
        case fault::FaultKind::kLinkDegrade:
        case fault::FaultKind::kLinkDown: {
          if (event.link < 0 || event.link >= num_links) {
            return false;
          }
          const double factor = event.kind == fault::FaultKind::kLinkDown ? 0.0 : event.factor;
          SetLinkFactor(fabric, event.link, event.dir, factor);
          if (event.duration_us > 0.0) {
            // A flap: the link returns to full speed after the interval, the
            // shape the collective engine's timeout policy waits out.
            sim.ScheduleAfter(event.duration_us, [&fabric, link = event.link, dir = event.dir]() {
              SetLinkFactor(fabric, link, dir, 1.0);
            });
          }
          return true;
        }
        case fault::FaultKind::kGpuDown:
          // Ring re-formation is the collective engine's job; it detects the
          // dead GPU via Fabric::GpuAlive.
          if (event.gpu < 0 || event.gpu >= topo_gpus) {
            return false;
          }
          fabric.DisconnectGpu(event.gpu);
          return true;
        default:
          return false;
      }
    });
    injector->Arm();
  }

  run.Start();
  if (hog != nullptr) {
    hog->Start();
  }
  sim.RunUntilIdle();
  // A faulted run may legitimately stall (e.g. a permanent link-down with
  // detection disabled); report it instead of aborting.
  ORION_CHECK_MSG(finished || injector != nullptr, "DDP run did not complete");

  MultiGpuResult result;
  result.num_gpus = static_cast<int>(ring.size());
  result.ring = ring;
  result.iterations = run.iterations_done();
  result.param_bytes = plan.param_bytes;
  result.buckets_per_iteration = plan.buckets.size();
  result.total_us = run.finished_at() - run.started_at();
  result.iteration_us = run.iteration_us();
  result.allreduce_us = run.allreduce_us();
  result.compute_alone_us = plan.forward_backward_us + plan.update_us;
  result.hog_copies = hog != nullptr ? hog->copies() : 0;
  result.completed = finished;
  result.faults_injected = injector != nullptr ? injector->injected() : 0;
  result.ring_reformations = engine.reformations();
  result.step_timeouts = engine.step_timeouts();
  result.timeout_giveups = engine.timeout_giveups();
  result.dead_gpus.assign(engine.dead_gpus().begin(), engine.dead_gpus().end());
  result.final_world_size =
      static_cast<int>(ring.size()) - static_cast<int>(result.dead_gpus.size());
  for (const interconnect::Link& link : config.topology.links()) {
    LinkTraffic traffic;
    traffic.name = link.name;
    traffic.kind = link.kind;
    traffic.forward_bytes = fabric.BytesMoved(link.id, true);
    traffic.backward_bytes = fabric.BytesMoved(link.id, false);
    result.link_traffic.push_back(std::move(traffic));
  }

  // Mirror the run's headline numbers into the hub registry so an exported
  // CSV snapshot reproduces what the bench prints.
  if (config.telemetry != nullptr) {
    telemetry::MetricRegistry& reg = config.telemetry->metrics();
    reg.GetCounter("ddp.iterations")->Inc(static_cast<double>(result.iterations));
    reg.GetCounter("ddp.hog_copies")->Inc(static_cast<double>(result.hog_copies));
    reg.GetGauge("ddp.total_us")->Set(result.total_us);
    reg.GetGauge("ddp.final_world_size")
        ->Set(static_cast<double>(result.final_world_size));
    telemetry::Histogram* iteration = reg.GetHistogram("ddp.iteration_us");
    for (const double sample : result.iteration_us.samples()) {
      iteration->Add(sample);
    }
    telemetry::Histogram* allreduce = reg.GetHistogram("ddp.allreduce_us");
    for (const double sample : result.allreduce_us.samples()) {
      allreduce->Add(sample);
    }
    for (const LinkTraffic& traffic : result.link_traffic) {
      const telemetry::Labels by_link = {{"link", traffic.name}};
      reg.GetCounter("ddp.link_forward_bytes", by_link)->Inc(traffic.forward_bytes);
      reg.GetCounter("ddp.link_backward_bytes", by_link)->Inc(traffic.backward_bytes);
    }
  }
  return result;
}

}  // namespace harness
}  // namespace orion
