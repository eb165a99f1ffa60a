#include "src/profiler/profiler.h"

#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/runtime/gpu_runtime.h"
#include "src/sim/simulator.h"

namespace orion {
namespace profiler {
namespace {

// Replays requests of one workload back-to-back on a dedicated device with
// host-side launch pacing: each op submission costs `launch_overhead_us` of
// host time; blocking ops stall the host until the device completes them.
class Replayer {
 public:
  using RequestDone = std::function<void(int request, TimeUs start, TimeUs end)>;

  Replayer(Simulator* sim, runtime::GpuRuntime* rt, gpusim::StreamId stream,
           std::vector<runtime::Op> ops, DurationUs overhead, int total_requests,
           RequestDone on_done)
      : sim_(sim),
        rt_(rt),
        stream_(stream),
        ops_(std::move(ops)),
        overhead_(overhead),
        total_requests_(total_requests),
        on_done_(std::move(on_done)) {
    ORION_CHECK(!ops_.empty());
  }

  void Start() { BeginRequest(); }

 private:
  void BeginRequest() {
    if (request_ >= total_requests_) {
      return;
    }
    next_op_ = 0;
    request_start_ = sim_->now();
    SubmitNext();
  }

  void SubmitNext() {
    if (next_op_ >= ops_.size()) {
      return;  // all submitted; completion callback drives the next request
    }
    const runtime::Op& op = ops_[next_op_];
    const bool last = next_op_ + 1 == ops_.size();
    ++next_op_;
    runtime::GpuRuntime::CompletionCb done;
    if (last) {
      done = [this]() { OnRequestComplete(); };
    } else if (op.blocking) {
      done = [this]() { sim_->ScheduleAfter(overhead_, [this]() { SubmitNext(); }); };
    }
    rt_->Submit(op, stream_, std::move(done));
    if (!last && !op.blocking) {
      sim_->ScheduleAfter(overhead_, [this]() { SubmitNext(); });
    }
  }

  void OnRequestComplete() {
    const int finished = request_++;
    on_done_(finished, request_start_, sim_->now());
    // Closed loop: next request follows immediately.
    sim_->ScheduleAfter(overhead_, [this]() { BeginRequest(); });
  }

  Simulator* sim_;
  runtime::GpuRuntime* rt_;
  gpusim::StreamId stream_;
  std::vector<runtime::Op> ops_;
  DurationUs overhead_;
  int total_requests_;
  RequestDone on_done_;
  int request_ = 0;
  std::size_t next_op_ = 0;
  TimeUs request_start_ = 0.0;
};

}  // namespace

const KernelProfile* WorkloadProfile::Find(std::uint64_t kernel_id) const {
  auto it = index_.find(kernel_id);
  return it == index_.end() ? nullptr : &kernels[it->second];
}

void WorkloadProfile::RebuildIndex() {
  index_.clear();
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    index_.emplace(kernels[i].kernel_id, i);
  }
}

WorkloadProfile ProfileWorkload(const gpusim::DeviceSpec& device,
                                const workloads::WorkloadSpec& spec,
                                const ProfileOptions& options) {
  ORION_CHECK(options.measured_requests > 0);

  Simulator sim;
  runtime::GpuRuntime rt(&sim, device);
  const gpusim::StreamId stream = rt.CreateStream();

  std::vector<runtime::Op> ops = workloads::BuildRequestOps(device, spec);

  // Accumulate measured durations per kernel id.
  std::unordered_map<std::uint64_t, std::pair<double, int>> measured;  // sum, count
  rt.device().set_kernel_trace_sink([&measured](const gpusim::KernelExecRecord& rec) {
    auto& slot = measured[rec.kernel_id];
    slot.first += rec.end - rec.start;
    slot.second += 1;
  });

  const int total = options.warmup_requests + options.measured_requests;
  LatencyRecorder latencies;
  TimeUs measure_start = 0.0;
  Replayer replayer(&sim, &rt, stream, ops, options.launch_overhead_us, total,
                    [&](int request, TimeUs start, TimeUs end) {
                      if (request == options.warmup_requests) {
                        measure_start = start;
                      }
                      if (request >= options.warmup_requests) {
                        latencies.Add(end - start);
                      }
                    });
  replayer.Start();
  sim.RunUntilIdle();

  WorkloadProfile profile;
  profile.workload_name = workloads::WorkloadName(spec);
  profile.device_name = device.name;
  profile.request_latency_us = latencies.mean();

  const gpusim::UtilizationSample avg =
      rt.device().utilization().AverageOver(measure_start, sim.now());
  profile.avg_compute_util = avg.compute;
  profile.avg_membw_util = avg.membw;
  profile.avg_sm_busy = avg.sm_busy;

  for (const runtime::Op& op : ops) {
    if (op.type != runtime::OpType::kKernelLaunch) {
      continue;
    }
    const gpusim::KernelDesc& kernel = op.kernel;
    KernelProfile kp;
    kp.kernel_id = kernel.kernel_id;
    kp.name = kernel.name;
    auto it = measured.find(kernel.kernel_id);
    ORION_CHECK_MSG(it != measured.end(), "kernel never executed: " << kernel.name);
    kp.duration_us = it->second.first / it->second.second;
    kp.compute_util = kernel.compute_util;
    kp.membw_util = kernel.membw_util;
    kp.profile = gpusim::ClassifyKernel(kernel);
    kp.sm_needed = gpusim::SmsNeeded(device, kernel.geometry);
    profile.kernels.push_back(std::move(kp));
  }
  profile.RebuildIndex();
  return profile;
}

void SaveProfile(const WorkloadProfile& profile, std::ostream& os) {
  os.precision(17);  // round-trip-exact doubles
  os << "workload=" << profile.workload_name << "\n";
  os << "device=" << profile.device_name << "\n";
  os << "request_latency_us=" << profile.request_latency_us << "\n";
  os << "avg_compute_util=" << profile.avg_compute_util << "\n";
  os << "avg_membw_util=" << profile.avg_membw_util << "\n";
  os << "avg_sm_busy=" << profile.avg_sm_busy << "\n";
  os << "kernels=" << profile.kernels.size() << "\n";
  for (const KernelProfile& kp : profile.kernels) {
    os << kp.kernel_id << "," << kp.name << "," << kp.duration_us << "," << kp.compute_util
       << "," << kp.membw_util << "," << static_cast<int>(kp.profile) << "," << kp.sm_needed
       << "\n";
  }
}

namespace {

std::string ReadValue(std::istream& is, const std::string& key) {
  std::string line;
  ORION_CHECK_MSG(std::getline(is, line).good(), "truncated profile file at key " << key);
  const auto eq = line.find('=');
  ORION_CHECK_MSG(eq != std::string::npos && line.substr(0, eq) == key,
                  "expected key " << key << ", got line: " << line);
  return line.substr(eq + 1);
}

}  // namespace

WorkloadProfile LoadProfile(std::istream& is) {
  WorkloadProfile profile;
  profile.workload_name = ReadValue(is, "workload");
  profile.device_name = ReadValue(is, "device");
  profile.request_latency_us = std::stod(ReadValue(is, "request_latency_us"));
  profile.avg_compute_util = std::stod(ReadValue(is, "avg_compute_util"));
  profile.avg_membw_util = std::stod(ReadValue(is, "avg_membw_util"));
  profile.avg_sm_busy = std::stod(ReadValue(is, "avg_sm_busy"));
  const std::size_t count = std::stoul(ReadValue(is, "kernels"));
  for (std::size_t i = 0; i < count; ++i) {
    std::string line;
    ORION_CHECK_MSG(std::getline(is, line).good(), "truncated kernel list");
    std::istringstream fields(line);
    std::string field;
    KernelProfile kp;
    ORION_CHECK(std::getline(fields, field, ','));
    kp.kernel_id = std::stoull(field);
    ORION_CHECK(std::getline(fields, kp.name, ','));
    ORION_CHECK(std::getline(fields, field, ','));
    kp.duration_us = std::stod(field);
    ORION_CHECK(std::getline(fields, field, ','));
    kp.compute_util = std::stod(field);
    ORION_CHECK(std::getline(fields, field, ','));
    kp.membw_util = std::stod(field);
    ORION_CHECK(std::getline(fields, field, ','));
    kp.profile = static_cast<gpusim::ResourceProfile>(std::stoi(field));
    ORION_CHECK(std::getline(fields, field, ','));
    kp.sm_needed = std::stoi(field);
    profile.kernels.push_back(std::move(kp));
  }
  profile.RebuildIndex();
  return profile;
}

}  // namespace profiler
}  // namespace orion
