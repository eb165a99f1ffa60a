#include "src/profiler/profiler.h"

#include <istream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/parse.h"
#include "src/common/stats.h"
#include "src/runtime/gpu_runtime.h"
#include "src/sim/simulator.h"

namespace orion {
namespace profiler {
namespace {

// Replays requests of one workload back-to-back on a dedicated device with
// host-side launch pacing: each op submission costs `launch_overhead_us` of
// host time; blocking ops stall the host until the device completes them.
// The device's utilization window starts with request `warmup_requests`.
class Replayer {
 public:
  using RequestDone = std::function<void(int request, TimeUs start, TimeUs end)>;

  Replayer(Simulator* sim, runtime::GpuRuntime* rt, gpusim::StreamId stream,
           const std::vector<runtime::Op>& ops, DurationUs overhead, int warmup_requests,
           int total_requests, RequestDone on_done)
      : sim_(sim),
        rt_(rt),
        stream_(stream),
        ops_(ops),
        overhead_(overhead),
        warmup_requests_(warmup_requests),
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
    if (request_ == warmup_requests_) {
      rt_->device().utilization().set_window_start(request_start_);
    }
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
  const std::vector<runtime::Op>& ops_;
  DurationUs overhead_;
  int warmup_requests_;
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

namespace {

WorkloadProfile MeasureProfile(const gpusim::DeviceSpec& device,
                               const workloads::WorkloadSpec& spec,
                               const ProfileOptions& options) {
  ORION_CHECK(options.measured_requests > 0);

  Simulator sim;
  runtime::GpuRuntime rt(&sim, device);
  const gpusim::StreamId stream = rt.CreateStream();

  const std::vector<runtime::Op>& ops = workloads::SharedRequestTemplate(device, spec).ops;

  // Accumulate measured durations per kernel id.
  std::unordered_map<std::uint64_t, std::pair<double, int>> measured;  // sum, count
  rt.device().set_kernel_trace_sink([&measured](const gpusim::KernelExecRecord& rec) {
    auto& slot = measured[rec.kernel_id];
    slot.first += rec.end - rec.start;
    slot.second += 1;
  });

  const int total = options.warmup_requests + options.measured_requests;
  LatencyRecorder latencies;
  Replayer replayer(&sim, &rt, stream, ops, options.launch_overhead_us,
                    options.warmup_requests, total,
                    [&](int request, TimeUs start, TimeUs end) {
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
      rt.device().utilization().Average(sim.now());
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
    kp.name = kernel.name.str();
    auto it = measured.find(kernel.kernel_id);
    ORION_CHECK_MSG(it != measured.end(), "kernel never executed: " << kernel.name);
    kp.duration_us = it->second.first / it->second.second;
    kp.compute_util = kernel.compute_util;
    kp.membw_util = kernel.membw_util;
    kp.profile = gpusim::ClassifyKernel(kernel);
    kp.sm_needed = kernel.sm_needed;
    profile.kernels.push_back(std::move(kp));
  }
  profile.RebuildIndex();
  return profile;
}

// A profile depends only on its inputs: kernel ids are built from (model,
// task, index) and the replay is deterministic.
struct ProfileKey {
  gpusim::DeviceSpec device;
  workloads::WorkloadSpec spec;
  ProfileOptions options;

  auto operator<=>(const ProfileKey&) const = default;
};

struct ProfileMemo {
  std::mutex mutex;
  std::map<ProfileKey, WorkloadProfile> profiles;  // guarded by mutex
};

ProfileMemo& Memo() {
  static ProfileMemo memo;
  return memo;
}

}  // namespace

const WorkloadProfile& SharedProfile(const gpusim::DeviceSpec& device,
                                     const workloads::WorkloadSpec& spec,
                                     const ProfileOptions& options) {
  ProfileMemo& memo = Memo();
  ProfileKey key{device, spec, options};
  {
    const std::lock_guard<std::mutex> lock(memo.mutex);
    const auto it = memo.profiles.find(key);
    if (it != memo.profiles.end()) {
      return it->second;
    }
  }
  // Measured outside the lock so distinct inputs can profile concurrently.
  // If another thread stored the same key meanwhile, its entry is kept; the
  // two profiles are equal. Entries are never erased, so references into
  // the map stay valid.
  WorkloadProfile profile = MeasureProfile(device, spec, options);
  const std::lock_guard<std::mutex> lock(memo.mutex);
  return memo.profiles.try_emplace(std::move(key), std::move(profile)).first->second;
}

WorkloadProfile ProfileWorkload(const gpusim::DeviceSpec& device,
                                const workloads::WorkloadSpec& spec,
                                const ProfileOptions& options) {
  return SharedProfile(device, spec, options);
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

// Reads a saved profile line by line, remembering the line number so a
// parse error can name the line it stopped at.
class ProfileParser {
 public:
  explicit ProfileParser(std::istream& is) : is_(is) {}

  // Reads the next line as `key=value`.
  bool Value(const std::string& key, std::string* value) {
    if (!NextLine()) {
      return Fail("file ends before key '" + key + "'");
    }
    const auto eq = line_.find('=');
    if (eq == std::string::npos || line_.substr(0, eq) != key) {
      return Fail("expected key '" + key + "', got '" + line_ + "'");
    }
    *value = line_.substr(eq + 1);
    return true;
  }

  bool Double(const std::string& key, double* out) {
    std::string text;
    return Value(key, &text) && ParseDouble(key, text, out);
  }

  bool Count(const std::string& key, std::uint64_t* out) {
    std::string text;
    return Value(key, &text) && ParseUint(key, text, out);
  }

  // Reads one `id,name,duration,compute,membw,class,sm_needed` kernel line.
  bool Kernel(std::size_t index, std::size_t count, KernelProfile* kp) {
    if (!NextLine()) {
      std::ostringstream what;
      what << "file ends after " << index << " of " << count << " kernels";
      return Fail(what.str());
    }
    std::vector<std::string> fields;
    std::istringstream stream(line_);
    for (std::string field; std::getline(stream, field, ',');) {
      fields.push_back(field);
    }
    if (fields.size() != 7) {
      return Fail("expected 7 comma-separated kernel fields, got '" + line_ + "'");
    }
    std::uint64_t profile_class = 0;
    std::uint64_t sm_needed = 0;
    kp->name = fields[1];
    if (!ParseUint("kernel id", fields[0], &kp->kernel_id) ||
        !ParseDouble("duration", fields[2], &kp->duration_us) ||
        !ParseDouble("compute util", fields[3], &kp->compute_util) ||
        !ParseDouble("membw util", fields[4], &kp->membw_util) ||
        !ParseUint("kernel class", fields[5], &profile_class) ||
        !ParseUint("sm_needed", fields[6], &sm_needed)) {
      return false;
    }
    constexpr auto kLastClass = static_cast<std::uint64_t>(gpusim::ResourceProfile::kUnknown);
    if (profile_class > kLastClass) {
      std::ostringstream what;
      what << "kernel class " << profile_class << " out of range [0, " << kLastClass << "]";
      return Fail(what.str());
    }
    if (sm_needed > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      return Fail("sm_needed " + fields[6] + " out of range");
    }
    kp->profile = static_cast<gpusim::ResourceProfile>(profile_class);
    kp->sm_needed = static_cast<int>(sm_needed);
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool NextLine() {
    ++line_no_;
    return static_cast<bool>(std::getline(is_, line_));
  }

  bool Fail(const std::string& what) {
    std::ostringstream message;
    message << "line " << line_no_ << ": " << what;
    error_ = message.str();
    return false;
  }

  bool ParseDouble(const std::string& what, const std::string& text, double* out) {
    const std::optional<double> value = orion::ParseDouble(text);
    if (!value) {
      return Fail(what + " '" + text + "' is not a number");
    }
    *out = *value;
    return true;
  }

  bool ParseUint(const std::string& what, const std::string& text, std::uint64_t* out) {
    const std::optional<std::uint64_t> value = orion::ParseUint(text);
    if (!value) {
      return Fail(what + " '" + text + "' is not a non-negative integer");
    }
    *out = *value;
    return true;
  }

  std::istream& is_;
  std::string line_;
  int line_no_ = 0;
  std::string error_;
};

}  // namespace

std::optional<WorkloadProfile> LoadProfile(std::istream& is, std::string* error) {
  ProfileParser parser(is);
  WorkloadProfile profile;
  std::uint64_t count = 0;
  bool ok = parser.Value("workload", &profile.workload_name) &&
            parser.Value("device", &profile.device_name) &&
            parser.Double("request_latency_us", &profile.request_latency_us) &&
            parser.Double("avg_compute_util", &profile.avg_compute_util) &&
            parser.Double("avg_membw_util", &profile.avg_membw_util) &&
            parser.Double("avg_sm_busy", &profile.avg_sm_busy) &&
            parser.Count("kernels", &count);
  for (std::size_t i = 0; ok && i < count; ++i) {
    KernelProfile kp;
    ok = parser.Kernel(i, count, &kp);
    profile.kernels.push_back(std::move(kp));
  }
  if (!ok) {
    *error = parser.error();
    return std::nullopt;
  }
  profile.RebuildIndex();
  return profile;
}

}  // namespace profiler
}  // namespace orion
