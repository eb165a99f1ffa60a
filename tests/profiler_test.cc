// Profiler tests: the offline phase measures what the device actually did,
// classification matches §5.2, and profiles round-trip through files.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/profiler/profiler.h"

namespace orion {
namespace profiler {
namespace {

const gpusim::DeviceSpec kV100 = gpusim::DeviceSpec::V100_16GB();

class ProfilerTest : public ::testing::Test {
 protected:
  WorkloadProfile Profile(workloads::ModelId model, workloads::TaskType task) {
    ProfileOptions opts;
    opts.warmup_requests = 1;
    opts.measured_requests = 3;
    return ProfileWorkload(kV100, workloads::MakeWorkload(model, task), opts);
  }
};

TEST_F(ProfilerTest, CoversEveryKernel) {
  const auto spec = workloads::MakeWorkload(workloads::ModelId::kResNet50,
                                            workloads::TaskType::kInference);
  const auto profile = Profile(workloads::ModelId::kResNet50, workloads::TaskType::kInference);
  const auto kernels = workloads::BuildKernels(kV100, spec);
  EXPECT_EQ(profile.kernels.size(), kernels.size());
  for (const auto& kernel : kernels) {
    const KernelProfile* kp = profile.Find(kernel.kernel_id);
    ASSERT_NE(kp, nullptr) << kernel.name;
    // Run-alone measurement equals the descriptor duration (no contention).
    EXPECT_NEAR(kp->duration_us, kernel.duration_us, 1e-6) << kernel.name;
    EXPECT_EQ(kp->sm_needed, gpusim::SmsNeeded(kV100, kernel.geometry));
    EXPECT_EQ(kp->profile, gpusim::ClassifyKernel(kernel));
  }
}

TEST_F(ProfilerTest, RequestLatencyIncludesHostPacing) {
  const auto profile = Profile(workloads::ModelId::kResNet50, workloads::TaskType::kInference);
  double kernel_sum = 0.0;
  for (const auto& kp : profile.kernels) {
    kernel_sum += kp.duration_us;
  }
  // End-to-end latency covers kernels plus copies and launch pacing.
  EXPECT_GT(profile.request_latency_us, kernel_sum * 0.8);
  EXPECT_LT(profile.request_latency_us, kernel_sum * 3.0);
}

TEST_F(ProfilerTest, UtilizationAveragesPopulated) {
  const auto profile = Profile(workloads::ModelId::kResNet50, workloads::TaskType::kTraining);
  EXPECT_GT(profile.avg_compute_util, 0.05);
  EXPECT_GT(profile.avg_membw_util, 0.05);
  EXPECT_GT(profile.avg_sm_busy, 0.1);
  EXPECT_LE(profile.avg_compute_util, 1.0);
  EXPECT_LE(profile.avg_membw_util, 1.0);
  EXPECT_LE(profile.avg_sm_busy, 1.0);
}

TEST_F(ProfilerTest, FindUnknownIdReturnsNull) {
  const auto profile = Profile(workloads::ModelId::kMobileNetV2, workloads::TaskType::kInference);
  EXPECT_EQ(profile.Find(0xdeadbeefdeadbeefULL), nullptr);
}

TEST_F(ProfilerTest, SaveLoadRoundTrip) {
  const auto profile = Profile(workloads::ModelId::kBert, workloads::TaskType::kInference);
  std::stringstream file;
  SaveProfile(profile, file);
  std::string error;
  const std::optional<WorkloadProfile> reloaded = LoadProfile(file, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  const WorkloadProfile& loaded = *reloaded;
  EXPECT_EQ(loaded.workload_name, profile.workload_name);
  EXPECT_EQ(loaded.device_name, profile.device_name);
  EXPECT_NEAR(loaded.request_latency_us, profile.request_latency_us, 1e-3);
  ASSERT_EQ(loaded.kernels.size(), profile.kernels.size());
  for (std::size_t i = 0; i < loaded.kernels.size(); ++i) {
    EXPECT_EQ(loaded.kernels[i].kernel_id, profile.kernels[i].kernel_id);
    EXPECT_EQ(loaded.kernels[i].name, profile.kernels[i].name);
    EXPECT_NEAR(loaded.kernels[i].duration_us, profile.kernels[i].duration_us, 1e-3);
    EXPECT_EQ(loaded.kernels[i].profile, profile.kernels[i].profile);
    EXPECT_EQ(loaded.kernels[i].sm_needed, profile.kernels[i].sm_needed);
  }
  // The loaded profile's lookup table works.
  EXPECT_NE(loaded.Find(profile.kernels.front().kernel_id), nullptr);
}

// Field-by-field equality, lookup index included.
void ExpectSameProfile(const WorkloadProfile& a, const WorkloadProfile& b) {
  EXPECT_EQ(a.workload_name, b.workload_name);
  EXPECT_EQ(a.device_name, b.device_name);
  EXPECT_EQ(a.request_latency_us, b.request_latency_us);
  EXPECT_EQ(a.avg_compute_util, b.avg_compute_util);
  EXPECT_EQ(a.avg_membw_util, b.avg_membw_util);
  EXPECT_EQ(a.avg_sm_busy, b.avg_sm_busy);
  ASSERT_EQ(a.kernels.size(), b.kernels.size());
  for (std::size_t i = 0; i < a.kernels.size(); ++i) {
    const KernelProfile& ka = a.kernels[i];
    const KernelProfile& kb = b.kernels[i];
    EXPECT_EQ(ka.kernel_id, kb.kernel_id) << i;
    EXPECT_EQ(ka.name, kb.name) << i;
    EXPECT_EQ(ka.duration_us, kb.duration_us) << i;
    EXPECT_EQ(ka.compute_util, kb.compute_util) << i;
    EXPECT_EQ(ka.membw_util, kb.membw_util) << i;
    EXPECT_EQ(ka.profile, kb.profile) << i;
    EXPECT_EQ(ka.sm_needed, kb.sm_needed) << i;
    // Each copy's index points into its own kernel list.
    EXPECT_EQ(a.Find(ka.kernel_id), &ka) << i;
    EXPECT_EQ(b.Find(kb.kernel_id), &kb) << i;
  }
}

TEST_F(ProfilerTest, DeterministicAcrossRuns) {
  // memory_bytes is part of the memo key but not of the replay, so these
  // are two separate measurements of the same workload.
  gpusim::DeviceSpec other = kV100;
  other.memory_bytes /= 2;
  const auto spec = workloads::MakeWorkload(workloads::ModelId::kTransformer,
                                            workloads::TaskType::kInference);
  ExpectSameProfile(ProfileWorkload(kV100, spec), ProfileWorkload(other, spec));
}

TEST_F(ProfilerTest, MemoHitEqualsFreshProfile) {
  const auto spec = workloads::MakeWorkload(workloads::ModelId::kMobileNetV2,
                                            workloads::TaskType::kInference);
  ProfileOptions opts;
  opts.measured_requests = 3;
  const WorkloadProfile first = ProfileWorkload(kV100, spec, opts);
  WorkloadProfile second = ProfileWorkload(kV100, spec, opts);
  ExpectSameProfile(first, second);
  // A caller's edits stay in its copy.
  second.kernels.front().duration_us *= 10.0;
  second.kernels.pop_back();
  second.RebuildIndex();
  ExpectSameProfile(first, ProfileWorkload(kV100, spec, opts));

  // Every field below is part of the key, so each variant gets its own
  // entry; where the field changes the replay, the profile differs.
  gpusim::DeviceSpec fewer_sms = kV100;
  fewer_sms.num_sms /= 2;
  EXPECT_NE(fewer_sms, kV100);
  EXPECT_NE(ProfileWorkload(fewer_sms, spec, opts).request_latency_us,
            first.request_latency_us);

  gpusim::DeviceSpec less_memory = kV100;
  less_memory.memory_bytes /= 2;
  EXPECT_NE(less_memory, kV100);
  ExpectSameProfile(ProfileWorkload(less_memory, spec, opts), first);

  workloads::WorkloadSpec bigger_batch = spec;
  bigger_batch.batch_size *= 4;
  EXPECT_NE(bigger_batch, spec);
  EXPECT_NE(ProfileWorkload(kV100, bigger_batch, opts).request_latency_us,
            first.request_latency_us);

  workloads::WorkloadSpec training = spec;
  training.task = workloads::TaskType::kTraining;
  EXPECT_NE(training, spec);
  EXPECT_NE(ProfileWorkload(kV100, training, opts).kernels.size(), first.kernels.size());

  ProfileOptions slower_host = opts;
  slower_host.launch_overhead_us *= 10.0;
  EXPECT_NE(slower_host, opts);
  EXPECT_NE(ProfileWorkload(kV100, spec, slower_host).request_latency_us,
            first.request_latency_us);
}

TEST_F(ProfilerTest, MoreHostOverheadSlowsRequests) {
  const auto spec = workloads::MakeWorkload(workloads::ModelId::kMobileNetV2,
                                            workloads::TaskType::kInference);
  ProfileOptions fast;
  fast.launch_overhead_us = 2.0;
  fast.measured_requests = 3;
  ProfileOptions slow;
  slow.launch_overhead_us = 60.0;  // large enough that the host is the bottleneck
  slow.measured_requests = 3;
  const auto profile_fast = ProfileWorkload(kV100, spec, fast);
  const auto profile_slow = ProfileWorkload(kV100, spec, slow);
  EXPECT_GT(profile_slow.request_latency_us, profile_fast.request_latency_us);
}

// The memo is shared by every thread of the process (a run pool profiles
// from several threads at once); concurrent callers, on hits and misses
// alike, all get equal profiles.
TEST_F(ProfilerTest, ConcurrentCallersGetEqualProfiles) {
  gpusim::DeviceSpec device = kV100;
  device.memory_bytes -= 1;  // an input no other test profiles: the first calls miss
  const workloads::WorkloadSpec specs[] = {
      workloads::MakeWorkload(workloads::ModelId::kResNet50, workloads::TaskType::kInference),
      workloads::MakeWorkload(workloads::ModelId::kBert, workloads::TaskType::kInference)};
  ProfileOptions opts;
  opts.measured_requests = 2;
  constexpr int kThreads = 4;
  std::vector<WorkloadProfile> results(2 * kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < 2; ++i) {
        const int which = (t + i) % 2;
        results[static_cast<std::size_t>(2 * t + which)] =
            ProfileWorkload(device, specs[which], opts);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int which = 0; which < 2; ++which) {
      SCOPED_TRACE(testing::Message() << "thread " << t << " input " << which);
      ExpectSameProfile(results[static_cast<std::size_t>(2 * t + which)],
                        ProfileWorkload(device, specs[which], opts));
    }
  }
}

// Loads `text` as a profile file and returns the error it was rejected with
// (empty when it loaded).
std::string LoadError(const std::string& text) {
  std::stringstream file(text);
  std::string error;
  return LoadProfile(file, &error).has_value() ? "" : error;
}

// A valid two-kernel profile file, line by line.
std::vector<std::string> ValidLines() {
  return {"workload=w",
          "device=d",
          "request_latency_us=100",
          "avg_compute_util=0.5",
          "avg_membw_util=0.25",
          "avg_sm_busy=0.75",
          "kernels=2",
          "11,conv,40.5,0.8,0.2,0,60",
          "12,bn,9.5,0.1,0.7,1,20"};
}

std::string Join(const std::vector<std::string>& lines, std::size_t count) {
  std::string text;
  for (std::size_t i = 0; i < count; ++i) {
    text += lines[i] + "\n";
  }
  return text;
}

TEST_F(ProfilerTest, LoadRejectsCorruptFile) {
  EXPECT_EQ(LoadError("not-a-profile\n"), "line 1: expected key 'workload', got 'not-a-profile'");
  const std::vector<std::string> lines = ValidLines();
  EXPECT_EQ(LoadError(Join(lines, lines.size())), "");
}

TEST_F(ProfilerTest, LoadReportsTruncatedHeader) {
  EXPECT_EQ(LoadError(Join(ValidLines(), 4)), "line 5: file ends before key 'avg_membw_util'");
}

TEST_F(ProfilerTest, LoadReportsTruncatedKernelList) {
  EXPECT_EQ(LoadError(Join(ValidLines(), 8)), "line 9: file ends after 1 of 2 kernels");
}

TEST_F(ProfilerTest, LoadReportsNonNumericField) {
  std::vector<std::string> lines = ValidLines();
  lines[2] = "request_latency_us=fast";
  EXPECT_EQ(LoadError(Join(lines, lines.size())),
            "line 3: request_latency_us 'fast' is not a number");
  lines = ValidLines();
  lines[8] = "12,bn,9.5x,0.1,0.7,1,20";
  EXPECT_EQ(LoadError(Join(lines, lines.size())), "line 9: duration '9.5x' is not a number");
}

TEST_F(ProfilerTest, LoadReportsOutOfRangeClass) {
  std::vector<std::string> lines = ValidLines();
  lines[7] = "11,conv,40.5,0.8,0.2,3,60";
  EXPECT_EQ(LoadError(Join(lines, lines.size())), "line 8: kernel class 3 out of range [0, 2]");
  lines[7] = "11,conv,40.5,0.8,0.2,-1,60";
  EXPECT_EQ(LoadError(Join(lines, lines.size())),
            "line 8: kernel class '-1' is not a non-negative integer");
}

}  // namespace
}  // namespace profiler
}  // namespace orion
