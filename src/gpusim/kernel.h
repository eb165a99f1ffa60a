// Kernel descriptors: the unit of scheduling in Orion.
//
// A KernelDesc carries everything the device model needs to execute a kernel
// (run-alone duration and resource demands) and everything the Orion profiler
// extracts offline (launch geometry, compute/memory utilization). The
// resource profile classification mirrors §5.2: roofline if available,
// otherwise the >60% utilization rule, otherwise Unknown.
#ifndef SRC_GPUSIM_KERNEL_H_
#define SRC_GPUSIM_KERNEL_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>

#include "src/common/time_types.h"
#include "src/gpusim/device_spec.h"

namespace orion {
namespace gpusim {

enum class ResourceProfile : std::uint8_t {
  kComputeBound,
  kMemoryBound,
  kUnknown,
};

const char* ResourceProfileName(ResourceProfile profile);

// Phase of the owning request, used by phase-aware schedulers (Tick-Tock).
enum class KernelPhase : std::uint8_t {
  kForward,
  kBackward,
  kUpdate,
  kNone,  // inference or phase-less kernels
};

// Interned kernel name. Constructing one looks the text up in a
// process-lifetime table (behind a mutex, so concurrent profiling runs may
// build kernels); copying one copies a pointer. Equal texts share one entry,
// so two names compare equal exactly when their pointers do. This keeps
// KernelDesc trivially copyable: a kernel travels from the client driver
// through the scheduler queues, the device stream and the running set to
// its exec record without allocating.
class KernelName {
 public:
  KernelName() = default;  // the empty name
  KernelName(std::string_view text);
  KernelName(const char* text) : KernelName(std::string_view(text)) {}
  KernelName(const std::string& text) : KernelName(std::string_view(text)) {}

  const std::string& str() const;

  friend bool operator==(KernelName a, KernelName b) { return a.text_ == b.text_; }
  // Exact matches for text, so comparing with a literal or a string does
  // not have to choose between converting either side.
  friend bool operator==(KernelName a, const char* b) { return a.str() == b; }
  friend bool operator==(KernelName a, const std::string& b) { return a.str() == b; }

 private:
  const std::string* text_ = nullptr;  // null for the empty name
};

std::ostream& operator<<(std::ostream& os, KernelName name);

struct KernelDesc {
  // Stable identifier: equal kernels across iterations of the same model
  // share an id, which is how profile lookup tables are keyed (§5.2).
  std::uint64_t kernel_id = 0;
  KernelName name;

  LaunchGeometry geometry;

  // Run-alone duration on the reference device. The device model treats this
  // as the amount of "work" and stretches it under contention.
  DurationUs duration_us = 0.0;

  // Fraction of device peak compute throughput / memory bandwidth this kernel
  // consumes when running alone (0..1). These drive the interference model
  // and the roofline classification.
  double compute_util = 0.0;
  double membw_util = 0.0;

  // SMs the launch geometry occupies on the device the descriptor was built
  // for: SmsNeeded(spec, geometry), computed once by whoever builds the
  // descriptor. The device model, the profiler and the schedulers read it
  // instead of redoing the occupancy divisions per launch. Occupancy
  // depends on the device (V100 and A100 differ in shared memory per SM),
  // so a descriptor is only valid on devices of the spec it was built for;
  // the device's debug oracle checks that.
  int sm_needed = 0;

  // True if the (simulated) profiling tool has a roofline analysis for this
  // kernel; some kernels lack one (§3.1, footnote 4).
  bool has_roofline = false;
  ResourceProfile roofline_class = ResourceProfile::kUnknown;

  KernelPhase phase = KernelPhase::kNone;
};
static_assert(std::is_trivially_copyable_v<KernelDesc>,
              "KernelDesc is copied per launch; keep it allocation-free");

// Classification rule from §5.2: prefer roofline; else compute-bound if
// compute_util > 0.6, memory-bound if membw_util > 0.6, else unknown.
// Ties (both above 0.6) resolve to the larger utilization.
ResourceProfile ClassifyKernel(const KernelDesc& kernel);

// True when the two profiles are "opposite" in the sense of §5.1.1 line 28:
// one compute-bound and the other memory-bound. Unknown never conflicts.
bool HaveDifferentProfiles(ResourceProfile a, ResourceProfile b);

}  // namespace gpusim
}  // namespace orion

#endif  // SRC_GPUSIM_KERNEL_H_
