#include "src/gpusim/kernel.h"

#include <functional>
#include <mutex>
#include <ostream>
#include <unordered_set>

namespace orion {
namespace gpusim {
namespace {

// Lets the table be probed with a string_view, so a hit allocates nothing.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view text) const {
    return std::hash<std::string_view>{}(text);
  }
};

// Node-based, so an entry's address is stable across rehashing. Never
// destroyed: names may be read during static destruction.
struct NameTable {
  std::mutex mutex;
  std::unordered_set<std::string, NameHash, std::equal_to<>> names;
};

NameTable& Names() {
  static NameTable* const table = new NameTable;
  return *table;
}

}  // namespace

KernelName::KernelName(std::string_view text) {
  if (text.empty()) {
    return;
  }
  NameTable& table = Names();
  const std::lock_guard<std::mutex> lock(table.mutex);
  auto it = table.names.find(text);
  if (it == table.names.end()) {
    it = table.names.emplace(text).first;
  }
  text_ = &*it;
}

const std::string& KernelName::str() const {
  static const std::string kEmpty;
  return text_ != nullptr ? *text_ : kEmpty;
}

std::ostream& operator<<(std::ostream& os, KernelName name) { return os << name.str(); }

const char* ResourceProfileName(ResourceProfile profile) {
  switch (profile) {
    case ResourceProfile::kComputeBound:
      return "compute";
    case ResourceProfile::kMemoryBound:
      return "memory";
    case ResourceProfile::kUnknown:
      return "unknown";
  }
  return "invalid";
}

ResourceProfile ClassifyKernel(const KernelDesc& kernel) {
  if (kernel.has_roofline) {
    return kernel.roofline_class;
  }
  constexpr double kThreshold = 0.6;
  const bool compute_hot = kernel.compute_util > kThreshold;
  const bool memory_hot = kernel.membw_util > kThreshold;
  if (compute_hot && memory_hot) {
    return kernel.compute_util >= kernel.membw_util ? ResourceProfile::kComputeBound
                                                    : ResourceProfile::kMemoryBound;
  }
  if (compute_hot) {
    return ResourceProfile::kComputeBound;
  }
  if (memory_hot) {
    return ResourceProfile::kMemoryBound;
  }
  return ResourceProfile::kUnknown;
}

bool HaveDifferentProfiles(ResourceProfile a, ResourceProfile b) {
  // Unknown-profile kernels are short and collocate with anything (§5.2).
  if (a == ResourceProfile::kUnknown || b == ResourceProfile::kUnknown) {
    return true;
  }
  return a != b;
}

}  // namespace gpusim
}  // namespace orion
