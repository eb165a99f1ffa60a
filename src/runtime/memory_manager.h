// Device memory accounting.
//
// Orion assumes the cluster manager collocates jobs whose aggregate state
// fits in GPU memory (§5.1.3); this manager enforces that assumption and
// lets the harness report memory-capacity utilization (Table 1).
#ifndef SRC_RUNTIME_MEMORY_MANAGER_H_
#define SRC_RUNTIME_MEMORY_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>

namespace orion {
namespace runtime {

using MemHandle = std::uint64_t;
constexpr MemHandle kInvalidMemHandle = 0;

class MemoryManager {
 public:
  explicit MemoryManager(std::size_t capacity_bytes);

  // Returns kInvalidMemHandle when the allocation would exceed capacity.
  // `client` tags the allocation with its owning client (0 = unattributed)
  // so a crashed client's memory can be reclaimed wholesale.
  MemHandle Allocate(std::size_t bytes, std::uint64_t client = 0);
  // Frees a previous allocation; aborts on unknown or double-freed handles.
  void Free(MemHandle handle);
  // The oldest live allocation of exactly `bytes` tagged with `client`, or
  // kInvalidMemHandle when there is none (size-based cudaFree).
  MemHandle Oldest(std::size_t bytes, std::uint64_t client) const;
  // Frees every live allocation tagged with `client` (process-exit cleanup,
  // src/fault). Returns the number of bytes released.
  std::size_t ReleaseClient(std::uint64_t client);

  std::size_t used() const { return used_; }
  std::size_t available() const { return capacity_ - used_; }
  double utilization() const {
    return capacity_ > 0 ? static_cast<double>(used_) / static_cast<double>(capacity_) : 0.0;
  }
  std::size_t live_allocations() const { return allocations_.size(); }

 private:
  struct Allocation {
    std::size_t bytes = 0;
    std::uint64_t client = 0;
  };

  std::size_t capacity_;
  std::size_t used_ = 0;
  MemHandle next_handle_ = 1;
  std::unordered_map<MemHandle, Allocation> allocations_;
};

}  // namespace runtime
}  // namespace orion

#endif  // SRC_RUNTIME_MEMORY_MANAGER_H_
