#include "src/runtime/memory_manager.h"

#include "src/common/check.h"

namespace orion {
namespace runtime {

MemoryManager::MemoryManager(std::size_t capacity_bytes) : capacity_(capacity_bytes) {}

MemHandle MemoryManager::Allocate(std::size_t bytes, std::uint64_t client) {
  if (bytes > available()) {
    return kInvalidMemHandle;
  }
  const MemHandle handle = next_handle_++;
  allocations_.emplace(handle, Allocation{bytes, client});
  used_ += bytes;
  return handle;
}

void MemoryManager::Free(MemHandle handle) {
  auto it = allocations_.find(handle);
  ORION_CHECK_MSG(it != allocations_.end(), "free of unknown handle " << handle);
  ORION_CHECK(used_ >= it->second.bytes);
  used_ -= it->second.bytes;
  allocations_.erase(it);
}

MemHandle MemoryManager::Oldest(std::size_t bytes, std::uint64_t client) const {
  // Handles are issued in increasing order, so the oldest is the smallest.
  MemHandle oldest = kInvalidMemHandle;
  for (const auto& [handle, allocation] : allocations_) {
    if (allocation.bytes == bytes && allocation.client == client &&
        (oldest == kInvalidMemHandle || handle < oldest)) {
      oldest = handle;
    }
  }
  return oldest;
}

std::size_t MemoryManager::ReleaseClient(std::uint64_t client) {
  std::size_t released = 0;
  for (auto it = allocations_.begin(); it != allocations_.end();) {
    if (it->second.client == client) {
      released += it->second.bytes;
      it = allocations_.erase(it);
    } else {
      ++it;
    }
  }
  ORION_CHECK(used_ >= released);
  used_ -= released;
  return released;
}

std::size_t MemoryManager::used_by(std::uint64_t client) const {
  std::size_t total = 0;
  for (const auto& [handle, allocation] : allocations_) {
    (void)handle;
    if (allocation.client == client) {
      total += allocation.bytes;
    }
  }
  return total;
}

}  // namespace runtime
}  // namespace orion
