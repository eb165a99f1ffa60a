// Unified-memory paging model (memory oversubscription subsystem).
//
// nvshare-style GPU sharing gives every client the illusion of the full GPU
// memory: each process allocates freely, and a unified-memory driver keeps
// only a subset of pages device-resident, paging the rest to host RAM over
// PCIe on demand. This module reproduces that driver in virtual time:
//
//   * Each client registers a pageable footprint (its model/optimizer state),
//     tracked at page granularity (kPageBytes, the UM migration unit).
//   * At the start of every request the client *accesses* its working set.
//     Pages not device-resident fault; each fault claims a free frame or
//     evicts the globally least-recently-used non-pinned page (dirty victims
//     pay a D2H writeback first).
//   * Fault service is real simulated traffic: the pager owns a stream on
//     the shared device and enqueues the writeback + fault-in transfers on
//     the normal copy engine, so paging bytes contend with the collocation's
//     own H2D/D2H copies — and, when the device is attached to a
//     HostLinkModel (src/interconnect), with peer-to-peer and collective
//     traffic on the link fabric.
//   * The access's completion callback fires only when its fault-ins are on
//     device (the fault stall). Accesses that fault nothing complete
//     synchronously, so a collocation whose aggregate footprint fits in
//     device memory is *inert*: no extra events, bit-identical to a run
//     without the pager.
//
// High-priority clients can be *pinned* (PagingOptions::pin_high_priority):
// their pages are claimed at registration, never enter the LRU list and are
// never evicted — Orion's §5.1.3 stance that the cluster manager guarantees
// latency-critical state fits. Registration pre-warms resident sets in
// registration order until frames run out, modelling job-start state upload
// happening before the measurement window.
//
// Everything is deterministic: LRU order is the global touch order, victims
// are unique by touch stamp, and transfers ride the discrete-event clock.
#ifndef SRC_MEMSUB_PAGER_H_
#define SRC_MEMSUB_PAGER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "src/common/time_types.h"
#include "src/gpusim/device.h"
#include "src/telemetry/telemetry.h"

namespace orion {
namespace memsub {

// Unified-memory migration granularity.
inline constexpr std::size_t kPageBytes = std::size_t{2} * 1024 * 1024;

struct PagingOptions {
  // Master switch: when false, harnesses never construct a pager (and a
  // shared run must then fit in device memory).
  bool enabled = false;
  // Pin high-priority clients' pages device-resident (they must fit; checked
  // at registration). Orion runs pin; nvshare/MPS-style sharing does not.
  bool pin_high_priority = false;
};

// Run-level paging totals (mirrored into ExperimentResult and telemetry).
struct PagingTotals {
  std::uint64_t accesses = 0;
  std::uint64_t faults = 0;           // pages migrated host -> device
  std::uint64_t evictions = 0;        // pages dropped device -> host
  std::uint64_t writebacks = 0;       // dirty evictions (paid a D2H copy)
  std::size_t fault_bytes_h2d = 0;
  std::size_t writeback_bytes_d2h = 0;
  DurationUs stall_us = 0.0;          // summed access fault stalls
};

class UnifiedMemoryPager {
 public:
  // `device` is the shared device whose copy engine carries fault traffic;
  // `hub` (optional) receives memsub.* counters and fault-burst markers.
  UnifiedMemoryPager(Simulator* sim, gpusim::Device* device, telemetry::Hub* hub = nullptr);
  UnifiedMemoryPager(const UnifiedMemoryPager&) = delete;
  UnifiedMemoryPager& operator=(const UnifiedMemoryPager&) = delete;

  // Registers `bytes` of pageable state for `client`. Pinned clients claim
  // frames immediately (aborts if they do not fit); register pinned clients
  // first so unpinned pre-warm cannot steal their frames. `dirty_on_touch`
  // marks every touched page dirty (training state mutates each iteration),
  // making its eviction pay a writeback. `ws_fraction` is the hot fraction
  // of the registered footprint touched per request: 1.0 models training
  // (params + grads + optimizer state every iteration) and full-weight
  // inference; smaller values model partial working sets.
  void RegisterClient(int client, const std::string& name, std::size_t bytes, bool pinned,
                      bool dirty_on_touch, double ws_fraction = 1.0);
  bool IsRegistered(int client) const { return clients_.count(client) > 0; }

  // The client touches its working set (pages [0, ws_pages) in order).
  // `done` fires when every faulted page is device-resident — synchronously,
  // with stall_us = 0, when nothing faults; otherwise stall_us is the fault
  // stall (landing time minus access time). Faults on a full device evict
  // the global LRU non-pinned page; dirty victims enqueue writeback traffic
  // first.
  void Access(int client, std::function<void(DurationUs stall_us)> done);

  // Process exit / crash: every page of `client` is released (frames free
  // immediately; dirty pages are dropped — the host copy is authoritative
  // for a dead process). Subsequent Access calls for it are no-ops.
  void ReleaseClient(int client);

  // --- Introspection (policy inputs, tests, benches). ---
  std::size_t capacity_bytes() const { return capacity_pages_ * kPageBytes; }
  std::size_t registered_bytes() const;
  bool oversubscribed() const { return registered_bytes() > capacity_bytes(); }
  const PagingTotals& totals() const { return totals_; }
  std::size_t resident_bytes(int client) const;
  bool IsResident(int client, std::size_t page) const;
  std::uint64_t client_faults(int client) const;
  DurationUs client_stall_us(int client) const;
  // True while the client has an Access whose fault-in transfers are still in
  // flight. A client stalled here is *waiting on paging*, not idle — the
  // time-quantum scheduler's idle early-release must not count the stall.
  bool HasPendingFaults(int client) const;
  // Recent per-access fault-stall cost (exponential moving average): the
  // measured swap cost the nvshare-style scheduler sizes its quantum from.
  // Falls back to the cross-client EWMA for clients that never faulted.
  DurationUs MeasuredSwapCostUs(int client) const;
  double pcie_gbps() const { return device_->spec().pcie_gbps; }

 private:
  struct Page {
    bool resident = false;
    bool dirty = false;
    // Position in the global LRU list (valid only when resident && !pinned).
    std::list<std::uint64_t>::iterator lru_it;
  };

  struct Client {
    std::string name;
    std::size_t bytes = 0;
    std::size_t ws_pages = 0;
    bool pinned = false;
    bool dirty_on_touch = false;
    bool released = false;
    std::vector<Page> pages;
    std::size_t resident_pages = 0;
    std::uint64_t faults = 0;
    int pending_faults = 0;  // Accesses whose fault-ins have not landed yet
    DurationUs stall_us = 0.0;
    DurationUs ewma_stall_us = 0.0;
    bool ever_faulted = false;
    telemetry::Gauge* resident_gauge = nullptr;
  };

  static std::uint64_t Key(int client, std::size_t page) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(client)) << 32) |
           static_cast<std::uint64_t>(page);
  }

  // Evicts the least-recently-touched non-pinned resident page; returns true
  // if the victim was dirty (owes a writeback).
  bool EvictLru();
  void UpdateResidentGauge(Client& c);

  Simulator* sim_;
  gpusim::Device* device_;
  telemetry::Hub* hub_;
  gpusim::StreamId stream_ = gpusim::kInvalidStream;

  std::size_t capacity_pages_ = 0;
  std::size_t resident_total_ = 0;
  // Front = least recently touched. Entries are Key(client, page) of
  // resident, non-pinned pages only.
  std::list<std::uint64_t> lru_;
  // Ordered map: deterministic iteration for registered_bytes().
  std::map<int, Client> clients_;

  PagingTotals totals_;
  DurationUs global_ewma_stall_us_ = 0.0;
  bool global_ever_faulted_ = false;

  telemetry::Counter* faults_counter_ = nullptr;
  telemetry::Counter* fault_bytes_counter_ = nullptr;
  telemetry::Counter* eviction_counter_ = nullptr;
  telemetry::Counter* writeback_bytes_counter_ = nullptr;
  telemetry::TrackId trace_track_ = 0;
};

}  // namespace memsub
}  // namespace orion

#endif  // SRC_MEMSUB_PAGER_H_
