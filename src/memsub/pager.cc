#include "src/memsub/pager.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/check.h"

namespace orion {
namespace memsub {

namespace {
// EWMA smoothing for the measured per-access swap cost: recent accesses
// dominate (the quantum policy must track load shifts), but one outlier
// access does not whipsaw the quantum.
constexpr double kStallEwmaAlpha = 0.3;
}  // namespace

UnifiedMemoryPager::UnifiedMemoryPager(Simulator* sim, gpusim::Device* device,
                                       telemetry::Hub* hub)
    : sim_(sim), device_(device), hub_(hub) {
  ORION_CHECK(sim_ != nullptr && device_ != nullptr);
  capacity_pages_ = device_->spec().memory_bytes / kPageBytes;
  ORION_CHECK_MSG(capacity_pages_ > 0, "device memory smaller than one page");
  // Fault traffic rides a default-priority stream: under PCIe priority
  // scheduling a high-priority client's own copies overtake paging bursts.
  stream_ = device_->CreateStream(gpusim::kPriorityDefault);
  if (hub_ != nullptr) {
    faults_counter_ = hub_->metrics().GetCounter("memsub.faults");
    fault_bytes_counter_ = hub_->metrics().GetCounter("memsub.fault_bytes_h2d");
    eviction_counter_ = hub_->metrics().GetCounter("memsub.evictions");
    writeback_bytes_counter_ = hub_->metrics().GetCounter("memsub.writeback_bytes_d2h");
    if (hub_->tracing()) {
      trace_track_ = hub_->spans().Track("memsub pager");
    }
  }
}

void UnifiedMemoryPager::RegisterClient(int client, const std::string& name,
                                        std::size_t bytes, bool pinned,
                                        bool dirty_on_touch, double ws_fraction) {
  ORION_CHECK_MSG(clients_.count(client) == 0, "client " << client << " already registered");
  ORION_CHECK(bytes > 0);
  ORION_CHECK_MSG(ws_fraction > 0.0 && ws_fraction <= 1.0,
                  "working-set fraction for " << name << " out of (0, 1]: " << ws_fraction);
  Client c;
  c.name = name;
  c.bytes = bytes;
  c.pinned = pinned;
  c.dirty_on_touch = dirty_on_touch;
  const std::size_t pages = (bytes + kPageBytes - 1) / kPageBytes;
  c.pages.resize(pages);
  c.ws_pages = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(static_cast<double>(pages) * ws_fraction)));
  if (hub_ != nullptr) {
    c.resident_gauge =
        hub_->metrics().GetGauge("memsub.resident_bytes", {{"client", name}});
  }
  // Pre-warm: job-start state upload happens before the measurement window,
  // so pages are claimed (in registration order) while frames remain. Pinned
  // clients must fit entirely — that is the admission contract pinning makes.
  for (std::size_t i = 0; i < pages; ++i) {
    if (resident_total_ >= capacity_pages_) {
      ORION_CHECK_MSG(!pinned, "pinned client " << name << " does not fit in device memory ("
                                                << bytes << " bytes, capacity "
                                                << capacity_bytes() << ")");
      break;
    }
    c.pages[i].resident = true;
    ++resident_total_;
    ++c.resident_pages;
    if (!pinned) {
      lru_.push_back(Key(client, i));
      c.pages[i].lru_it = std::prev(lru_.end());
    }
  }
  auto [it, inserted] = clients_.emplace(client, std::move(c));
  (void)inserted;
  UpdateResidentGauge(it->second);
}

bool UnifiedMemoryPager::EvictLru() {
  ORION_CHECK_MSG(!lru_.empty(),
                  "no evictable page: every resident page is pinned and the device is full");
  const std::uint64_t key = lru_.front();
  lru_.pop_front();
  const int client = static_cast<int>(static_cast<std::int32_t>(key >> 32));
  const std::size_t page = static_cast<std::size_t>(key & 0xFFFFFFFFull);
  Client& victim_owner = clients_.at(client);
  Page& victim = victim_owner.pages[page];
  ORION_CHECK(victim.resident);
  victim.resident = false;
  --resident_total_;
  --victim_owner.resident_pages;
  ++totals_.evictions;
  if (eviction_counter_ != nullptr) {
    eviction_counter_->Inc();
  }
  UpdateResidentGauge(victim_owner);
  const bool dirty = victim.dirty;
  victim.dirty = false;
  return dirty;
}

void UnifiedMemoryPager::Access(int client, std::function<void(DurationUs)> done) {
  auto it = clients_.find(client);
  ORION_CHECK_MSG(it != clients_.end(), "unregistered pager client " << client);
  Client& c = it->second;
  if (c.released) {
    if (done) {
      done(0.0);
    }
    return;
  }
  ++totals_.accesses;
  std::size_t faults = 0;
  std::size_t writebacks = 0;
  for (std::size_t i = 0; i < c.ws_pages; ++i) {
    Page& p = c.pages[i];
    if (p.resident) {
      if (!c.pinned) {
        // Touch: move to the most-recently-used end.
        lru_.splice(lru_.end(), lru_, p.lru_it);
      }
      p.dirty = p.dirty || c.dirty_on_touch;
      continue;
    }
    // Page fault: claim a frame, evicting the global LRU page if full.
    if (resident_total_ >= capacity_pages_) {
      if (EvictLru()) {
        ++writebacks;
      }
    }
    ORION_CHECK(resident_total_ < capacity_pages_);
    p.resident = true;
    p.dirty = c.dirty_on_touch;
    ++resident_total_;
    ++c.resident_pages;
    if (!c.pinned) {
      lru_.push_back(Key(client, i));
      p.lru_it = std::prev(lru_.end());
    }
    ++faults;
  }
  if (faults == 0) {
    // Fully resident: no traffic, no events — the inert path.
    if (done) {
      done(0.0);
    }
    return;
  }
  UpdateResidentGauge(c);
  totals_.faults += faults;
  totals_.writebacks += writebacks;
  c.faults += faults;
  const std::size_t fault_bytes = faults * kPageBytes;
  const std::size_t writeback_bytes = writebacks * kPageBytes;
  totals_.fault_bytes_h2d += fault_bytes;
  totals_.writeback_bytes_d2h += writeback_bytes;
  if (faults_counter_ != nullptr) {
    faults_counter_->Inc(static_cast<double>(faults));
    fault_bytes_counter_->Inc(static_cast<double>(fault_bytes));
    writeback_bytes_counter_->Inc(static_cast<double>(writeback_bytes));
  }
  if (hub_ != nullptr && hub_->tracing()) {
    hub_->spans().Instant(trace_track_, "fault_burst", sim_->now(),
                          {{"client", c.name},
                           {"faults", std::to_string(faults)},
                           {"writebacks", std::to_string(writebacks)}});
  }
  // Dirty victims stream out before the fault-ins stream in; both ride the
  // pager stream, so they serialise on the copy engine (and on the host-link
  // fabric when one is attached) with every other transfer on the device.
  if (writeback_bytes > 0) {
    device_->EnqueueMemcpy(stream_, writeback_bytes, gpusim::MemcpyKind::kDeviceToHost);
  }
  const TimeUs started = sim_->now();
  ++c.pending_faults;
  device_->EnqueueMemcpy(
      stream_, fault_bytes, gpusim::MemcpyKind::kHostToDevice,
      [this, client, started, done = std::move(done)]() {
        const DurationUs stall = sim_->now() - started;
        Client& cl = clients_.at(client);
        --cl.pending_faults;
        cl.stall_us += stall;
        totals_.stall_us += stall;
        cl.ewma_stall_us = cl.ever_faulted
                               ? (1.0 - kStallEwmaAlpha) * cl.ewma_stall_us +
                                     kStallEwmaAlpha * stall
                               : stall;
        cl.ever_faulted = true;
        global_ewma_stall_us_ = global_ever_faulted_
                                    ? (1.0 - kStallEwmaAlpha) * global_ewma_stall_us_ +
                                          kStallEwmaAlpha * stall
                                    : stall;
        global_ever_faulted_ = true;
        if (hub_ != nullptr) {
          hub_->metrics()
              .GetHistogram("memsub.fault_stall_us", {{"client", cl.name}})
              ->Add(stall);
        }
        if (done) {
          done(stall);
        }
      });
}

void UnifiedMemoryPager::ReleaseClient(int client) {
  auto it = clients_.find(client);
  if (it == clients_.end() || it->second.released) {
    return;
  }
  Client& c = it->second;
  for (std::size_t i = 0; i < c.pages.size(); ++i) {
    Page& p = c.pages[i];
    if (!p.resident) {
      continue;
    }
    if (!c.pinned) {
      lru_.erase(p.lru_it);
    }
    p.resident = false;
    p.dirty = false;
    --resident_total_;
  }
  c.resident_pages = 0;
  c.released = true;
  UpdateResidentGauge(c);
}

std::size_t UnifiedMemoryPager::registered_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, c] : clients_) {
    (void)id;
    if (!c.released) {
      total += c.pages.size() * kPageBytes;
    }
  }
  return total;
}

std::size_t UnifiedMemoryPager::resident_bytes(int client) const {
  auto it = clients_.find(client);
  return it == clients_.end() ? 0 : it->second.resident_pages * kPageBytes;
}

bool UnifiedMemoryPager::IsResident(int client, std::size_t page) const {
  auto it = clients_.find(client);
  ORION_CHECK(it != clients_.end() && page < it->second.pages.size());
  return it->second.pages[page].resident;
}

std::uint64_t UnifiedMemoryPager::client_faults(int client) const {
  auto it = clients_.find(client);
  return it == clients_.end() ? 0 : it->second.faults;
}

DurationUs UnifiedMemoryPager::client_stall_us(int client) const {
  auto it = clients_.find(client);
  return it == clients_.end() ? 0.0 : it->second.stall_us;
}

bool UnifiedMemoryPager::HasPendingFaults(int client) const {
  auto it = clients_.find(client);
  return it != clients_.end() && it->second.pending_faults > 0;
}

DurationUs UnifiedMemoryPager::MeasuredSwapCostUs(int client) const {
  auto it = clients_.find(client);
  if (it != clients_.end() && it->second.ever_faulted) {
    return it->second.ewma_stall_us;
  }
  return global_ewma_stall_us_;
}

void UnifiedMemoryPager::UpdateResidentGauge(Client& c) {
  if (c.resident_gauge != nullptr) {
    c.resident_gauge->Set(static_cast<double>(c.resident_pages * kPageBytes));
  }
}

}  // namespace memsub
}  // namespace orion
