#include "src/interconnect/fabric.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "src/common/check.h"

namespace orion {
namespace interconnect {
namespace {

// Bytes below this threshold count as delivered; absorbs floating-point
// residue from rate integration (same role as the Device's epsilon).
constexpr double kRemainingEpsilon = 1e-6;

}  // namespace

Fabric::Fabric(Simulator* sim, NodeTopology topology)
    : sim_(sim), topology_(std::move(topology)) {
  ORION_CHECK(sim_ != nullptr);
  ORION_CHECK(topology_.num_gpus() >= 1);
  dirs_.resize(topology_.links().size() * 2);
  bytes_moved_.assign(topology_.links().size() * 2, 0.0);
  link_factor_.assign(topology_.links().size() * 2, 1.0);
  last_update_ = sim_->now();
}

namespace {

std::string NodeName(int node) {
  return node == kHostNode ? "host" : std::to_string(node);
}

}  // namespace

void Fabric::set_telemetry(telemetry::Hub* hub) {
  hub_ = hub;
  if (hub_ == nullptr) {
    trace_track_ = -1;
    transfers_started_metric_ = nullptr;
    bytes_requested_metric_ = nullptr;
    return;
  }
  transfers_started_metric_ = hub_->metrics().GetCounter("fabric.transfers_started");
  bytes_requested_metric_ = hub_->metrics().GetCounter("fabric.bytes_requested");
  trace_track_ = hub_->tracing() ? hub_->spans().Track("fabric") : -1;
}

std::uint32_t Fabric::AllocTransferSlot() {
  if (!free_transfer_slots_.empty()) {
    const std::uint32_t slot = free_transfer_slots_.back();
    free_transfer_slots_.pop_back();
    return slot;
  }
  ORION_CHECK(slab_.size() < std::numeric_limits<std::uint32_t>::max());
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void Fabric::ReleaseTransferSlot(std::uint32_t slot) {
  Transfer& t = slab_[slot];
  t.done = nullptr;
  t.route.clear();  // keeps capacity; route is move-assigned on reuse
  t.cancelled_in_setup = false;
  free_transfer_slots_.push_back(slot);
}

TransferId Fabric::StartTransfer(int src, int dst, std::size_t bytes, Callback done) {
  const TransferId id = next_seq_++;
  const std::uint32_t slot = AllocTransferSlot();
  Transfer& transfer = slab_[slot];
  transfer.id = id;
  transfer.route = topology_.Route(src, dst);
  transfer.remaining = static_cast<double>(bytes);
  transfer.rate = 0.0;
  transfer.done = std::move(done);
  if (transfers_started_metric_ != nullptr) {
    transfers_started_metric_->Inc();
    bytes_requested_metric_->Inc(static_cast<double>(bytes));
  }
  if (trace_track_ >= 0) {
    const std::string span_name = NodeName(src) + "->" + NodeName(dst);
    hub_->spans().AsyncBegin(trace_track_, id, span_name, sim_->now(),
                             {{"bytes", std::to_string(bytes)}});
    // Wrapping the completion hook covers both outcomes: normal completion
    // and CancelTransfer (which still fires `done`).
    transfer.done = [this, id, span_name, done = std::move(transfer.done)]() {
      hub_->spans().AsyncEnd(trace_track_, id, span_name, sim_->now());
      if (done) {
        done();
      }
    };
  }

  DurationUs latency = 0.0;
  for (const Hop& hop : transfer.route) {
    latency += topology_.link(hop.link).latency_us;
  }
  if (latency > 0.0) {
    // The transfer stays parked in its slab slot through the latency phase;
    // the event captures only (this, slot) and fits the simulator's inline
    // callback buffer.
    setup_.push_back(slot);
    sim_->ScheduleAfter(latency, [this, slot]() { FinishSetup(slot); });
  } else {
    Activate(slot);
  }
  return id;
}

void Fabric::FinishSetup(std::uint32_t slot) {
  setup_.erase(std::find(setup_.begin(), setup_.end(), slot));
  Transfer& transfer = slab_[slot];
  if (transfer.cancelled_in_setup) {
    // Cancelled before streaming started: no bytes moved, just unblock the
    // caller.
    ++transfers_cancelled_;
    Callback done = std::move(transfer.done);
    ReleaseTransferSlot(slot);
    if (done) {
      sim_->ScheduleAfter(0.0, std::move(done));
    }
    return;
  }
  Activate(slot);
}

void Fabric::StartHostCopy(int gpu, std::size_t bytes, bool to_device,
                           std::function<void()> done) {
  if (to_device) {
    StartTransfer(kHostNode, gpu, bytes, std::move(done));
  } else {
    StartTransfer(gpu, kHostNode, bytes, std::move(done));
  }
}

void Fabric::Activate(std::uint32_t slot) {
  // Integrate the open interval at the old membership before rates change.
  AdvanceTo(sim_->now());
  active_.push_back(slot);
  // Empty routes (src == dst) cross no direction, so RefreshRates never
  // visits them: infinite rate completes them on the next sweep, matching
  // the from-scratch solver's min-over-empty-set.
  slab_[slot].rate = std::numeric_limits<double>::infinity();
  AddToDirs(slot);
  RefreshRates();
  RetireAndReschedule();
}

int Fabric::ActiveTransfers() const {
  return static_cast<int>(active_.size() + setup_.size());
}

int Fabric::ActiveOnLink(LinkId link, bool forward) const {
  const std::size_t index = DirIndex(Hop{link, forward});
  ORION_CHECK(index < dirs_.size());
  return dirs_[index].count;
}

double Fabric::BytesMoved(LinkId link, bool forward) const {
  const std::size_t index = DirIndex(Hop{link, forward});
  ORION_CHECK(index < bytes_moved_.size());
  return bytes_moved_[index];
}

void Fabric::SetLinkFactor(LinkId link, bool forward, double factor) {
  ORION_CHECK(factor >= 0.0);
  const std::size_t index = DirIndex(Hop{link, forward});
  ORION_CHECK(index < link_factor_.size());
  if (link_factor_[index] == factor) {
    return;
  }
  // Integrate the interval at the old rates before the change takes effect.
  AdvanceTo(sim_->now());
  link_factor_[index] = factor;
  MarkDirty(index);
  RefreshRates();
  RetireAndReschedule();
}

double Fabric::LinkFactor(LinkId link, bool forward) const {
  const std::size_t index = DirIndex(Hop{link, forward});
  ORION_CHECK(index < link_factor_.size());
  return link_factor_[index];
}

void Fabric::DisconnectGpu(int gpu) {
  for (const Link& link : topology_.links()) {
    if (link.node_a == gpu || link.node_b == gpu) {
      SetLinkFactor(link.id, /*forward=*/true, 0.0);
      SetLinkFactor(link.id, /*forward=*/false, 0.0);
    }
  }
}

bool Fabric::GpuAlive(int gpu) const {
  for (const Link& link : topology_.links()) {
    if (link.node_a != gpu && link.node_b != gpu) {
      continue;
    }
    const std::size_t base = static_cast<std::size_t>(link.id) * 2;
    if (link_factor_[base] > 0.0 || link_factor_[base + 1] > 0.0) {
      return true;
    }
  }
  return false;
}

bool Fabric::CancelTransfer(TransferId id) {
  for (auto it = active_.begin(); it != active_.end(); ++it) {
    const std::uint32_t slot = *it;
    if (slab_[slot].id != id) {
      continue;
    }
    AdvanceTo(sim_->now());
    Callback done = std::move(slab_[slot].done);
    RemoveFromDirs(slot);
    active_.erase(it);  // ordered erase: activation order is load-bearing
    ReleaseTransferSlot(slot);
    ++transfers_cancelled_;
    if (done) {
      sim_->ScheduleAfter(0.0, std::move(done));
    }
    RefreshRates();
    RetireAndReschedule();
    return true;
  }
  for (const std::uint32_t slot : setup_) {
    if (slab_[slot].id == id && !slab_[slot].cancelled_in_setup) {
      slab_[slot].cancelled_in_setup = true;
      return true;
    }
  }
  return false;
}

void Fabric::AddToDirs(std::uint32_t slot) {
  for (const Hop& hop : slab_[slot].route) {
    const std::size_t dir = DirIndex(hop);
    DirState& d = dirs_[dir];
    ++d.count;
    d.members.push_back(slot);
    MarkDirty(dir);
  }
}

void Fabric::RemoveFromDirs(std::uint32_t slot) {
  for (const Hop& hop : slab_[slot].route) {
    const std::size_t dir = DirIndex(hop);
    DirState& d = dirs_[dir];
    // One occurrence per hop (a double-crossing transfer appears twice and
    // is removed twice). Member order is not meaningful; swap-erase.
    const auto it = std::find(d.members.begin(), d.members.end(), slot);
    ORION_CHECK(it != d.members.end());
    *it = d.members.back();
    d.members.pop_back();
    --d.count;
    ORION_CHECK(d.count >= 0);
    MarkDirty(dir);
  }
}

void Fabric::MarkDirty(std::size_t dir) {
  if (!dirs_[dir].dirty) {
    dirs_[dir].dirty = true;
    dirty_dirs_.push_back(dir);
  }
}

double Fabric::SolveRate(const Transfer& transfer) const {
  // Identical expression (and hop order) to the oracle, so cached rates are
  // bit-equal to a from-scratch solve.
  double rate = std::numeric_limits<double>::infinity();
  for (const Hop& hop : transfer.route) {
    // gbps GB/s == gbps * 1e3 bytes/µs (same convention as DeviceSpec).
    // link_factor_ is the fault-injection bandwidth scale (0 = direction
    // down: every transfer crossing it stalls in place).
    const double share = topology_.link(hop.link).gbps * 1e3 *
                         link_factor_[DirIndex(hop)] / dirs_[DirIndex(hop)].count;
    rate = std::min(rate, share);
  }
  return rate;
}

void Fabric::RefreshRates() {
  if (dirty_dirs_.empty()) {
    return;
  }
  for (const std::size_t dir : dirty_dirs_) {
    for (const std::uint32_t slot : dirs_[dir].members) {
      // Re-solving is idempotent; a transfer crossing two dirty directions
      // (or one twice) just solves more than once.
      slab_[slot].rate = SolveRate(slab_[slot]);
    }
    dirs_[dir].dirty = false;
  }
  dirty_dirs_.clear();
  if (debug_oracle_) {
    CheckOracle();
  }
}

std::vector<double> Fabric::OracleRates() const {
  // The original whole-fabric solver: count every direction's membership
  // from scratch, then take the minimum share along each route.
  std::vector<int> counts(bytes_moved_.size(), 0);
  for (const std::uint32_t slot : active_) {
    for (const Hop& hop : slab_[slot].route) {
      ++counts[DirIndex(hop)];
    }
  }
  std::vector<double> rates;
  rates.reserve(active_.size());
  for (const std::uint32_t slot : active_) {
    double rate = std::numeric_limits<double>::infinity();
    for (const Hop& hop : slab_[slot].route) {
      const double share = topology_.link(hop.link).gbps * 1e3 *
                           link_factor_[DirIndex(hop)] / counts[DirIndex(hop)];
      rate = std::min(rate, share);
    }
    rates.push_back(rate);
  }
  return rates;
}

void Fabric::CheckOracle() {
  ++debug_oracle_checks_;
  std::vector<int> counts(dirs_.size(), 0);
  for (const std::uint32_t slot : active_) {
    for (const Hop& hop : slab_[slot].route) {
      ++counts[DirIndex(hop)];
    }
  }
  for (std::size_t dir = 0; dir < dirs_.size(); ++dir) {
    ORION_CHECK_MSG(dirs_[dir].count == counts[dir],
                    "dir " << dir << " incremental count " << dirs_[dir].count
                           << " != oracle " << counts[dir]);
    ORION_CHECK_MSG(dirs_[dir].members.size() == static_cast<std::size_t>(counts[dir]),
                    "dir " << dir << " member index out of sync");
  }
  const std::vector<double> oracle = OracleRates();
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const double cached = slab_[active_[i]].rate;
    ORION_CHECK_MSG(cached == oracle[i],
                    "transfer " << slab_[active_[i]].id << " cached rate " << cached
                                << " != oracle " << oracle[i]);
  }
}

void Fabric::AdvanceTo(TimeUs now) {
  const DurationUs dt = now - last_update_;
  if (dt <= 0.0) {
    last_update_ = now;
    return;
  }
  for (const std::uint32_t slot : active_) {
    Transfer& transfer = slab_[slot];
    const double moved = std::min(transfer.remaining, transfer.rate * dt);
    transfer.remaining -= moved;
    for (const Hop& hop : transfer.route) {
      bytes_moved_[DirIndex(hop)] += moved;
    }
  }
  last_update_ = now;
}

void Fabric::Update() {
  AdvanceTo(sim_->now());
  RetireAndReschedule();
}

void Fabric::RetireAndReschedule() {
  // Retire delivered transfers. A transfer also retires when its residue
  // would complete within one representable double step of `now`: scheduling
  // that event would not advance the clock (now + dt == now) and the
  // simulation would spin. The residual bytes still accrue to the link
  // counters, so byte accounting stays exact. Callbacks go through
  // zero-delay events so they may freely start new transfers without
  // re-entering the fabric.
  //
  // Thresholds use the cached (pre-sweep) rates: RemoveFromDirs only marks
  // directions dirty, and the refresh runs after the sweep.
  const double min_dt =
      1e-9 + 8.0 * std::numeric_limits<double>::epsilon() * std::max(1.0, sim_->now());
  std::size_t write = 0;
  for (std::size_t read = 0; read < active_.size(); ++read) {
    const std::uint32_t slot = active_[read];
    Transfer& transfer = slab_[slot];
    const double threshold = std::max(kRemainingEpsilon, transfer.rate * min_dt);
    if (transfer.remaining <= threshold) {
      for (const Hop& hop : transfer.route) {
        bytes_moved_[DirIndex(hop)] += transfer.remaining;
      }
      Callback done = std::move(transfer.done);
      RemoveFromDirs(slot);
      ReleaseTransferSlot(slot);
      ++transfers_completed_;
      if (done) {
        sim_->ScheduleAfter(0.0, std::move(done));
      }
    } else {
      active_[write++] = slot;  // compaction keeps activation order
    }
  }
  active_.resize(write);
  RefreshRates();

  sim_->Cancel(completion_event_);
  completion_event_ = EventHandle();
  DurationUs next_completion = std::numeric_limits<DurationUs>::infinity();
  for (const std::uint32_t slot : active_) {
    const Transfer& transfer = slab_[slot];
    if (transfer.rate > 0.0) {
      next_completion = std::min(next_completion, transfer.remaining / transfer.rate);
    }
  }
  if (std::isfinite(next_completion)) {
    completion_event_ = sim_->ScheduleAfter(next_completion, [this]() { Update(); });
  }
}

}  // namespace interconnect
}  // namespace orion
