#include "src/sim/simulator.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/common/check.h"

namespace orion {

namespace {
constexpr std::size_t kHeapArity = 4;
}  // namespace

std::uint32_t Simulator::AllocSlot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  ORION_CHECK_MSG(pool_.size() < (1ULL << kSlotBits),
                  "too many simultaneously live events: " << pool_.size());
  pool_.emplace_back();
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void Simulator::ReleaseSlot(std::uint32_t slot) {
  Slot& s = pool_[slot];
  s.cb = nullptr;  // destroy the callback now, not when the slot is reused
  ++s.generation;  // invalidates every outstanding handle and ring entry
  s.heap_index = -1;
  free_slots_.push_back(slot);
}

void Simulator::HeapPlace(std::size_t pos, const HeapEntry& entry) {
  heap_[pos] = entry;
  pool_[entry.slot()].heap_index = static_cast<std::int32_t>(pos);
}

// seq is unique, so comparing packed keys (seq in the high bits) is
// exactly the (when, seq) tie-break order.
void Simulator::HeapSiftUp(std::size_t pos, HeapEntry entry) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kHeapArity;
    const HeapEntry& p = heap_[parent];
    if (!KeyLess(entry.when, entry.key, p.when, p.key)) {
      break;
    }
    HeapPlace(pos, p);
    pos = parent;
  }
  HeapPlace(pos, entry);
}

void Simulator::HeapSiftDown(std::size_t pos, HeapEntry entry) {
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first_child = pos * kHeapArity + 1;
    if (first_child >= size) {
      break;
    }
    const std::size_t last_child = std::min(first_child + kHeapArity, size);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (KeyLess(heap_[c].when, heap_[c].key, heap_[best].when, heap_[best].key)) {
        best = c;
      }
    }
    if (!KeyLess(heap_[best].when, heap_[best].key, entry.when, entry.key)) {
      break;
    }
    HeapPlace(pos, heap_[best]);
    pos = best;
  }
  HeapPlace(pos, entry);
}

void Simulator::HeapPush(std::uint32_t slot) {
  const Slot& s = pool_[slot];
  heap_.emplace_back();  // sift fills it in
  HeapSiftUp(heap_.size() - 1, HeapEntry{s.when, (s.seq << kSlotBits) | slot});
}

void Simulator::HeapRemoveAt(std::size_t pos) {
  const HeapEntry moved = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
    return;  // removed the last entry
  }
  // Re-seat the displaced tail entry; it may need to move either way.
  HeapReplaceAt(pos, moved);
}

void Simulator::HeapReplaceAt(std::size_t pos, const HeapEntry& entry) {
  if (pos > 0 && KeyLess(entry.when, entry.key, heap_[(pos - 1) / kHeapArity].when,
                         heap_[(pos - 1) / kHeapArity].key)) {
    HeapSiftUp(pos, entry);
  } else {
    HeapSiftDown(pos, entry);
  }
}

std::uint32_t Simulator::PrepareEvent(TimeUs when) {
  ORION_CHECK_MSG(when >= now_, "event scheduled in the past: " << when << " < " << now_);
  const std::uint32_t slot = AllocSlot();
  Slot& s = pool_[slot];
  s.when = when;
  s.seq = next_seq_++;
  ORION_CHECK(s.seq < (1ULL << (64 - kSlotBits)));  // packed-heap-key range
  if (when == now_) {
    // Same-time FIFO fast path: no heap traffic for the dominant
    // completion -> poll -> submit cascade. Ring order is seq order.
    s.heap_index = -1;
    ring_.push_back(RingEntry{slot, s.generation});
  } else {
    HeapPush(slot);
  }
  ++live_events_;
  return slot;
}

void Simulator::Cancel(EventHandle handle) {
  if (!handle.valid()) {
    return;
  }
  ORION_CHECK(handle.slot_ < pool_.size());
  Slot& s = pool_[handle.slot_];
  if (s.generation != handle.generation_) {
    return;  // already ran or already cancelled
  }
  if (s.heap_index >= 0) {
    HeapRemoveAt(static_cast<std::size_t>(s.heap_index));
  }
  // Ring-resident events leave a stale entry behind; the generation bump in
  // ReleaseSlot makes the pop loop skip it. Either way the slot (and its
  // callback) is reclaimed immediately.
  ReleaseSlot(handle.slot_);
  ORION_CHECK(live_events_ > 0);
  --live_events_;
}

bool Simulator::Retime(EventHandle handle, DurationUs delay) {
  ORION_CHECK_MSG(delay >= 0.0, "negative delay: " << delay);
  if (!handle.valid()) {
    return false;
  }
  ORION_CHECK(handle.slot_ < pool_.size());
  Slot& s = pool_[handle.slot_];
  if (s.generation != handle.generation_ || s.heap_index < 0) {
    return false;  // already ran or cancelled, or waiting in the ring
  }
  const TimeUs when = now_ + delay;
  if (when == now_) {
    return false;  // belongs in the same-time ring
  }
  s.when = when;
  s.seq = next_seq_++;
  ORION_CHECK(s.seq < (1ULL << (64 - kSlotBits)));  // packed-heap-key range
  HeapReplaceAt(static_cast<std::size_t>(s.heap_index),
                HeapEntry{when, (s.seq << kSlotBits) | handle.slot_});
  return true;
}

bool Simulator::RingFront() {
  while (ring_head_ < ring_.size() &&
         pool_[ring_[ring_head_].slot].generation != ring_[ring_head_].generation) {
    ++ring_head_;  // cancelled while in the ring
  }
  if (ring_head_ == ring_.size()) {
    if (ring_head_ != 0) {
      ring_.clear();  // keeps capacity for the next burst
      ring_head_ = 0;
    }
    return false;
  }
  return true;
}

bool Simulator::Step(TimeUs until) {
  const bool have_ring = RingFront();
  const bool have_heap = !heap_.empty();
  if (!have_ring && !have_heap) {
    return false;
  }
  bool from_ring = have_ring;
  if (have_ring && have_heap) {
    // The heap may hold events at the ring's timestamp scheduled before the
    // clock reached it; the strict (when, seq) order decides.
    const Slot& rs = pool_[ring_[ring_head_].slot];
    const HeapEntry& top = heap_[0];
    from_ring = KeyLess(rs.when, rs.seq, top.when, top.key >> kSlotBits);
  }
  const std::uint32_t slot = from_ring ? ring_[ring_head_].slot : heap_[0].slot();
  Slot& s = pool_[slot];
  if (s.when > until) {
    return false;
  }
  if (from_ring) {
    ++ring_head_;
  } else {
    HeapRemoveAt(0);
  }
  now_ = s.when;
  ++events_processed_;
  ORION_CHECK(live_events_ > 0);
  --live_events_;
  // Release before running: the callback may cancel its own (now stale)
  // handle or schedule new events into the reused slot.
  Callback cb = std::move(s.cb);
  ReleaseSlot(slot);
  cb();
  return true;
}

std::size_t Simulator::RunUntil(TimeUs until) {
  std::size_t ran = 0;
  while (Step(until)) {
    ++ran;
  }
  // Advance the clock to the horizon so repeated RunUntil calls are
  // monotonic even if no event landed exactly at `until`.
  if (until > now_ && until < std::numeric_limits<TimeUs>::max()) {
    now_ = until;
  }
  return ran;
}

std::size_t Simulator::RunUntilIdle() {
  std::size_t ran = 0;
  while (Step(std::numeric_limits<TimeUs>::max())) {
    ++ran;
  }
  return ran;
}

}  // namespace orion
