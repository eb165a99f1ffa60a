// Discrete-event simulation engine.
//
// The entire Orion reproduction runs in virtual time on this engine. The
// real system's concurrency (client threads, a scheduler thread polling
// software queues, the asynchronous GPU) is mapped onto deterministic events:
// arrivals, op enqueues, kernel dispatches and completions. Determinism comes
// from (a) a strict (time, sequence) ordering of events and (b) seeded RNGs.
//
// Hot-path design (every kernel dispatch, fabric transfer, poll and
// telemetry span funnels through Step, so this is the throughput ceiling of
// the whole simulator):
//   * Events live in a slab of reusable slots; a slot's generation counter
//     is bumped on every release, so an EventHandle is (slot, generation)
//     and Cancel is a generation compare — stale handles are O(1) no-ops
//     and cancelled slots are reclaimed immediately (no lazy tombstones
//     accumulating until their timestamp pops).
//   * Callbacks are stored in an inline small-buffer InlineFunction
//     (common/inline_function.h): no per-event heap allocation for the
//     captures this codebase actually schedules.
//   * Future events sit in an index-tracking 4-ary min-heap keyed by
//     (when, seq); the back-pointer makes Cancel remove the entry in place.
//   * Events scheduled at exactly the current timestamp — the dominant
//     completion -> poll -> submit cascade — bypass the heap through a FIFO
//     ring. Ordering is unchanged: the ring and heap are merged by the same
//     strict (when, seq) order on pop.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "src/common/inline_function.h"
#include "src/common/time_types.h"

namespace orion {

// Handle that can cancel a scheduled event. Safe to keep after the event
// ran or was cancelled: the slot's generation has moved on and Cancel
// becomes a no-op.
class EventHandle {
 public:
  EventHandle() = default;

  bool valid() const { return generation_ != 0; }

 private:
  friend class Simulator;
  EventHandle(std::uint32_t slot, std::uint64_t generation)
      : slot_(slot), generation_(generation) {}
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;  // 0 = invalid; slot generations start at 1
};

class Simulator {
 public:
  // 64 inline bytes: the largest completion wrapper on the kernel path
  // (Orion's best-effort wrapper: `this`, a client id, two doubles and the
  // client's 32-byte hook) fits, and a slot is no larger than with 56
  // (the buffer is 16-byte aligned either way).
  using Callback = common::InlineFunction<void(), 64>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeUs now() const { return now_; }

  // Schedules `cb` to run at absolute virtual time `when` (>= now()).
  // Accepts any void() callable; the callback is constructed directly in the
  // event slot (one move for a pre-built Callback, zero extra relocations
  // for a lambda).
  template <typename F>
  EventHandle ScheduleAt(TimeUs when, F&& cb) {
    const std::uint32_t slot = PrepareEvent(when);
    Slot& s = pool_[slot];
    s.cb = std::forward<F>(cb);
    ORION_CHECK(s.cb != nullptr);
    return EventHandle(slot, s.generation);
  }

  // Schedules `cb` to run `delay` after the current time.
  template <typename F>
  EventHandle ScheduleAfter(DurationUs delay, F&& cb) {
    ORION_CHECK_MSG(delay >= 0.0, "negative delay: " << delay);
    return ScheduleAt(now_ + delay, std::forward<F>(cb));
  }

  // Cancels a previously scheduled event. Safe to call on handles whose
  // event already ran (no-op). The event's slot (and callback) is released
  // immediately — cancel-heavy workloads hold no dead memory.
  void Cancel(EventHandle handle);

  // Moves a pending event to `delay` after the current time, in place: the
  // slot, callback and handle stay, and the event takes a fresh sequence
  // number, so it orders exactly as Cancel followed by ScheduleAfter would
  // have ordered it. Returns false, changing nothing, for a handle whose
  // event already ran or was cancelled, for an event waiting in the
  // same-time ring, and for a move to the current time; the caller then
  // falls back to Cancel + ScheduleAfter.
  bool Retime(EventHandle handle, DurationUs delay);

  // Runs events until the queue is empty or the clock passes `until`.
  // Events at exactly `until` still run. Returns the number of events run.
  std::size_t RunUntil(TimeUs until);

  // Runs until no events remain. Returns the number of events run.
  std::size_t RunUntilIdle();

  // True if no live (non-cancelled) events remain.
  bool Idle() const { return live_events_ == 0; }

  std::size_t events_processed() const { return events_processed_; }

  // --- Introspection (tests / perf benches). ---
  // Slots ever allocated. Bounded by the peak number of simultaneously
  // live events, NOT by the number scheduled or cancelled over the run —
  // the soak tests assert this stays flat under schedule/cancel churn.
  std::size_t pool_slots() const { return pool_.size(); }
  std::size_t live_events() const { return live_events_; }

 private:
  struct Slot {
    TimeUs when = 0.0;
    std::uint64_t seq = 0;
    std::uint64_t generation = 1;  // bumped on release; never reused per slot
    std::int32_t heap_index = -1;  // -1: not in the heap (ring or free)
    Callback cb;
  };
  // Heap entries carry the full ordering key so sifting never chases the
  // slot indirection. Packed to 16 bytes: seq is unique, so ordering by
  // (seq << 24 | slot) equals ordering by seq, and the slot rides along in
  // the low bits for free. Bounds (slot < 2^24 concurrent events,
  // seq < 2^40 total events) are ORION_CHECKed at allocation.
  struct HeapEntry {
    TimeUs when;
    std::uint64_t key;  // (seq << kSlotBits) | slot
    std::uint32_t slot() const { return static_cast<std::uint32_t>(key & kSlotMask); }
  };
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;
  // Ring entries are validated by generation on pop, so Cancel can release
  // the slot immediately and leave a stale entry behind.
  struct RingEntry {
    std::uint32_t slot;
    std::uint64_t generation;
  };

  static bool KeyLess(TimeUs when_a, std::uint64_t seq_a, TimeUs when_b,
                      std::uint64_t seq_b) {
    return when_a != when_b ? when_a < when_b : seq_a < seq_b;
  }

  std::uint32_t AllocSlot();
  void ReleaseSlot(std::uint32_t slot);

  // Validates `when`, allocates a slot, stamps (when, seq) and inserts it
  // into the ring or heap. The caller (the ScheduleAt template) then
  // emplaces the callback directly into the slot — no temporary Callback.
  std::uint32_t PrepareEvent(TimeUs when);

  // 4-ary min-heap over (when, seq) with pool_[].heap_index back-pointers.
  void HeapPlace(std::size_t pos, const HeapEntry& entry);
  void HeapSiftUp(std::size_t pos, HeapEntry entry);
  void HeapSiftDown(std::size_t pos, HeapEntry entry);
  void HeapPush(std::uint32_t slot);
  void HeapRemoveAt(std::size_t pos);
  // Re-seats `entry` at `pos`, sifting whichever way its key requires.
  void HeapReplaceAt(std::size_t pos, const HeapEntry& entry);

  // Advances ring_head_ past cancelled entries; true if a live entry waits.
  bool RingFront();

  // Pops and runs the next live event. Returns false if the queue is empty
  // or the next event is after `until`.
  bool Step(TimeUs until);

  TimeUs now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_events_ = 0;
  std::size_t events_processed_ = 0;

  std::vector<Slot> pool_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;
  std::vector<RingEntry> ring_;  // events at exactly now_, FIFO by seq
  std::size_t ring_head_ = 0;
};

}  // namespace orion

#endif  // SRC_SIM_SIMULATOR_H_
