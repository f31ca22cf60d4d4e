// Deterministic discrete-event simulation engine.
//
// The engine owns virtual time. Events are callbacks scheduled at absolute
// virtual times and executed in (time, insertion-order) order, which makes
// every run bit-for-bit reproducible. Events can be cancelled, which the
// processor model uses to preempt application execution when an interrupt
// arrives.
//
// Hot-path layout (docs/PERFORMANCE.md): event records live in a slab of
// slots recycled through a free list, with the callback stored inline via
// EventFn (no per-event heap allocation for ordinary captures, no hashing on
// schedule/cancel/fire). Ready events are ordered by a 4-ary min-heap keyed
// by (time, tiebreak, insertion sequence) — the same total order the original
// binary-heap + hash-map engine used, so schedules are bit-identical.
// Cancellation is O(1): the slot is released and its generation bumped; the
// stale heap entry is skipped when it surfaces.
#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/sim/event_fn.h"

namespace hlrc {

class Engine {
 public:
  using EventId = uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `fn` to run `delay` nanoseconds from now. `delay` must be >= 0.
  // Templated so the callable is constructed directly into its slab slot
  // instead of through a type-erased move.
  template <typename F>
  EventId Schedule(SimTime delay, F&& fn) {
    HLRC_CHECK(delay >= 0);
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  // Schedules `fn` at absolute virtual time `t` (>= Now()).
  template <typename F>
  EventId ScheduleAt(SimTime t, F&& fn) {
    HLRC_CHECK(t >= now_);
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      if ((slot_count_ >> kChunkShift) == chunks_.size()) {
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
      }
      slot = slot_count_++;
    }
    Slot& s = SlotAt(slot);
    s.fn.Emplace(std::forward<F>(fn));
    s.live = true;
    const EventId id = MakeId(slot, s.gen);
    const uint64_t tiebreak = tiebreaker_ ? tiebreaker_() : 0;
    HeapPush(QEntry{t, tiebreak, next_seq_++, id});
    return id;
  }

  // Installs a hook consulted once per scheduled event that chooses its rank
  // among simultaneous events: equal-time events run in ascending
  // (tiebreak, insertion-order). With no hook (or a hook returning a
  // constant) the engine keeps its FIFO order, so production runs are
  // unaffected; the schedule-exploration harness (src/check) installs a
  // seeded random hook to permute runnable-task order. Pass nullptr to
  // remove.
  void SetTieBreaker(std::function<uint64_t()> tiebreaker) {
    tiebreaker_ = std::move(tiebreaker);
  }

  // Cancels a previously scheduled event. Cancelling an event that already
  // ran (or was already cancelled) is a no-op: the slot's generation no
  // longer matches the id's.
  void Cancel(EventId id) {
    Slot* s = LiveSlot(id);
    if (s != nullptr) {
      ReleaseSlot(SlotIndex(id));
    }
  }

  bool HasCancelablePending(EventId id) const { return LiveSlot(id) != nullptr; }

  // Runs a single event. Returns false when the queue is empty.
  bool Step() {
    while (!heap_.empty()) {
      const SimTime top_time = heap_.front().time;
      const EventId top_id = heap_.front().id;
      HeapPop();
      Slot* s = LiveSlot(top_id);
      if (s == nullptr) {
        continue;  // Cancelled.
      }
      HLRC_CHECK(top_time >= now_);
      now_ = top_time;
      // Retire the slot before running the callback so a Cancel of this id
      // from inside it is a no-op (matching the original engine, which erased
      // the pending entry first). The slot only joins the free list after the
      // callback returns, so it cannot be recycled under the running closure;
      // chunked storage keeps its address stable if the callback schedules.
      s->live = false;
      ++s->gen;
      ++events_processed_;
      s->fn();  // Single-shot: runs and destroys the callable in place.
      free_.push_back(SlotIndex(top_id));
      return true;
    }
    return false;
  }

  // Runs until no events remain.
  void Run() {
    while (Step()) {
    }
  }

  bool Idle() {
    DropCancelledTop();
    return heap_.empty();
  }

  int64_t events_processed() const { return events_processed_; }

 private:
  // One pending event: callback inline in the slab, generation-checked so a
  // recycled slot never honors a stale id.
  struct Slot {
    EventFn fn;
    uint32_t gen = 1;
    bool live = false;
  };

  // Heap entries order by (time, tiebreak, seq): later-scheduled events run
  // later at equal (time, tiebreak) — FIFO among simultaneous events, exactly
  // the (time, tiebreak, id) order of the original monotonic-id engine.
  struct QEntry {
    SimTime time;
    uint64_t tiebreak;  // 0 unless a tiebreaker hook is installed.
    uint64_t seq;
    EventId id;
  };

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<uint64_t>(gen) << 32) | (static_cast<uint64_t>(slot) + 1);
  }
  static uint32_t SlotIndex(EventId id) { return static_cast<uint32_t>(id & 0xffffffffu) - 1; }
  static uint32_t GenOf(EventId id) { return static_cast<uint32_t>(id >> 32); }

  // Slots live in fixed-size chunks so their addresses never move: Step runs
  // callbacks in place, and a callback that schedules (growing the slab) must
  // not relocate the closure it is executing from.
  static constexpr uint32_t kChunkShift = 9;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;

  Slot& SlotAt(uint32_t slot) { return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)]; }
  const Slot& SlotAt(uint32_t slot) const {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  // The slot behind `id` if it is still pending, nullptr otherwise (invalid
  // id, already fired, or already cancelled).
  const Slot* LiveSlot(EventId id) const {
    if ((id & 0xffffffffu) == 0) {
      return nullptr;  // kInvalidEvent.
    }
    const uint32_t slot = SlotIndex(id);
    if (slot >= slot_count_) {
      return nullptr;
    }
    const Slot& s = SlotAt(slot);
    return (s.live && s.gen == GenOf(id)) ? &s : nullptr;
  }
  Slot* LiveSlot(EventId id) {
    return const_cast<Slot*>(static_cast<const Engine*>(this)->LiveSlot(id));
  }

  void ReleaseSlot(uint32_t slot) {
    Slot& s = SlotAt(slot);
    s.fn.Reset();  // Release captured state immediately, not at slot reuse.
    s.live = false;
    ++s.gen;
    free_.push_back(slot);
  }

  static bool Before(const QEntry& a, const QEntry& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    if (a.tiebreak != b.tiebreak) {
      return a.tiebreak < b.tiebreak;
    }
    return a.seq < b.seq;
  }

  // 4-ary min-heap: shallower than a binary heap (fewer cache misses per
  // sift) and the 4 children of node i sit contiguously at 4i+1..4i+4.
  // Both sifts move the displaced entry into a hole instead of swapping, so
  // each level costs one store, not three. Sifts run on a raw pointer: the
  // vector never reallocates inside a sift, and a local pointer keeps the
  // compiler from reloading vector internals after every store.
  void HeapPush(const QEntry& e) {
    size_t i = heap_.size();
    heap_.push_back(e);
    QEntry* const h = heap_.data();
    while (i > 0) {
      const size_t parent = (i - 1) / 4;
      if (!Before(e, h[parent])) {
        break;
      }
      h[i] = h[parent];
      i = parent;
    }
    h[i] = e;
  }

  void HeapPop() {
    const QEntry e = heap_.back();
    heap_.pop_back();
    const size_t n = heap_.size();
    if (n == 0) {
      return;
    }
    QEntry* const h = heap_.data();
    size_t i = 0;
    while (true) {
      const size_t first_child = 4 * i + 1;
      if (first_child >= n) {
        break;
      }
      size_t best = first_child;
      const size_t last_child = first_child + 4 < n ? first_child + 4 : n;
      for (size_t c = first_child + 1; c < last_child; ++c) {
        if (Before(h[c], h[best])) {
          best = c;
        }
      }
      if (!Before(h[best], e)) {
        break;
      }
      h[i] = h[best];
      i = best;
    }
    h[i] = e;
  }

  void DropCancelledTop() {
    while (!heap_.empty() && LiveSlot(heap_.front().id) == nullptr) {
      HeapPop();
    }
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint32_t slot_count_ = 0;
  int64_t events_processed_ = 0;
  std::vector<QEntry> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<uint32_t> free_;
  std::function<uint64_t()> tiebreaker_;
};

}  // namespace hlrc

#endif  // SRC_SIM_ENGINE_H_
