// Discrete-event simulation engine.
//
// Deterministic: events at equal timestamps fire in the order they were
// scheduled. Everything in vsplice (network flows, peer protocol timers,
// the playback clock) runs on one Simulator instance. Concurrency across
// *runs* is achieved by giving each run its own Simulator (see
// experiments::ParallelRunner); within a run the loop is serial.
//
// Hot-path design: the heap orders trivially-copyable 24-byte entries
// (time, FIFO sequence, id) while the callbacks live in per-slot storage
// — sift operations move PODs instead of std::function objects, which
// is most of a heap operation's cost at message-heavy queue depths.
// Cancellation is generation-tagged: an EventId encodes (slot,
// generation); cancelling or firing bumps the slot's generation, so stale
// heap entries are recognized by a mismatched tag and skipped lazily when
// they surface. Scheduling, cancelling and firing therefore touch only
// flat vectors — no hash-table lookups anywhere in the event loop, and no
// allocations once the heap and slot vectors have reached steady-state
// size.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.h"

namespace vsplice::sim {

/// Handle for a scheduled event: (slot << 32) | generation. Slots are
/// recycled; the generation tag makes every issued id unique until a
/// slot's 32-bit generation counter wraps (~4 billion schedules on one
/// slot — unreachable in any realistic run).
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Starts at the origin.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (must not be in the past).
  EventId at(TimePoint t, std::function<void()> fn);

  /// Schedules `fn` after `d` from now (d must be non-negative).
  EventId after(Duration d, std::function<void()> fn);

  /// Cancels a pending event. Returns false if it already fired, was
  /// already cancelled, or never existed. The callback is destroyed
  /// before cancel() returns (after all queue bookkeeping, so a
  /// capture's destructor may itself schedule or cancel); only the
  /// 24-byte heap entry lingers until it surfaces and is dropped.
  bool cancel(EventId id);

  /// True if `id` is still pending.
  [[nodiscard]] bool is_pending(EventId id) const;

  /// Runs events until the queue is empty.
  void run();

  /// Runs all events with timestamp <= `t`, then advances the clock to
  /// exactly `t`. Returns the number of events processed.
  std::size_t run_until(TimePoint t);

  /// Processes the single next event. Returns false when the queue is
  /// empty.
  bool step();

  /// Number of pending (non-cancelled) events.
  [[nodiscard]] std::size_t pending_events() const { return live_; }

  /// Cumulative events fired over the simulator's lifetime.
  [[nodiscard]] std::uint64_t fired_count() const { return fired_count_; }

  /// Raw heap entries, including lazily-cancelled garbage.
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size(); }

  /// Deepest the heap has ever been (entries, including garbage).
  /// Records the pre-compaction peak: compaction shrinks the live size
  /// but never rewrites history.
  [[nodiscard]] std::size_t heap_high_water() const {
    return heap_high_water_;
  }

  /// Heap rebuilds performed because lazily-cancelled garbage crossed
  /// the compaction threshold (see the event_queue_garbage anomaly
  /// scanner; compaction keeps the steady-state ratio at or below the
  /// scanner's 0.5 alarm line).
  [[nodiscard]] std::uint64_t heap_compactions() const {
    return heap_compactions_;
  }

  /// Fraction of current heap entries that are lazily-cancelled
  /// garbage, [0, 1]; 0 when the heap is empty. A ratio that stays
  /// above 0.5 means lazy deletion is carrying more dead weight than
  /// live events (see the event_queue_garbage anomaly scanner).
  [[nodiscard]] double garbage_ratio() const {
    if (heap_.empty()) return 0.0;
    return static_cast<double>(heap_.size() - live_) /
           static_cast<double>(heap_.size());
  }

  /// Bytes held by the event queue: heap entries plus per-slot
  /// generation/callback/free-list storage (capacity-based; see
  /// obs/resource.h).
  [[nodiscard]] std::uint64_t memory_bytes() const {
    return static_cast<std::uint64_t>(heap_.capacity()) * sizeof(Entry) +
           static_cast<std::uint64_t>(generation_.capacity()) *
               sizeof(std::uint32_t) +
           static_cast<std::uint64_t>(callbacks_.capacity()) *
               sizeof(std::function<void()>) +
           static_cast<std::uint64_t>(free_slots_.capacity()) *
               sizeof(std::uint32_t);
  }

  /// Timestamp of the next pending event, or TimePoint::infinity().
  [[nodiscard]] TimePoint next_event_time() const;

  /// Safety valve for tests: run() throws InternalError after this many
  /// events (0 disables the limit, the default).
  void set_event_limit(std::uint64_t limit) { event_limit_ = limit; }

 private:
  /// Heap entry: trivially copyable on purpose. The callback lives in
  /// callbacks_[slot_of(id)], so sifting the heap never touches a
  /// std::function.
  struct Entry {
    TimePoint time;
    std::uint64_t sequence;  // tie-break: FIFO at equal timestamps
    EventId id;
  };

  /// Heap comparator: true when `a` fires after `b` (min-heap on
  /// (time, sequence) under std::push_heap/pop_heap).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  static constexpr EventId make_id(std::uint32_t slot,
                                   std::uint32_t generation) {
    return (static_cast<EventId>(slot) << 32) | generation;
  }
  static constexpr std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static constexpr std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }

  /// True while the id's generation tag matches its slot.
  [[nodiscard]] bool live(EventId id) const;
  /// Bumps the slot's generation and returns it to the free list.
  void retire(EventId id);
  /// Pops stale (cancelled) entries off the heap top.
  void drop_stale() const;
  /// Rebuilds the heap without its stale entries once garbage outweighs
  /// live events (and the heap is big enough to matter). Pop order is
  /// unchanged — it is the total order (time, sequence), independent of
  /// heap layout — and generation tags live in the slot vector, which a
  /// rebuild never touches. Runs only from cancel(), never while an
  /// entry is being popped.
  void maybe_compact();
  /// Moves the top entry out of the heap, retires it, and runs it.
  void fire();

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_sequence_ = 0;
  std::uint64_t fired_count_ = 0;
  std::uint64_t event_limit_ = 0;
  std::size_t live_ = 0;
  std::size_t heap_high_water_ = 0;
  std::uint64_t heap_compactions_ = 0;
  /// Below this many entries a rebuild saves less than it costs.
  static constexpr std::size_t kCompactMinEntries = 1024;

  // Lazy deletion: cancelled entries stay in the heap (their slot's
  // generation no longer matches) and are dropped when they surface.
  mutable std::vector<Entry> heap_;
  std::vector<std::uint32_t> generation_;  // per slot; starts at 1
  std::vector<std::function<void()>> callbacks_;  // per slot
  std::vector<std::uint32_t> free_slots_;
};

/// Repeats a callback at a fixed period until stopped or destroyed.
/// The first firing happens one period after start().
class PeriodicTask {
 public:
  PeriodicTask(Simulator& sim, Duration period, std::function<void()> fn);
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;
  ~PeriodicTask();

  void start();
  void stop();
  [[nodiscard]] bool running() const { return event_ != kInvalidEventId; }

 private:
  void schedule_next();

  Simulator& sim_;
  Duration period_;
  std::function<void()> fn_;
  EventId event_ = kInvalidEventId;
  bool stopped_ = false;
};

}  // namespace vsplice::sim
