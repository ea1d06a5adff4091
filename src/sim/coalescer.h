// Arm-once flush timer for epoch-batched control traffic.
//
// A producer that emits many small updates per epoch (HAVE fan-out,
// announce digests) calls arm() after each update; the first arm in a
// window schedules one flush event `delay` later, and every further arm
// inside the window is a no-op. The flush callback fires once with the
// whole epoch's accumulation, collapsing N simulator events into one.
// The callback may arm() again from inside the flush to start the next
// epoch.
#pragma once

#include <cstddef>
#include <functional>

#include "common/units.h"
#include "sim/simulator.h"

namespace vsplice::sim {

class CoalescingFlush {
 public:
  CoalescingFlush(Simulator& sim, Duration delay, std::function<void()> fn);
  CoalescingFlush(const CoalescingFlush&) = delete;
  CoalescingFlush& operator=(const CoalescingFlush&) = delete;
  ~CoalescingFlush() { cancel(); }

  /// Schedules the flush `delay` from now unless one is already
  /// pending. Returns true when this call armed the timer.
  bool arm();

  /// Drops the pending flush, if any (a departing owner abandons its
  /// accumulated digest rather than announcing after leaving).
  void cancel();

  [[nodiscard]] bool armed() const { return event_ != kInvalidEventId; }

  /// Deterministic footprint for the memory roll-up; the std::function
  /// target is bounded by its inline buffer for the captures used here.
  [[nodiscard]] static constexpr std::size_t memory_bytes() {
    return sizeof(CoalescingFlush);
  }

 private:
  Simulator& sim_;
  Duration delay_;
  std::function<void()> fn_;
  EventId event_ = kInvalidEventId;
};

}  // namespace vsplice::sim
