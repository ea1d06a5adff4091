#include "sim/coalescer.h"

#include <utility>

namespace vsplice::sim {

CoalescingFlush::CoalescingFlush(Simulator& sim, Duration delay,
                                 std::function<void()> fn)
    : sim_{sim}, delay_{delay}, fn_{std::move(fn)} {}

bool CoalescingFlush::arm() {
  if (event_ != kInvalidEventId) return false;
  event_ = sim_.after(delay_, [this] {
    // Clear before firing so the callback can re-arm for the next epoch
    // from inside the flush.
    event_ = kInvalidEventId;
    fn_();
  });
  return true;
}

void CoalescingFlush::cancel() {
  if (event_ == kInvalidEventId) return;
  sim_.cancel(event_);
  event_ = kInvalidEventId;
}

}  // namespace vsplice::sim
