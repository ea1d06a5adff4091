#include "sim/simulator.h"

#include <algorithm>

#include "common/error.h"
#include "obs/profiler.h"

namespace vsplice::sim {

EventId Simulator::at(TimePoint t, std::function<void()> fn) {
  // Format the diagnostic only on failure: this runs once per event.
  if (t < now_) {
    throw InvalidArgument{"cannot schedule an event in the past (" +
                          t.to_string() + " < " + now_.to_string() + ")"};
  }
  require(static_cast<bool>(fn), "cannot schedule a null callback");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(generation_.size());
    generation_.push_back(1);
    callbacks_.push_back(std::move(fn));
  }
  const EventId id = make_id(slot, generation_[slot]);
  {
    VSPLICE_PROFILE_SCOPE("sim.schedule");
    heap_.push_back(Entry{t, next_sequence_++, id});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  heap_high_water_ = std::max(heap_high_water_, heap_.size());
  ++live_;
  return id;
}

EventId Simulator::after(Duration d, std::function<void()> fn) {
  require(!d.is_negative(), "cannot schedule with a negative delay");
  return at(now_ + d, std::move(fn));
}

bool Simulator::live(EventId id) const {
  const std::uint32_t slot = slot_of(id);
  return slot < generation_.size() &&
         generation_[slot] == generation_of(id);
}

void Simulator::retire(EventId id) {
  const std::uint32_t slot = slot_of(id);
  ++generation_[slot];
  free_slots_.push_back(slot);
}

bool Simulator::cancel(EventId id) {
  if (id == kInvalidEventId || !live(id)) return false;
  // Pull the callback out before any destructor runs: destroying a
  // capture may reenter (schedule or cancel), so all bookkeeping must
  // be done first and `doomed` must die last, as a local.
  std::function<void()> doomed;
  doomed.swap(callbacks_[slot_of(id)]);
  retire(id);  // the heap entry goes stale and is dropped when it surfaces
  --live_;
  maybe_compact();
  return true;
}

void Simulator::maybe_compact() {
  if (heap_.size() < kCompactMinEntries) return;
  if (heap_.size() - live_ <= live_) return;  // garbage ratio <= 0.5
  std::size_t keep = 0;
  for (const Entry& entry : heap_) {
    if (live(entry.id)) heap_[keep++] = entry;
  }
  heap_.resize(keep);
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  ++heap_compactions_;
}

bool Simulator::is_pending(EventId id) const {
  return id != kInvalidEventId && live(id);
}

void Simulator::drop_stale() const {
  while (!heap_.empty() && !live(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

void Simulator::fire() {
  VSPLICE_PROFILE_SCOPE("sim.fire");
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry entry = heap_.back();
  heap_.pop_back();
  check_invariant(entry.time >= now_, "event queue went backwards in time");
  now_ = entry.time;
  // Move the callback to a local before retiring: fn() may schedule,
  // reallocating callbacks_ (and reusing this slot).
  std::function<void()> fn;
  fn.swap(callbacks_[slot_of(entry.id)]);
  retire(entry.id);
  --live_;
  ++fired_count_;
  if (event_limit_ != 0 && fired_count_ > event_limit_) {
    throw InternalError{"simulator event limit exceeded (" +
                        std::to_string(event_limit_) +
                        " events); likely a runaway feedback loop"};
  }
  fn();
}

bool Simulator::step() {
  drop_stale();
  if (heap_.empty()) return false;
  fire();
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

std::size_t Simulator::run_until(TimePoint t) {
  require(t >= now_, "run_until target is in the past");
  std::size_t processed = 0;
  while (true) {
    drop_stale();
    if (heap_.empty() || heap_.front().time > t) break;
    fire();
    ++processed;
  }
  now_ = t;
  return processed;
}

TimePoint Simulator::next_event_time() const {
  drop_stale();
  if (heap_.empty()) return TimePoint::infinity();
  return heap_.front().time;
}

PeriodicTask::PeriodicTask(Simulator& sim, Duration period,
                           std::function<void()> fn)
    : sim_{sim}, period_{period}, fn_{std::move(fn)} {
  require(period_ > Duration::zero(), "periodic task period must be > 0");
  require(static_cast<bool>(fn_), "periodic task needs a callback");
}

PeriodicTask::~PeriodicTask() { stop(); }

void PeriodicTask::start() {
  if (running()) return;
  stopped_ = false;
  schedule_next();
}

void PeriodicTask::stop() {
  stopped_ = true;
  if (event_ != kInvalidEventId) {
    sim_.cancel(event_);
    event_ = kInvalidEventId;
  }
}

void PeriodicTask::schedule_next() {
  event_ = sim_.after(period_, [this] {
    event_ = kInvalidEventId;
    fn_();
    // fn_ may have called stop(); only chain if still meant to run.
    if (!stopped_) schedule_next();
  });
}

}  // namespace vsplice::sim
