#include "streaming/player.h"

#include "common/error.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace vsplice::streaming {

Player::Player(sim::Simulator& sim, const core::SegmentIndex& index,
               PlayerConfig config)
    : sim_{sim}, config_{config}, buffer_{index} {
  require(config_.startup_segments >= 1,
          "player needs at least one startup segment");
}

Player::~Player() {
  if (exhaustion_event_ != sim::kInvalidEventId) {
    sim_.cancel(exhaustion_event_);
  }
}

void Player::start_session() { start_session(sim_.now()); }

void Player::start_session(TimePoint session_start) {
  require(!session_started_, "session already started");
  require(session_start <= sim_.now(),
          "session start cannot be in the future");
  session_started_ = true;
  session_start_ = session_start;
  maybe_start_playback();
}

void Player::on_segment_downloaded(std::size_t segment,
                                   std::uint64_t fetch_span) {
  buffer_.mark_downloaded(segment);
  if (fetch_span != 0) {
    if (fetch_spans_.size() <= segment) {
      fetch_spans_.resize(buffer_.index().count(), 0);
    }
    fetch_spans_[segment] = fetch_span;
  }
  obs::set_gauge("player.buffer_level_s",
                 buffer_.buffered_ahead(playhead()).as_seconds());
  switch (state_) {
    case State::WaitingForStart:
      if (session_started_) maybe_start_playback();
      break;
    case State::Playing:
      flush_consumed();
      // The frontier may have moved; push the exhaustion point out.
      schedule_exhaustion();
      break;
    case State::Stalled:
      if (buffer_.frontier_time() > playhead()) {
        // Resume: close the stall, re-anchor the playback clock.
        const Duration stalled = sim_.now() - stall_started_;
        metrics_.total_stall_duration += stalled;
        metrics_.stalls.back().duration = stalled;
        anchor_time_ = sim_.now();
        anchor_media_ = metrics_.stalls.back().playhead;
        state_ = State::Playing;
        obs::close_span(stall_span_, sim_.now());
        stall_span_ = 0;
        obs::observe("player.stall_duration_s", stalled.as_seconds());
        schedule_exhaustion();
        if (on_resume) on_resume();
      }
      break;
    case State::Finished:
      break;
  }
}

void Player::maybe_start_playback() {
  const std::size_t need =
      std::min(config_.startup_segments, buffer_.index().count());
  if (buffer_.frontier() < need) return;
  metrics_.started = true;
  metrics_.startup_time = sim_.now() - session_start_;
  playback_span_ = obs::open_span(obs::SpanKind::kPlayback, sim_.now(), 0,
                                  config_.trace_id, -1,
                                  metrics_.startup_time.count_micros());
  obs::observe("player.startup_s", metrics_.startup_time.as_seconds());
  begin_playing();
  if (on_started) on_started();
}

void Player::begin_playing() {
  state_ = State::Playing;
  anchor_time_ = sim_.now();
  anchor_media_ = Duration::zero();
  schedule_exhaustion();
}

Duration Player::playhead() const {
  switch (state_) {
    case State::WaitingForStart:
      return Duration::zero();
    case State::Playing:
      return anchor_media_ + (sim_.now() - anchor_time_);
    case State::Stalled:
      return metrics_.stalls.back().playhead;
    case State::Finished:
      return buffer_.index().total_duration();
  }
  return Duration::zero();
}

Duration Player::buffered_ahead() const {
  if (state_ == State::Finished) return Duration::zero();
  return buffer_.buffered_ahead(playhead());
}

double Player::completion_fraction() const {
  const std::size_t count = buffer_.index().count();
  if (count == 0) return 0.0;
  return static_cast<double>(buffer_.downloaded_count()) /
         static_cast<double>(count);
}

void Player::schedule_exhaustion() {
  check_invariant(state_ == State::Playing,
                  "exhaustion is only scheduled while playing");
  if (exhaustion_event_ != sim::kInvalidEventId) {
    sim_.cancel(exhaustion_event_);
  }
  const Duration runway = buffer_.frontier_time() - playhead();
  check_invariant(!runway.is_negative(), "playhead passed the frontier");
  exhaustion_event_ = sim_.after(runway, [this] {
    exhaustion_event_ = sim::kInvalidEventId;
    handle_exhaustion();
  });
}

void Player::handle_exhaustion() {
  // The playhead has reached the download frontier. Flush playout spans
  // now, while the anchor that played those segments is still current.
  flush_consumed();
  if (buffer_.frontier() == buffer_.index().count()) {
    finish();
    return;
  }
  state_ = State::Stalled;
  stall_started_ = sim_.now();
  stall_segment_ = buffer_.frontier();
  StallEvent stall;
  stall.start = sim_.now();
  stall.playhead = buffer_.frontier_time();
  metrics_.stalls.push_back(stall);
  ++metrics_.stall_count;
  stall_span_ = obs::open_span(obs::SpanKind::kStall, sim_.now(), 0,
                               config_.trace_id,
                               static_cast<std::int64_t>(stall_segment_),
                               stall.playhead.count_micros());
  obs::count("player.stalls");
  VSPLICE_DEBUG("player") << "stall #" << metrics_.stall_count << " at media "
                          << stall.playhead.to_string();
  if (on_stall) on_stall();
}

void Player::flush_consumed() {
  if (!obs::span_tracing()) return;
  check_invariant(state_ == State::Playing,
                  "playout spans are flushed against the Playing anchor");
  const Duration head = playhead();
  const core::SegmentIndex& index = buffer_.index();
  while (consumed_ < index.count() && index.at(consumed_).end() <= head) {
    const core::Segment& seg = index.at(consumed_);
    // Retroactive wall-time window: while Playing, media position m was
    // rendered at anchor_time_ + (m - anchor_media_). Stalls only occur
    // at segment boundaries, so a fully consumed segment always lies
    // inside the current anchor stretch.
    const TimePoint start = anchor_time_ + (seg.start - anchor_media_);
    const TimePoint end = anchor_time_ + (seg.end() - anchor_media_);
    const std::uint64_t parent =
        consumed_ < fetch_spans_.size() ? fetch_spans_[consumed_] : 0;
    obs::close_span(
        obs::open_span(obs::SpanKind::kPlayout, start, parent,
                       config_.trace_id,
                       static_cast<std::int64_t>(consumed_)),
        end);
    ++consumed_;
  }
}

void Player::finish() {
  state_ = State::Finished;
  metrics_.finished = true;
  metrics_.completion_time = sim_.now() - session_start_;
  obs::close_span(playback_span_, sim_.now());
  obs::count("player.finished");
  if (on_finished) on_finished();
}

}  // namespace vsplice::streaming
