// Event-driven playback model.
//
// Plays a spliced video in simulated real time the way an HLS client
// does: wait until the first segment(s) are buffered, render sequentially,
// freeze when the playhead catches the download frontier (a stall), and
// resume as soon as the next segment lands. Produces the QoE metrics the
// paper reports; no decoding is modelled because stalls and startup are a
// pure function of the arrival/playback timelines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.h"
#include "core/segment.h"
#include "sim/simulator.h"
#include "streaming/metrics.h"
#include "streaming/playback_buffer.h"

namespace vsplice::streaming {

struct PlayerConfig {
  /// Contiguous segments required before the first frame renders
  /// (HLS players typically render after one full segment).
  std::size_t startup_segments = 1;
  /// Identity stamped on this player's spans (the owning leecher's node
  /// id); -1 for anonymous/unit-test players.
  std::int64_t trace_id = -1;
};

class Player {
 public:

  enum class State { WaitingForStart, Playing, Stalled, Finished };

  Player(sim::Simulator& sim, const core::SegmentIndex& index,
         PlayerConfig config = PlayerConfig());
  Player(const Player&) = delete;
  Player& operator=(const Player&) = delete;
  ~Player();

  /// Begins the session clock; startup time is measured from here.
  void start_session();

  /// Same, but back-dates the session start (a client that constructs
  /// its player only after fetching the playlist still charges the
  /// metadata exchange to its startup time, as Figure 4 does).
  void start_session(TimePoint session_start);

  /// Transport notification: `segment` is fully downloaded.
  /// `fetch_span` is the causal kSegment root span id of the download
  /// (0 when span tracing is off) — the playout span emitted when the
  /// playhead consumes this segment is parented to it.
  void on_segment_downloaded(std::size_t segment,
                             std::uint64_t fetch_span = 0);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool started() const { return metrics_.started; }
  [[nodiscard]] bool finished() const { return state_ == State::Finished; }
  [[nodiscard]] bool stalled() const { return state_ == State::Stalled; }

  /// Snapshot accessors for the swarm sampler: buffered seconds ahead of
  /// the playhead, and the fraction of segments downloaded so far.
  [[nodiscard]] double buffered_seconds() const {
    return buffered_ahead().as_seconds();
  }
  [[nodiscard]] double completion_fraction() const;

  /// Current media position.
  [[nodiscard]] Duration playhead() const;

  /// Contiguous playable time ahead of the playhead — the T of Eq. (1).
  /// Zero before startup, during a stall, and after the buffer drains.
  [[nodiscard]] Duration buffered_ahead() const;

  [[nodiscard]] const PlaybackBuffer& buffer() const { return buffer_; }
  [[nodiscard]] PlaybackBuffer& buffer() { return buffer_; }
  [[nodiscard]] const QoeMetrics& metrics() const { return metrics_; }
  [[nodiscard]] QoeMetrics& metrics() { return metrics_; }

  /// Optional hooks (may be left empty).
  std::function<void()> on_started;
  std::function<void()> on_stall;
  std::function<void()> on_resume;
  std::function<void()> on_finished;

 private:
  void maybe_start_playback();
  void begin_playing();
  void schedule_exhaustion();
  void handle_exhaustion();
  void finish();
  /// Emits kPlayout spans for every segment the playhead has fully
  /// consumed since the last call, mapping media windows back onto the
  /// wall clock via the current Playing anchor. Must run before the
  /// anchor changes (i.e. at stall begin and on frontier advances), so
  /// the retroactive mapping stays within one playing stretch. No-op
  /// when span tracing is off.
  void flush_consumed();

  sim::Simulator& sim_;
  PlayerConfig config_;
  PlaybackBuffer buffer_;
  QoeMetrics metrics_;
  State state_ = State::WaitingForStart;

  TimePoint session_start_ = TimePoint::origin();
  bool session_started_ = false;

  // While Playing: playhead(t) = anchor_media_ + (t - anchor_time_).
  TimePoint anchor_time_ = TimePoint::origin();
  Duration anchor_media_ = Duration::zero();

  TimePoint stall_started_ = TimePoint::origin();
  /// Frontier segment whose absence caused the current stall.
  std::size_t stall_segment_ = 0;
  /// Open kStall span of the current stall and the kPlayback span of the
  /// session (0 = none, or the record is off).
  std::uint64_t stall_span_ = 0;
  std::uint64_t playback_span_ = 0;
  sim::EventId exhaustion_event_ = sim::kInvalidEventId;

  /// Next segment index the playhead has not yet fully consumed (only
  /// advanced while span tracing is on — see flush_consumed()).
  std::size_t consumed_ = 0;
  /// Per-segment fetch-root span ids (sized lazily; only populated when
  /// span tracing is on).
  std::vector<std::uint64_t> fetch_spans_;
};

}  // namespace vsplice::streaming
