// The lifecycle record: causal spans plus a few instants.
//
// A Span is one timed phase of one segment's journey from splice
// artifact to playhead: the leecher's request decision, the tracker
// announce wait, choke/unchoke wait, REQUEST send, server queue,
// PIECE transfer, verify, buffer insert, playback consume. Spans carry
// a parent id, so every delivered segment has a reconstructible causal
// chain (kSegment root -> phase children). Beside the chains the record
// holds each viewer's stalls and playback session as spans, and its
// pool-size changes and departure as instants. It is the only record of
// a run: the --trace JSONL, the waterfall, the stall explainer, the
// anomaly scan, the timeline and the Chrome trace are all views of it
// (obs/exporters.h, obs/anomaly.h).
//
// Cost model (same bar as the profiler):
//   - disabled (no recorder installed): every record call is one
//     thread_local pointer read and a branch — no clock reads, no
//     allocation; bench_micro self-checks this at <2% of an event-loop
//     op.
//   - enabled: an append to a vector.
//
// Determinism: the recorder only reads the caller-supplied sim time and
// writes into its own vector. It never touches RNG state, never
// schedules events, and never mutates simulation containers — enabling
// spans cannot perturb figure output (differential-tested on all eight
// quickstart configs). Span ids are 1-based sequential per recorder, so
// identical seeded runs produce byte-identical span streams.
//
// Memory: the recorder holds the whole run; nothing is dropped, so
// every parent id resolves. memory_bytes() feeds the "obs.spans"
// MemoryBreakdown row.
//
// Threading: like the profiler and the metrics registry, installation
// is per-thread (detail::g_spans, ScopedSpanRecorder). Each
// ParallelRunner worker gets its own recorder.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/profiler.h"

namespace vsplice::obs {

/// Lifecycle phase of a span. Enumerator order is the canonical
/// waterfall row order (roughly causal order within a fetch).
enum class SpanKind : std::uint8_t {
  /// Tracker announce: join() -> metadata + first peer list.
  kAnnounce = 0,
  /// Root span of one download attempt of one segment (request decision
  /// -> verified buffer insert, or abort).
  kSegment,
  /// Instant: the scheduler picked (segment, holder) to fetch next.
  kRequestDecision,
  /// Waiting for an unchoke / for any holder to advertise the segment.
  kChokeWait,
  /// REQUEST message in flight plus connection handshake.
  kRequestSend,
  /// Queued behind other requests in the server's upload slots.
  kServerQueue,
  /// PIECE payload on the wire (net flow start -> finish).
  kPieceTransfer,
  /// Instant: integrity/length verification of the received payload.
  kVerify,
  /// Instant: the segment entered the playout buffer.
  kBufferInsert,
  /// The playhead consumed the segment (media-time window mapped onto
  /// the wall clock via the player's anchor).
  kPlayout,
  /// A viewer's playback froze: stall begin -> resume, left open when
  /// it never resumed. `segment` is the blocking segment, `attr` the
  /// playhead (media position) in microseconds.
  kStall,
  /// Instant: the adaptive pool target (Eq. 1) changed; `attr` is k.
  kPool,
  /// Instant: the node left the swarm.
  kLeave,
  /// First frame -> last frame of a viewer's session, left open while
  /// still playing; `attr` is the startup delay in microseconds.
  kPlayback,
};

/// Number of SpanKind enumerators (for per-kind tables).
inline constexpr std::size_t kSpanKindCount = 14;
/// The kinds before kStall are the segment delivery phases: the
/// waterfall rows.
inline constexpr std::size_t kDeliveryPhaseCount = 10;

/// Stable snake_case name ("announce", "piece_transfer", ...).
[[nodiscard]] const char* span_kind_name(SpanKind kind);
/// Inverse of span_kind_name; false on an unknown name.
bool span_kind_from_name(const std::string& name, SpanKind& out);

/// Span::flags bits.
inline constexpr std::uint32_t kSpanAborted = 1u << 0;
/// Still open when the recorder was read (run ended mid-phase).
inline constexpr std::uint32_t kSpanOpen = 1u << 1;

/// One timed phase in a segment's causal delivery chain.
struct Span {
  /// 1-based sequential id, unique per recorder; 0 is never issued.
  std::uint64_t id = 0;
  /// Id of the enclosing span; 0 = root (no parent).
  std::uint64_t parent = 0;
  SpanKind kind = SpanKind::kSegment;
  /// Emitting node (-1 when not applicable).
  std::int64_t node = -1;
  /// Segment index (-1 when not applicable, e.g. announce).
  std::int64_t segment = -1;
  TimePoint t_start;
  TimePoint t_end;
  /// Kind-specific scalar: transfer bytes for segment roots, bytes
  /// delivered for PIECE transfers (also when aborted), holder id for
  /// request spans, queue depth for server-queue spans, and as noted on
  /// the session kinds above; 0 when unused.
  std::int64_t attr = 0;
  std::uint32_t flags = 0;

  [[nodiscard]] bool aborted() const { return (flags & kSpanAborted) != 0; }
  [[nodiscard]] bool open() const { return (flags & kSpanOpen) != 0; }
  [[nodiscard]] Duration elapsed() const { return t_end - t_start; }
};

/// Per-thread span store. Install with ScopedSpanRecorder (or
/// Observability with ObsOptions::spans).
class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span and returns its id.
  std::uint64_t open(SpanKind kind, TimePoint start, std::uint64_t parent,
                     std::int64_t node, std::int64_t segment,
                     std::int64_t attr = 0);

  /// Closes span `id` at `end`. Ignores id 0 and unknown ids.
  void close(std::uint64_t id, TimePoint end);
  /// Closes span `id` at `end` and flags it aborted.
  void close_aborted(std::uint64_t id, TimePoint end);
  /// Records a zero-length span (t_start == t_end, already closed).
  std::uint64_t instant(SpanKind kind, TimePoint at, std::uint64_t parent,
                        std::int64_t node, std::int64_t segment,
                        std::int64_t attr = 0);
  /// Overwrites the kind-specific attribute of span `id`.
  void set_attr(std::uint64_t id, std::int64_t attr);

  /// Closes every still-open span at `end`, keeping the kSpanOpen flag
  /// so consumers can tell a truncated phase from a finished one. Call
  /// once when the run ends.
  void finish(TimePoint end);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Bytes held by the span store (capacity-based, like the other
  /// memory_bytes() accessors feeding MemoryBreakdown).
  [[nodiscard]] std::size_t memory_bytes() const {
    return spans_.capacity() * sizeof(Span);
  }

  void clear();

 private:
  std::vector<Span> spans_;
};

namespace detail {
/// Thread-local active recorder; nullptr = span tracing disabled.
inline thread_local SpanRecorder* g_spans = nullptr;
}  // namespace detail

/// True when a recorder is installed for this thread.
[[nodiscard]] inline bool span_tracing() {
  return detail::g_spans != nullptr;
}

/// Opens a span on the installed recorder; returns 0 (a safe no-op id)
/// when tracing is disabled. One pointer read and a branch when off.
inline std::uint64_t open_span(SpanKind kind, TimePoint start,
                               std::uint64_t parent, std::int64_t node,
                               std::int64_t segment, std::int64_t attr = 0) {
  SpanRecorder* r = detail::g_spans;
  return r != nullptr ? r->open(kind, start, parent, node, segment, attr)
                      : 0;
}

inline void close_span(std::uint64_t id, TimePoint end) {
  if (SpanRecorder* r = detail::g_spans; r != nullptr) r->close(id, end);
}

inline void abort_span(std::uint64_t id, TimePoint end) {
  if (SpanRecorder* r = detail::g_spans; r != nullptr) {
    r->close_aborted(id, end);
  }
}

inline std::uint64_t instant_span(SpanKind kind, TimePoint at,
                                  std::uint64_t parent, std::int64_t node,
                                  std::int64_t segment,
                                  std::int64_t attr = 0) {
  SpanRecorder* r = detail::g_spans;
  return r != nullptr ? r->instant(kind, at, parent, node, segment, attr)
                      : 0;
}

inline void set_span_attr(std::uint64_t id, std::int64_t attr) {
  if (SpanRecorder* r = detail::g_spans; r != nullptr) r->set_attr(id, attr);
}

/// Installs `recorder` as the current thread's span recorder for the
/// object's lifetime; restores the previous one on destruction.
class ScopedSpanRecorder {
 public:
  explicit ScopedSpanRecorder(SpanRecorder* recorder)
      : previous_{detail::g_spans} {
    detail::g_spans = recorder;
  }
  ScopedSpanRecorder(const ScopedSpanRecorder&) = delete;
  ScopedSpanRecorder& operator=(const ScopedSpanRecorder&) = delete;
  ~ScopedSpanRecorder() { detail::g_spans = previous_; }

 private:
  SpanRecorder* previous_;
};

// ------------------------------------------------------------ waterfall

/// Latency percentiles for one lifecycle phase across every recorded
/// span of that kind (closed, non-aborted spans only).
struct PhaseStats {
  /// span_kind_name() of the phase.
  std::string phase;
  std::uint64_t count = 0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  /// Sum of phase durations, seconds.
  double total_s = 0.0;
};

/// Aggregates the delivery-phase spans into per-phase latency
/// percentiles (nearest-rank), rows in SpanKind order, phases with no
/// samples omitted.
[[nodiscard]] std::vector<PhaseStats> segment_waterfall(
    const std::vector<Span>& spans);

/// Aligned text table of a waterfall (phase/count/p50/p95/p99/total).
[[nodiscard]] std::string waterfall_to_text(
    const std::vector<PhaseStats>& waterfall);

// ------------------------------------------------------- Chrome export

/// Renders spans (and optionally a profiler snapshot) as a Chrome
/// trace-event JSON document loadable in chrome://tracing or Perfetto.
///
/// Layout: spans land on pid 1 with one tid per node (tid = node id);
/// the profiler tree lands on pid 2 tid 0 as a synthetic flame chart
/// (children packed from the parent's start, ts in cumulative
/// microseconds). All events are "X" (complete) phases with ts/dur in
/// microseconds; ids are the deterministic span ids; every numeric
/// field goes through the same non-finite -> null hardening as the
/// other JSON surfaces, and names are escaped with json_escape.
[[nodiscard]] std::string render_chrome_trace(
    const std::vector<Span>& spans,
    const ProfileSnapshot* profile = nullptr);

/// Structural validity check for a trace produced by
/// render_chrome_trace (used by ctest and the CLI after writing):
/// well-formed trace-event JSON, ts monotone non-decreasing within each
/// (pid, tid) track, and every span's args.parent resolving to a
/// recorded span id. On failure returns false and, when `error` is
/// non-null, describes the first problem found.
[[nodiscard]] bool validate_chrome_trace(const std::string& json,
                                         std::string* error = nullptr);

}  // namespace vsplice::obs
