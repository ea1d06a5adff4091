// Views over the lifecycle record (obs/span.h).
//
//   - span_to_jsonl()/parse_span_line(): the --trace format, one JSON
//     object per span in id order, written when the run ends; a trace
//     file parses back into exactly the recorded spans.
//   - explain_stalls(): the one stall explainer. It indexes the record
//     once by (node, segment) and names each stall's cause (holder left,
//     transfer aborted, oversized GOP, pool collapse, plain bandwidth
//     shortfall, ...), the critical phase of the blocking delivery, and
//     the anomalies overlapping the stall.
//   - summarize_timeline(): per-viewer sessions with every stall
//     explained, plus a cause tally.
// Plus Observability — the one-stop bundle (record + profiler + scoped
// install) that run_scenario and the CLI tools use.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/anomaly.h"
#include "obs/json.h"
#include "obs/profiler.h"
#include "obs/span.h"

namespace vsplice::obs {

// ----------------------------------------------------------------- JSONL

/// One span as a single-line JSON object, fields in a fixed order:
///   {"id":7,"parent":3,"kind":"piece_transfer","node":4,"segment":12,
///    "start_us":1250000,"end_us":2250000,"attr":939430,
///    "aborted":false,"open":false}
[[nodiscard]] std::string span_to_jsonl(const Span& span);

/// Parses one line written by span_to_jsonl. Returns nullopt when the
/// line is not such an object (malformed JSON, a missing or mistyped
/// field, an unknown kind).
[[nodiscard]] std::optional<Span> parse_span_line(const std::string& line);

// ------------------------------------------------------ stall explanation

/// Why a viewer stalled, derived from the lifecycle record.
struct StallExplanation {
  std::int64_t node = -1;
  TimePoint start;
  /// Infinite when the stall never resolved within the record.
  TimePoint end = TimePoint::infinity();
  Duration duration = Duration::zero();
  /// The segment whose absence blocked playback.
  std::size_t segment = 0;
  /// Machine-checkable bucket: holder_left | transfer_aborted |
  /// oversized_segment | pool_collapsed | bandwidth_shortfall |
  /// never_requested | unresolved.
  std::string category;
  /// Human-readable one-liner with the numbers behind the verdict.
  std::string cause;
  /// The dominant phase on the span chain of the blocking segment's last
  /// fetch (e.g. "server_queue" or "piece_transfer"); empty when no
  /// fetch of that segment was recorded.
  std::string critical_phase;
  /// Indices into the anomaly vector given to explain_stalls() of the
  /// anomalies on this viewer (or swarm-wide) overlapping the stall.
  std::vector<std::size_t> anomalies;
};

/// Explains every stall span, in record order. Every stall receives a
/// non-empty category and cause; a recorded fetch chain adds its
/// critical phase to the cause.
[[nodiscard]] std::vector<StallExplanation> explain_stalls(
    const std::vector<Span>& spans,
    const std::vector<Anomaly>& anomalies = {});

/// Per-viewer session timelines (join/start/stalls/finish/leave) with
/// each stall explained, followed by a cause tally.
[[nodiscard]] std::string summarize_timeline(const std::vector<Span>& spans);

// --------------------------------------------------- one-stop session API

struct ObsOptions {
  /// Span-trace JSONL destination, written by finish(); empty = no
  /// file. Implies `spans`.
  std::string trace_path;
  /// Install a hot-path profiler for this thread (VSPLICE_PROFILE_SCOPE
  /// accumulates into it; read back via profile_snapshot()).
  bool profile = false;
  /// Install the lifecycle record for this thread (lifecycle code feeds
  /// it through obs::open_span/close_span/instant_span; read back via
  /// spans()).
  bool spans = false;
};

/// Owns the requested recorders, installs them as the scoped per-thread
/// globals, and writes the trace file. Destruction restores the previous
/// context.
class Observability {
 public:
  explicit Observability(const ObsOptions& options);
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  /// summarize_timeline over the record.
  [[nodiscard]] std::string timeline() const;

  /// Ends the record at `end`: closes every still-open span (keeping its
  /// open flag) and writes the trace file, when one was requested.
  void finish(TimePoint end);

  /// True when ObsOptions::profile installed a profiler.
  [[nodiscard]] bool profiling() const { return profiler_ != nullptr; }
  /// The accumulated hot-path profile; empty when not profiling.
  [[nodiscard]] ProfileSnapshot profile_snapshot() const {
    return profiler_ != nullptr ? profiler_->snapshot() : ProfileSnapshot{};
  }

  /// True when the lifecycle record is installed.
  [[nodiscard]] bool span_tracing() const { return spans_ != nullptr; }
  /// The installed recorder; nullptr when the record is off.
  [[nodiscard]] SpanRecorder* span_recorder() { return spans_.get(); }
  /// Recorded spans; empty when the record is off.
  [[nodiscard]] const std::vector<Span>& spans() const {
    static const std::vector<Span> kEmpty;
    return spans_ != nullptr ? spans_->spans() : kEmpty;
  }

 private:
  std::ofstream trace_file_;
  /// Allocated only when ObsOptions::profile; installed for this thread
  /// (an independent thread_local, so members carry no restore-order
  /// constraint between them).
  std::unique_ptr<Profiler> profiler_;
  std::unique_ptr<ScopedProfiler> profiler_scope_;
  /// Allocated only when the record is on; same install pattern as the
  /// profiler (independent thread_local).
  std::unique_ptr<SpanRecorder> spans_;
  std::unique_ptr<ScopedSpanRecorder> span_scope_;
};

}  // namespace vsplice::obs
