#include "obs/exporters.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/error.h"

namespace vsplice::obs {

// ----------------------------------------------------------------- JSONL

std::string span_to_jsonl(const Span& span) {
  std::string out;
  out.reserve(176);
  out += "{\"id\":" + std::to_string(span.id);
  out += ",\"parent\":" + std::to_string(span.parent);
  out += ",\"kind\":\"";
  out += span_kind_name(span.kind);
  out += "\",\"node\":" + std::to_string(span.node);
  out += ",\"segment\":" + std::to_string(span.segment);
  out += ",\"start_us\":" + std::to_string(span.t_start.count_micros());
  out += ",\"end_us\":" + std::to_string(span.t_end.count_micros());
  out += ",\"attr\":" + std::to_string(span.attr);
  out += ",\"aborted\":";
  out += span.aborted() ? "true" : "false";
  out += ",\"open\":";
  out += span.open() ? "true" : "false";
  out += '}';
  return out;
}

std::optional<Span> parse_span_line(const std::string& line) {
  JsonValue root;
  std::string error;
  if (!parse_json(line, root, error) ||
      root.type != JsonValue::Type::Object) {
    return std::nullopt;
  }
  const auto integer = [&root](const char* key) {
    const JsonValue* v = root.find(key);
    return v != nullptr ? v->as_int() : std::nullopt;
  };
  const auto flag = [&root](const char* key) -> std::optional<bool> {
    const JsonValue* v = root.find(key);
    if (v == nullptr || v->type != JsonValue::Type::Bool) return std::nullopt;
    return v->boolean;
  };
  const auto id = integer("id");
  const auto parent = integer("parent");
  const auto node = integer("node");
  const auto segment = integer("segment");
  const auto start = integer("start_us");
  const auto end = integer("end_us");
  const auto attr = integer("attr");
  const auto aborted = flag("aborted");
  const auto open = flag("open");
  const JsonValue* kind = root.find("kind");
  Span span;
  if (!id || *id < 1 || !parent || *parent < 0 || !node || !segment ||
      !start || !end || !attr || !aborted || !open || kind == nullptr ||
      kind->type != JsonValue::Type::String ||
      !span_kind_from_name(kind->string, span.kind)) {
    return std::nullopt;
  }
  span.id = static_cast<std::uint64_t>(*id);
  span.parent = static_cast<std::uint64_t>(*parent);
  span.node = *node;
  span.segment = *segment;
  span.t_start = TimePoint::from_micros(*start);
  span.t_end = TimePoint::from_micros(*end);
  span.attr = *attr;
  span.flags = (*aborted ? kSpanAborted : 0u) | (*open ? kSpanOpen : 0u);
  return span;
}

// ------------------------------------------------------ stall explanation

namespace {

std::string node_name(std::int64_t node) {
  return node < 0 ? "node?" : "node" + std::to_string(node);
}

std::string seconds(TimePoint t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", t.as_seconds());
  return buf;
}

std::string seconds(Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", d.as_seconds());
  return buf;
}

std::string kilobytes(Bytes b) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f kB", static_cast<double>(b) / 1000.0);
  return buf;
}

/// (node, segment) as one map key.
std::uint64_t fetch_key(std::int64_t node, std::int64_t segment) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node))
          << 32) |
         static_cast<std::uint32_t>(segment);
}

/// What the record says about one viewer besides its fetches.
struct ViewerFacts {
  /// Pool-size instants, in record (hence time) order.
  std::vector<const Span*> pools;
  TimePoint left = TimePoint::infinity();
  /// Indices of the anomalies about this viewer, ascending.
  std::vector<std::size_t> anomalies;
};

/// Median transfer size over the distinct segments fetched in the
/// record — the yardstick for calling a blocking segment "oversized" (a
/// static-scene GOP is several times the typical segment). Distinct
/// segments, not requests: choke retries of a big segment would
/// otherwise inflate the yardstick it is measured against.
Bytes median_segment_bytes(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, Bytes> by_segment;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kSegment) by_segment[s.segment] = s.attr;
  }
  if (by_segment.empty()) return 0;
  std::vector<Bytes> sizes;
  sizes.reserve(by_segment.size());
  for (const auto& [segment, bytes] : by_segment) sizes.push_back(bytes);
  const auto middle =
      sizes.begin() + static_cast<std::ptrdiff_t>(sizes.size() / 2);
  std::nth_element(sizes.begin(), middle, sizes.end());
  return *middle;
}

}  // namespace

std::vector<StallExplanation> explain_stalls(
    const std::vector<Span>& spans, const std::vector<Anomaly>& anomalies) {
  // Index the record once: the stalls and each viewer's pool changes and
  // departure, then the delivery chains of the stalled (node, segment)
  // pairs. Every chain span shares its root's node and segment.
  std::vector<const Span*> stalls;
  std::unordered_map<std::int64_t, ViewerFacts> viewers;
  std::unordered_set<std::uint64_t> stalled;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kStall) {
      stalls.push_back(&s);
      stalled.insert(fetch_key(s.node, s.segment));
    } else if (s.kind == SpanKind::kPool) {
      viewers[s.node].pools.push_back(&s);
    } else if (s.kind == SpanKind::kLeave) {
      viewers[s.node].left = std::min(viewers[s.node].left, s.t_start);
    }
  }
  std::unordered_map<std::uint64_t, std::vector<const Span*>> fetches;
  for (const Span& s : spans) {
    if (static_cast<std::size_t>(s.kind) >= kDeliveryPhaseCount) continue;
    const std::uint64_t key = fetch_key(s.node, s.segment);
    if (stalled.contains(key)) fetches[key].push_back(&s);
  }
  std::vector<std::size_t> swarm_wide;
  for (std::size_t i = 0; i < anomalies.size(); ++i) {
    if (anomalies[i].node < 0) {
      swarm_wide.push_back(i);
    } else {
      viewers[anomalies[i].node].anomalies.push_back(i);
    }
  }
  const Bytes median_size = median_segment_bytes(spans);
  const auto left_at = [&viewers](std::int64_t node) {
    const auto it = viewers.find(node);
    return it != viewers.end() ? it->second.left : TimePoint::infinity();
  };

  std::vector<StallExplanation> out;
  out.reserve(stalls.size());
  for (const Span* stall : stalls) {
    StallExplanation ex;
    ex.node = stall->node;
    ex.start = stall->t_start;
    ex.segment = static_cast<std::size_t>(stall->segment);
    const bool resolved = !stall->open();
    if (resolved) {
      ex.end = stall->t_end;
      ex.duration = stall->t_end - stall->t_start;
    }
    const TimePoint window_end = ex.end;  // infinite when unresolved
    const TimePoint viewer_left = left_at(ex.node);

    // Everything the record knows about the blocking segment up to the
    // stall's end.
    TimePoint first_request = TimePoint::infinity();
    std::size_t request_count = 0;
    Bytes segment_bytes = 0;
    std::int64_t holder = -1;  // of the latest request decision
    const Span* last_abort = nullptr;
    std::int64_t abort_holder = -1;
    const Span* received = nullptr;
    const Span* last_root = nullptr;
    static const std::vector<const Span*> kNoFetch;
    const auto fetch = fetches.find(fetch_key(stall->node, stall->segment));
    const std::vector<const Span*>& chain =
        fetch != fetches.end() ? fetch->second : kNoFetch;
    for (const Span* s : chain) {
      switch (s->kind) {
        case SpanKind::kSegment:
          last_root = s;
          if (!s->open() && !s->aborted() && s->t_end <= window_end) {
            received = s;
          }
          break;
        case SpanKind::kRequestDecision:
          holder = s->attr;
          if (s->t_start <= window_end) {
            first_request = std::min(first_request, s->t_start);
            ++request_count;
            if (s->parent != 0 && s->parent <= spans.size()) {
              segment_bytes = spans[s->parent - 1].attr;
            }
          }
          break;
        case SpanKind::kPieceTransfer:
          // A transfer cut by the viewer's own departure never reached
          // the viewer as an abort: nothing was re-fetched.
          if (s->aborted() && s->t_end <= window_end &&
              s->t_end >= first_request && s->t_end < viewer_left &&
              (last_abort == nullptr || s->t_end >= last_abort->t_end)) {
            last_abort = s;
            abort_holder = holder;
          }
          break;
        default:
          break;
      }
    }

    int pool_at_stall = -1;
    if (const auto it = viewers.find(ex.node); it != viewers.end()) {
      const std::vector<const Span*>& pools = it->second.pools;
      const auto after = std::upper_bound(
          pools.begin(), pools.end(), ex.start,
          [](TimePoint t, const Span* p) { return t < p->t_start; });
      if (after != pools.begin()) {
        pool_at_stall = static_cast<int>((*std::prev(after))->attr);
      }
    }

    const std::string seg = "segment " + std::to_string(ex.segment);
    if (request_count == 0) {
      ex.category = "never_requested";
      ex.cause = seg + " was never requested before the stall " +
                 (resolved ? "ended" : "and the trace ran out") +
                 " (scheduler starvation)";
    } else if (last_abort != nullptr) {
      // A dead transfer forced a re-fetch; was it churn or a hangup?
      const TimePoint holder_left = left_at(abort_holder);
      const Bytes wasted = last_abort->attr;
      if (holder_left >= first_request && holder_left <= last_abort->t_end) {
        ex.category = "holder_left";
        ex.cause = "holder " + node_name(abort_holder) +
                   " left the swarm mid-transfer of " + seg + " (" +
                   kilobytes(wasted) +
                   " wasted); re-fetched from another holder";
      } else {
        ex.category = "transfer_aborted";
        ex.cause = "transfer of " + seg + " from " + node_name(abort_holder) +
                   " aborted (" + kilobytes(wasted) +
                   " wasted); re-fetched from another holder";
      }
    } else if (!resolved) {
      ex.category = "unresolved";
      ex.cause = seg + " (" + kilobytes(segment_bytes) +
                 ") was still in flight when the trace ended";
    } else if (median_size > 0 && segment_bytes > 2 * median_size) {
      ex.category = "oversized_segment";
      ex.cause = seg + " is " + kilobytes(segment_bytes) + " vs a median of " +
                 kilobytes(median_size) +
                 " — an oversized (static-scene GOP) segment outlasted the "
                 "buffer";
    } else if (pool_at_stall >= 0 && pool_at_stall <= 1) {
      ex.category = "pool_collapsed";
      ex.cause = "download pool collapsed to " +
                 std::to_string(pool_at_stall) +
                 " (Eq. 1: B*T < W), serializing behind " + seg + " (" +
                 kilobytes(segment_bytes) + ")";
    } else {
      ex.category = "bandwidth_shortfall";
      const Duration transfer = received != nullptr
                                    ? received->elapsed()
                                    : ex.end - first_request;
      ex.cause = "bandwidth shortfall: " + seg + " (" +
                 kilobytes(segment_bytes) + ") took " + seconds(transfer) +
                 " s to arrive";
    }

    // Critical path: the child phase with the largest elapsed time on the
    // last fetch of the blocking segment. Playout hangs off the same root
    // but happens after delivery, so it is never why delivery was late.
    const Span* best = nullptr;
    if (last_root != nullptr) {
      for (const Span* s : chain) {
        if (s->parent != last_root->id || s->kind == SpanKind::kPlayout) {
          continue;
        }
        if (best == nullptr || s->elapsed() > best->elapsed()) best = s;
      }
    }
    if (best != nullptr) {
      ex.critical_phase = span_kind_name(best->kind);
      ex.cause += "; critical path: " + ex.critical_phase;
    }

    // The anomalies on this viewer, or swarm-wide, overlapping the stall.
    std::vector<std::size_t> candidates;
    if (const auto it = viewers.find(ex.node); it != viewers.end()) {
      std::merge(it->second.anomalies.begin(), it->second.anomalies.end(),
                 swarm_wide.begin(), swarm_wide.end(),
                 std::back_inserter(candidates));
    } else {
      candidates = swarm_wide;
    }
    for (const std::size_t i : candidates) {
      const Anomaly& a = anomalies[i];
      const bool begins_before_stall_ends =
          ex.end.is_infinite() || !(a.onset > ex.end);
      const bool ends_after_stall_begins = !(a.end < ex.start);
      if (begins_before_stall_ends && ends_after_stall_begins) {
        ex.anomalies.push_back(i);
      }
    }
    out.push_back(std::move(ex));
  }
  return out;
}

std::string summarize_timeline(const std::vector<Span>& spans) {
  struct SessionInfo {
    bool joined = false;
    TimePoint join_time;
    bool started = false;
    TimePoint start_time;
    Duration startup = Duration::zero();
    bool finished = false;
    TimePoint finish_time;
    Duration completion = Duration::zero();
    bool left = false;
    TimePoint left_time;
  };
  std::map<std::int64_t, SessionInfo> sessions;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kAnnounce) {
      SessionInfo& session = sessions[s.node];
      session.joined = true;
      session.join_time = s.t_start;
    } else if (s.kind == SpanKind::kPlayback) {
      SessionInfo& session = sessions[s.node];
      session.started = true;
      session.start_time = s.t_start;
      session.startup = Duration::micros(s.attr);
      if (!s.open()) {
        session.finished = true;
        session.finish_time = s.t_end;
        session.completion = (s.t_end - s.t_start) + session.startup;
      }
    } else if (s.kind == SpanKind::kLeave) {
      SessionInfo& session = sessions[s.node];
      session.left = true;
      session.left_time = s.t_start;
    }
  }

  const std::vector<StallExplanation> stalls = explain_stalls(spans);
  std::unordered_map<std::int64_t, std::vector<const StallExplanation*>>
      stalls_by_node;
  for (const StallExplanation& ex : stalls) {
    stalls_by_node[ex.node].push_back(&ex);
  }

  std::ostringstream out;
  out << "=== session timeline: " << sessions.size() << " viewers, "
      << stalls.size() << " stalls, " << spans.size() << " spans ===\n";
  for (const auto& [node, s] : sessions) {
    out << node_name(node) << ":";
    if (s.joined) out << " joined " << seconds(s.join_time) << "s;";
    if (s.started) {
      out << " started " << seconds(s.start_time) << "s (startup "
          << seconds(s.startup) << "s);";
    }
    if (s.finished) {
      out << " finished " << seconds(s.finish_time) << "s (session "
          << seconds(s.completion) << "s);";
    }
    if (s.left) out << " left " << seconds(s.left_time) << "s;";
    if (!s.joined && !s.started) out << " (no session events);";
    out << "\n";
    const auto own = stalls_by_node.find(node);
    if (own == stalls_by_node.end()) continue;
    std::size_t n = 0;
    for (const StallExplanation* ex : own->second) {
      out << "  stall #" << ++n << " at " << seconds(ex->start) << "s";
      if (ex->end.is_infinite()) {
        out << " (unresolved)";
      } else {
        out << " for " << seconds(ex->duration) << "s";
      }
      out << " waiting on segment " << ex->segment << ": " << ex->cause
          << "\n";
    }
  }

  std::map<std::string, std::size_t> tally;
  for (const StallExplanation& ex : stalls) ++tally[ex.category];
  out << "=== stall causes ===\n";
  if (tally.empty()) out << "  (no stalls)\n";
  for (const auto& [category, count] : tally) {
    out << "  " << category << ": " << count << "\n";
  }
  return out.str();
}

// --------------------------------------------------------------- metrics

std::string metrics_csv(const MetricsRegistry& registry) {
  return registry.to_csv();
}

// ---------------------------------------------------------- Observability

Observability::Observability(ObsOptions options)
    : options_{std::move(options)}, scope_{&registry_} {
  if (!options_.trace_path.empty()) {
    trace_file_.open(options_.trace_path, std::ios::trunc);
    require(trace_file_.is_open(),
            "cannot open trace file '" + options_.trace_path + "'");
  }
  if (options_.profile) {
    profiler_ = std::make_unique<Profiler>();
    profiler_scope_ = std::make_unique<ScopedProfiler>(profiler_.get());
  }
  if (options_.spans || !options_.trace_path.empty()) {
    spans_ = std::make_unique<SpanRecorder>();
    span_scope_ = std::make_unique<ScopedSpanRecorder>(spans_.get());
  }
}

Observability::~Observability() {
  if (!options_.metrics_csv_path.empty()) {
    write_metrics_csv(options_.metrics_csv_path);
  }
}

std::string Observability::timeline() const {
  return summarize_timeline(spans());
}

void Observability::finish(TimePoint end) {
  if (spans_ == nullptr) return;
  spans_->finish(end);
  if (!trace_file_.is_open()) return;
  for (const Span& span : spans_->spans()) {
    trace_file_ << span_to_jsonl(span) << '\n';
  }
  trace_file_.close();
}

void Observability::write_metrics_csv(const std::string& path) const {
  std::ofstream out{path, std::ios::trunc};
  require(out.is_open(), "cannot open metrics CSV '" + path + "'");
  out << registry_.to_csv();
}

}  // namespace vsplice::obs
