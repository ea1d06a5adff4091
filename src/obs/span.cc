#include "obs/span.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "obs/json.h"

namespace vsplice::obs {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kAnnounce:
      return "announce";
    case SpanKind::kSegment:
      return "segment";
    case SpanKind::kRequestDecision:
      return "request_decision";
    case SpanKind::kChokeWait:
      return "choke_wait";
    case SpanKind::kRequestSend:
      return "request_send";
    case SpanKind::kServerQueue:
      return "server_queue";
    case SpanKind::kPieceTransfer:
      return "piece_transfer";
    case SpanKind::kVerify:
      return "verify";
    case SpanKind::kBufferInsert:
      return "buffer_insert";
    case SpanKind::kPlayout:
      return "playout";
    case SpanKind::kStall:
      return "stall";
    case SpanKind::kPool:
      return "pool";
    case SpanKind::kLeave:
      return "leave";
    case SpanKind::kPlayback:
      return "playback";
  }
  return "unknown";
}

bool span_kind_from_name(const std::string& name, SpanKind& out) {
  for (std::size_t k = 0; k < kSpanKindCount; ++k) {
    const auto kind = static_cast<SpanKind>(k);
    if (name == span_kind_name(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------- SpanRecorder

std::uint64_t SpanRecorder::open(SpanKind kind, TimePoint start,
                                 std::uint64_t parent, std::int64_t node,
                                 std::int64_t segment, std::int64_t attr) {
  Span s;
  s.id = static_cast<std::uint64_t>(spans_.size()) + 1;
  s.parent = parent;
  s.kind = kind;
  s.node = node;
  s.segment = segment;
  s.t_start = start;
  s.t_end = start;
  s.attr = attr;
  s.flags = kSpanOpen;
  spans_.push_back(s);
  return s.id;
}

void SpanRecorder::close(std::uint64_t id, TimePoint end) {
  if (id == 0 || id > spans_.size()) return;
  Span& s = spans_[id - 1];
  s.t_end = end;
  s.flags &= ~kSpanOpen;
}

void SpanRecorder::close_aborted(std::uint64_t id, TimePoint end) {
  if (id == 0 || id > spans_.size()) return;
  Span& s = spans_[id - 1];
  s.t_end = end;
  s.flags &= ~kSpanOpen;
  s.flags |= kSpanAborted;
}

std::uint64_t SpanRecorder::instant(SpanKind kind, TimePoint at,
                                    std::uint64_t parent, std::int64_t node,
                                    std::int64_t segment, std::int64_t attr) {
  const std::uint64_t id = open(kind, at, parent, node, segment, attr);
  close(id, at);
  return id;
}

void SpanRecorder::set_attr(std::uint64_t id, std::int64_t attr) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].attr = attr;
}

void SpanRecorder::finish(TimePoint end) {
  for (Span& s : spans_) {
    if (s.open()) s.t_end = end;  // keep kSpanOpen: phase was truncated
  }
}

void SpanRecorder::clear() { spans_.clear(); }

// ------------------------------------------------------------- waterfall

namespace {

/// Nearest-rank percentile of an ascending-sorted vector (q in [0,1]).
double percentile_us(const std::vector<std::int64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  std::size_t index = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (index >= sorted.size()) index = sorted.size() - 1;
  return static_cast<double>(sorted[index]);
}

}  // namespace

std::vector<PhaseStats> segment_waterfall(const std::vector<Span>& spans) {
  std::vector<std::vector<std::int64_t>> by_kind(kDeliveryPhaseCount);
  for (const Span& s : spans) {
    const auto kind = static_cast<std::size_t>(s.kind);
    if (kind >= kDeliveryPhaseCount || s.open() || s.aborted()) continue;
    by_kind[kind].push_back(s.elapsed().count_micros());
  }
  std::vector<PhaseStats> out;
  for (std::size_t k = 0; k < kDeliveryPhaseCount; ++k) {
    std::vector<std::int64_t>& durations = by_kind[k];
    if (durations.empty()) continue;
    std::sort(durations.begin(), durations.end());
    PhaseStats row;
    row.phase = span_kind_name(static_cast<SpanKind>(k));
    row.count = durations.size();
    row.p50_s = percentile_us(durations, 0.50) * 1e-6;
    row.p95_s = percentile_us(durations, 0.95) * 1e-6;
    row.p99_s = percentile_us(durations, 0.99) * 1e-6;
    std::int64_t total_us = 0;
    for (const std::int64_t d : durations) total_us += d;
    row.total_s = static_cast<double>(total_us) * 1e-6;
    out.push_back(std::move(row));
  }
  return out;
}

std::string waterfall_to_text(const std::vector<PhaseStats>& waterfall) {
  std::size_t name_width = std::strlen("phase");
  for (const PhaseStats& row : waterfall) {
    name_width = std::max(name_width, row.phase.size());
  }
  auto cell = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%11.3f", v);
    return std::string(buf);
  };
  std::string text = "phase";
  text.append(name_width - std::strlen("phase"), ' ');
  text += "      count      p50(s)      p95(s)      p99(s)    total(s)\n";
  for (const PhaseStats& row : waterfall) {
    text += row.phase;
    text.append(name_width - row.phase.size(), ' ');
    char count_buf[32];
    std::snprintf(count_buf, sizeof count_buf, "%11llu",
                  static_cast<unsigned long long>(row.count));
    text += count_buf;
    for (const double v : {row.p50_s, row.p95_s, row.p99_s, row.total_s}) {
      text += ' ';
      text += cell(v);
    }
    text += '\n';
  }
  return text;
}

// -------------------------------------------------------- Chrome export

namespace {

/// One trace event before serialization; sorted per track so every
/// (pid, tid) lane has monotone non-decreasing ts.
struct ChromeEvent {
  int pid = 1;
  std::int64_t tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::string name;
  const char* cat = "span";
  // args (span events only; profiler events leave id == 0)
  std::uint64_t span_id = 0;
  std::uint64_t parent = 0;
  std::int64_t segment = -1;
  std::int64_t attr = 0;
  bool aborted = false;
  bool truncated = false;
};

/// Number with the repo-wide non-finite -> null hardening. Integral
/// values print without a decimal point so span timestamps (integer
/// microseconds of sim time) stay exact.
std::string fmt_number(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

void append_event(std::string& out, const ChromeEvent& e, bool first) {
  if (!first) out += ",\n";
  out += "{\"name\":" + json_escape(e.name) + ",\"cat\":\"";
  out += e.cat;
  out += "\",\"ph\":\"X\",\"pid\":" + std::to_string(e.pid) +
         ",\"tid\":" + std::to_string(e.tid) + ",\"ts\":" +
         fmt_number(e.ts_us) + ",\"dur\":" + fmt_number(e.dur_us);
  if (e.span_id != 0) {
    out += ",\"args\":{\"span\":" + std::to_string(e.span_id) +
           ",\"parent\":" + std::to_string(e.parent) +
           ",\"segment\":" + std::to_string(e.segment) +
           ",\"attr\":" + std::to_string(e.attr) +
           ",\"aborted\":" + (e.aborted ? std::string("1") : "0") +
           ",\"truncated\":" + (e.truncated ? std::string("1") : "0") + "}";
  }
  out += "}";
}

void append_metadata(std::string& out, int pid, std::int64_t tid,
                     const char* key, const std::string& value, bool first) {
  if (!first) out += ",\n";
  out += "{\"name\":\"";
  out += key;
  out += "\",\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(tid) + ",\"args\":{\"name\":" +
         json_escape(value) + "}}";
}

}  // namespace

std::string render_chrome_trace(const std::vector<Span>& spans,
                                const ProfileSnapshot* profile) {
  std::vector<ChromeEvent> events;
  events.reserve(spans.size() +
                 (profile != nullptr ? profile->entries.size() : 0));

  // Span track: pid 1, one lane per node (tid = node + 1 so the rare
  // node == -1 span lands on lane 0).
  for (const Span& s : spans) {
    ChromeEvent e;
    e.pid = 1;
    e.tid = s.node + 1;
    e.ts_us = static_cast<double>(s.t_start.count_micros());
    e.dur_us = static_cast<double>((s.t_end - s.t_start).count_micros());
    e.name = span_kind_name(s.kind);
    if (s.segment >= 0) e.name += " #" + std::to_string(s.segment);
    e.cat = "span";
    e.span_id = s.id;
    e.parent = s.parent;
    e.segment = s.segment;
    e.attr = s.attr;
    e.aborted = s.aborted();
    e.truncated = s.open();
    events.push_back(std::move(e));
  }

  // Profiler track: pid 2, tid 0, DFS entries packed into a synthetic
  // flame chart — each entry starts where the parent's previously
  // emitted children end, so widths are the measured totals.
  if (profile != nullptr && !profile->empty()) {
    std::vector<double> cursor_ns(1, 0.0);
    for (const ProfileEntry& entry : profile->entries) {
      if (entry.depth + 1 > cursor_ns.size()) {
        cursor_ns.resize(entry.depth + 1, 0.0);
      }
      const double start_ns = cursor_ns[entry.depth];
      cursor_ns[entry.depth] = start_ns + static_cast<double>(entry.total_ns);
      if (entry.depth + 2 > cursor_ns.size()) {
        cursor_ns.resize(entry.depth + 2, 0.0);
      }
      cursor_ns[entry.depth + 1] = start_ns;
      ChromeEvent e;
      e.pid = 2;
      e.tid = 0;
      e.ts_us = start_ns / 1000.0;
      e.dur_us = static_cast<double>(entry.total_ns) / 1000.0;
      e.name = entry.name;
      e.cat = "profile";
      events.push_back(std::move(e));
    }
  }

  // Monotone ts per (pid, tid) lane by construction: retroactive spans
  // (playout) and measurement noise in the flame layout would otherwise
  // break array order.
  std::stable_sort(events.begin(), events.end(),
                   [](const ChromeEvent& a, const ChromeEvent& b) {
                     if (a.pid != b.pid) return a.pid < b.pid;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.ts_us < b.ts_us;
                   });

  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  append_metadata(out, 1, 0, "process_name", "segment spans", first);
  first = false;
  if (profile != nullptr && !profile->empty()) {
    append_metadata(out, 2, 0, "process_name", "hot-path profile", first);
  }
  std::int64_t named_tid = -1;
  for (const ChromeEvent& e : events) {
    if (e.pid == 1 && e.tid != named_tid) {
      named_tid = e.tid;
      append_metadata(out, 1, e.tid, "thread_name",
                      "node " + std::to_string(e.tid - 1), first);
    }
  }
  for (const ChromeEvent& e : events) {
    append_event(out, e, first);
    first = false;
  }
  out += "\n]}\n";
  return out;
}

// ----------------------------------------------------------- validation

namespace {

bool set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

bool validate_chrome_trace(const std::string& json, std::string* error) {
  JsonValue root;
  std::string parse_error;
  if (!parse_json(json, root, parse_error)) {
    return set_error(error, "not valid JSON: " + parse_error);
  }
  if (root.type != JsonValue::Type::Object) {
    return set_error(error, "top level is not an object");
  }
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || events->type != JsonValue::Type::Array) {
    return set_error(error, "missing traceEvents array");
  }

  // Pass 1: shape of every event + collect recorded span ids.
  std::vector<std::uint64_t> span_ids;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    const std::string at = "event " + std::to_string(i);
    if (e.type != JsonValue::Type::Object) {
      return set_error(error, at + " is not an object");
    }
    const JsonValue* ph = e.find("ph");
    if (ph == nullptr || ph->type != JsonValue::Type::String) {
      return set_error(error, at + " has no ph");
    }
    if (ph->string == "M") continue;  // metadata carries no timestamp
    if (ph->string != "X") {
      return set_error(error, at + " has unexpected ph '" + ph->string + "'");
    }
    for (const char* key : {"pid", "tid", "ts", "dur"}) {
      const JsonValue* v = e.find(key);
      if (v == nullptr || v->type != JsonValue::Type::Number) {
        return set_error(error,
                         at + " lacks numeric '" + std::string(key) + "'");
      }
    }
    const JsonValue* name = e.find("name");
    if (name == nullptr || name->type != JsonValue::Type::String) {
      return set_error(error, at + " has no name");
    }
    const JsonValue* dur = e.find("dur");
    if (dur->type == JsonValue::Type::Number && dur->number < 0.0) {
      return set_error(error, at + " has negative dur");
    }
    const JsonValue* cat = e.find("cat");
    if (cat != nullptr && cat->string == "span") {
      const JsonValue* args = e.find("args");
      if (args == nullptr || args->type != JsonValue::Type::Object) {
        return set_error(error, at + " (span) has no args");
      }
      const JsonValue* span = args->find("span");
      if (span == nullptr || span->type != JsonValue::Type::Number) {
        return set_error(error, at + " (span) has no args.span id");
      }
      span_ids.push_back(static_cast<std::uint64_t>(span->number));
    }
  }

  // Pass 2: monotone ts within each (pid, tid) track.
  std::map<std::pair<std::int64_t, std::int64_t>, double> last_ts;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    const JsonValue* ph = e.find("ph");
    if (ph->string != "X") continue;
    const auto track = std::make_pair(
        static_cast<std::int64_t>(e.find("pid")->number),
        static_cast<std::int64_t>(e.find("tid")->number));
    const double ts = e.find("ts")->number;
    auto [it, inserted] = last_ts.emplace(track, ts);
    if (!inserted) {
      if (ts < it->second) {
        return set_error(
            error, "event " + std::to_string(i) + " breaks monotone ts on " +
                       "track pid=" + std::to_string(track.first) +
                       " tid=" + std::to_string(track.second));
      }
      it->second = ts;
    }
  }

  // Pass 3: every span's parent id resolves to a recorded span.
  std::sort(span_ids.begin(), span_ids.end());
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    const JsonValue* cat = e.find("cat");
    if (cat == nullptr || cat->string != "span") continue;
    const JsonValue* args = e.find("args");
    const JsonValue* parent = args->find("parent");
    if (parent == nullptr || parent->type != JsonValue::Type::Number) {
      return set_error(error,
                       "event " + std::to_string(i) + " has no args.parent");
    }
    const auto parent_id = static_cast<std::uint64_t>(parent->number);
    if (parent_id == 0) continue;  // root span
    if (!std::binary_search(span_ids.begin(), span_ids.end(), parent_id)) {
      return set_error(error, "event " + std::to_string(i) +
                                  " has unresolved parent span id " +
                                  std::to_string(parent_id));
    }
  }
  return true;
}

}  // namespace vsplice::obs
