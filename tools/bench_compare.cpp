// bench_compare: perf-regression gate over BENCH_*.json files.
//
// Diffs a current bench output against a committed baseline, metric by
// metric, with per-kind tolerances:
//   - checks.* booleans: true -> false is a regression (false -> true is
//     an improvement, reported but passing);
//   - timing metrics (wall seconds, *_ns, *_seconds): lower is better;
//     regression when current > baseline * time-tolerance. The factor
//     defaults to 4x because CI runners are far noisier and slower than
//     the machines that produce baselines — this gate catches order-of-
//     magnitude slips (a reverted optimization), not 10% jitter;
//   - throughput metrics (*_mops_per_sec, *speedup*, *_per_sec): higher
//     is better; regression when current < baseline / time-tolerance;
//   - bytes_per_peer / *_bytes: lower is better, 1.5x factor — memory
//     accounting is deterministic, so growth is a real code change;
//   - everything else (decision counts, stall figures, table cells):
//     deterministic simulation output, compared with a small relative
//     tolerance (default 1e-9, effectively exact);
//   - a metric present in the baseline but missing from the current run
//     is a regression (a silently dropped check is the worst kind),
//     unless it is machine-shaped (a jobs count), which is only a note;
//     new metrics are listed as notes. Added and removed keys also get
//     their own sections in the markdown table so a renamed metric is
//     impossible to miss.
//
//   bench_compare BASELINE.json CURRENT.json [options]
//     --time-tolerance X   factor for timing/throughput metrics (4.0)
//     --memory-tolerance X factor for byte metrics (1.5)
//     --tolerance X        relative tolerance for exact metrics (1e-9)
//     --table OUT.md       also write the comparison as a markdown table
//     --self-test          run the built-in unit tests and exit
//
// Exit codes: 0 = no regression, 1 = regression, 2 = usage/parse error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace {

// ------------------------------------------------------------ JSON value

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  // monostate = null.
  std::variant<std::monostate, bool, double, std::string, JsonArray,
               JsonObject>
      v;
};

// ----------------------------------------------------------- JSON parser
//
// Minimal recursive-descent parser for the machine-written subset the
// bench files use (no surrogate-pair unescaping; \uXXXX below 0x80 only,
// which is all json_escape emits). Returns false on malformed input.

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_{std::move(text)} {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    return pos_ == text_.size();  // trailing junk is a parse error
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return parse_object(out);
      case '[':
        return parse_array(out);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out.v = std::move(s);
        return true;
      }
      case 't':
        out.v = true;
        return literal("true");
      case 'f':
        out.v = false;
        return literal("false");
      case 'n':
        out.v = std::monostate{};
        return literal("null");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out) {
    ++pos_;  // '{'
    JsonObject object;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      out.v = std::move(object);
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      object.emplace(std::move(key), std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        out.v = std::move(object);
        return true;
      }
      return false;
    }
  }

  bool parse_array(JsonValue& out) {
    ++pos_;  // '['
    JsonArray array;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      out.v = std::move(array);
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      array.push_back(std::move(value));
      skip_ws();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        out.v = std::move(array);
        return true;
      }
      return false;
    }
  }

  bool parse_string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return false;
          }
          if (code >= 0x80) return false;  // bench files are pure ASCII
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool parse_number(JsonValue& out) {
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) return false;
    pos_ += static_cast<std::size_t>(end - begin);
    out.v = value;
    return true;
  }

  const std::string text_;
  std::size_t pos_ = 0;
};

// -------------------------------------------------------------- flatten

/// One comparable leaf: a bool, a number, or a null (skipped metric).
struct Leaf {
  enum class Kind { Bool, Number, Null } kind = Kind::Null;
  bool b = false;
  double number = 0;
};

/// Flattens nested objects/arrays into "checks.qoe_shape",
/// "values.alloc_star_ns", "tables.stalls.series.4 sec[2]" paths.
/// Strings (the "bench" name) are skipped — they are identity, not
/// metrics.
void flatten(const JsonValue& value, const std::string& path,
             std::map<std::string, Leaf>& out) {
  if (const auto* object = std::get_if<JsonObject>(&value.v)) {
    for (const auto& [key, child] : *object) {
      flatten(child, path.empty() ? key : path + "." + key, out);
    }
  } else if (const auto* array = std::get_if<JsonArray>(&value.v)) {
    for (std::size_t i = 0; i < array->size(); ++i) {
      flatten((*array)[i], path + "[" + std::to_string(i) + "]", out);
    }
  } else if (const auto* b = std::get_if<bool>(&value.v)) {
    out[path] = Leaf{Leaf::Kind::Bool, *b, 0};
  } else if (const auto* number = std::get_if<double>(&value.v)) {
    out[path] = Leaf{Leaf::Kind::Number, false, *number};
  } else if (std::holds_alternative<std::monostate>(value.v)) {
    out[path] = Leaf{Leaf::Kind::Null, false, 0};
  }
  // strings: intentionally dropped
}

// ------------------------------------------------------- classification

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

enum class MetricKind {
  LowerBetterTime,   // wall seconds, ns per call
  HigherBetterRate,  // throughput, speedups
  LowerBetterBytes,  // memory gauges
  Exact,             // deterministic counts and figures
  Environment,       // machine-shaped (worker counts); never compared
};

/// The last '.'-separated component of a flattened path
/// ("values.n100.4s.wall_s" -> "wall_s").
std::string_view last_segment(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  return std::string_view{path}.substr(
      dot == std::string::npos ? 0 : dot + 1);
}

/// One classification rule. Segment rules compare the last path
/// component exactly; Suffix/Substr rules look at the whole path.
struct ClassRule {
  enum class Match { Segment, Suffix, Substr };
  Match match;
  const char* pattern;
  MetricKind kind;
};

/// THE gating table — every classification decision lives here, applied
/// first-match-wins, pinned row by row by the self-test.
///
/// The rules used to be a pile of ad-hoc contains() checks appended as
/// flakes surfaced: a wall-clock key with no recognized suffix fell
/// through to the exact comparator (1e-9 relative on a *measured* time
/// is a guaranteed flake — how codec_ns_per_msg got its "_ns_per"
/// patch), while over-broad substrings cut the other way — a blanket
/// contains("threads") would silently classify a future
/// threads_sweep_wall_s as never-compared Environment. Hence the
/// convention, enforced in one place: wall-clock-derived keys carry a
/// unit suffix (_s/_ns/_us/_ms/_seconds) or a wall_s / _ns_per /
/// elapsed / overhead_ratio marker and gate at the 4x time tolerance;
/// rates carry per_sec / speedup / ops_per and gate at 1/4x; memory
/// gauges end in _bytes (or bytes_per_peer) and gate at 1.5x;
/// machine-shaped keys are matched as exact segments so they cannot
/// swallow anything else; what remains is deterministic output,
/// compared exactly.
constexpr ClassRule kClassification[] = {
    // Machine-shaped keys: worker counts (e2e_jobs = one per hardware
    // thread).
    {ClassRule::Match::Segment, "e2e_jobs", MetricKind::Environment},
    {ClassRule::Match::Segment, "jobs", MetricKind::Environment},
    // Simulated-time figures (mean_startup_s, stall seconds) look like
    // timing metrics but are deterministic simulation output — compare
    // them exactly, before the unit-suffix rules can claim them.
    {ClassRule::Match::Segment, "mean_startup_s", MetricKind::Exact},
    {ClassRule::Match::Substr, "stall", MetricKind::Exact},
    // Throughput and speedups: before the time suffixes ("mops_per_sec"
    // would otherwise match "_s"-style substrings).
    {ClassRule::Match::Substr, "per_sec", MetricKind::HigherBetterRate},
    {ClassRule::Match::Substr, "speedup", MetricKind::HigherBetterRate},
    {ClassRule::Match::Substr, "ops_per", MetricKind::HigherBetterRate},
    // Wall-clock-derived keys, by unit suffix; wall_s / elapsed /
    // "_ns_per" catch normalized costs whose key does not *end* in a
    // unit (wall_s_per_sim_min, codec_ns_per_msg), and a ratio of two
    // measured times (overhead_ratio) is as noisy as the times
    // themselves.
    {ClassRule::Match::Suffix, "_s", MetricKind::LowerBetterTime},
    {ClassRule::Match::Suffix, "_ns", MetricKind::LowerBetterTime},
    {ClassRule::Match::Suffix, "_us", MetricKind::LowerBetterTime},
    {ClassRule::Match::Suffix, "_ms", MetricKind::LowerBetterTime},
    {ClassRule::Match::Suffix, "_seconds", MetricKind::LowerBetterTime},
    {ClassRule::Match::Substr, "wall_s", MetricKind::LowerBetterTime},
    {ClassRule::Match::Substr, "elapsed", MetricKind::LowerBetterTime},
    {ClassRule::Match::Substr, "_ns_per", MetricKind::LowerBetterTime},
    {ClassRule::Match::Substr, "overhead_ratio",
     MetricKind::LowerBetterTime},
    // Memory gauges.
    {ClassRule::Match::Suffix, "_bytes", MetricKind::LowerBetterBytes},
    {ClassRule::Match::Substr, "bytes_per_peer",
     MetricKind::LowerBetterBytes},
};

MetricKind classify(const std::string& path) {
  const std::string_view segment = last_segment(path);
  for (const ClassRule& rule : kClassification) {
    switch (rule.match) {
      case ClassRule::Match::Segment:
        if (segment == rule.pattern) return rule.kind;
        break;
      case ClassRule::Match::Suffix:
        if (ends_with(path, rule.pattern)) return rule.kind;
        break;
      case ClassRule::Match::Substr:
        if (contains(path, rule.pattern)) return rule.kind;
        break;
    }
  }
  // Deterministic counts and figures (picks, events_fired, ratios of
  // counts): exact. A *measured* key landing here is a classification
  // bug — add its suffix to the table and pin it in the self-test.
  return MetricKind::Exact;
}

// ------------------------------------------------------------ comparison

struct Options {
  double time_tolerance = 4.0;
  double memory_tolerance = 1.5;
  double exact_tolerance = 1e-9;
};

struct Row {
  std::string path;
  std::string baseline;
  std::string current;
  std::string verdict;  // "ok" | "REGRESSION" | "improved" | "note"
  std::string detail;
};

std::string fmt_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string fmt_leaf(const Leaf& leaf) {
  switch (leaf.kind) {
    case Leaf::Kind::Bool: return leaf.b ? "true" : "false";
    case Leaf::Kind::Number: return fmt_number(leaf.number);
    case Leaf::Kind::Null: return "null";
  }
  return "?";
}

/// Compares flattened metric maps; returns rows (regressions included)
/// sorted by path. Regression count lands in `regressions`.
std::vector<Row> compare(const std::map<std::string, Leaf>& baseline,
                         const std::map<std::string, Leaf>& current,
                         const Options& options, int& regressions) {
  std::vector<Row> rows;
  regressions = 0;
  const auto push = [&](const std::string& path, const std::string& base,
                        const std::string& cur, const char* verdict,
                        std::string detail) {
    if (std::strcmp(verdict, "REGRESSION") == 0) ++regressions;
    rows.push_back(Row{path, base, cur, verdict, std::move(detail)});
  };

  for (const auto& [path, base] : baseline) {
    const auto it = current.find(path);
    if (it == current.end()) {
      // A dropped machine-shaped key (different worker count) is noise;
      // a dropped deterministic/timing/check key is a silently lost
      // guarantee and must fail the gate.
      if (classify(path) == MetricKind::Environment) {
        push(path, fmt_leaf(base), "missing", "note",
             "machine-dependent metric removed; not compared");
      } else {
        push(path, fmt_leaf(base), "missing", "REGRESSION",
             "metric disappeared from the current run");
      }
      continue;
    }
    const Leaf& cur = it->second;
    if (base.kind == Leaf::Kind::Null || cur.kind == Leaf::Kind::Null) {
      push(path, fmt_leaf(base), fmt_leaf(cur), "note",
           "non-finite value; not compared");
      continue;
    }
    if (base.kind == Leaf::Kind::Bool || cur.kind == Leaf::Kind::Bool) {
      if (base.kind != cur.kind) {
        push(path, fmt_leaf(base), fmt_leaf(cur), "REGRESSION",
             "metric changed type");
      } else if (base.b && !cur.b) {
        push(path, "true", "false", "REGRESSION", "check now fails");
      } else if (!base.b && cur.b) {
        push(path, "false", "true", "improved", "check now passes");
      } else {
        push(path, fmt_leaf(base), fmt_leaf(cur), "ok", "");
      }
      continue;
    }

    const double b = base.number;
    const double c = cur.number;
    char detail[120];
    switch (classify(path)) {
      case MetricKind::LowerBetterTime: {
        const bool bad = b > 0 && c > b * options.time_tolerance;
        std::snprintf(detail, sizeof detail, "%.2fx baseline (limit %.1fx)",
                      b > 0 ? c / b : 0.0, options.time_tolerance);
        push(path, fmt_number(b), fmt_number(c),
             bad ? "REGRESSION" : "ok", bad ? detail : "");
        break;
      }
      case MetricKind::HigherBetterRate: {
        const bool bad = b > 0 && c < b / options.time_tolerance;
        std::snprintf(detail, sizeof detail,
                      "%.2fx baseline (limit 1/%.1fx)", b > 0 ? c / b : 0.0,
                      options.time_tolerance);
        push(path, fmt_number(b), fmt_number(c),
             bad ? "REGRESSION" : "ok", bad ? detail : "");
        break;
      }
      case MetricKind::LowerBetterBytes: {
        const bool bad = b > 0 && c > b * options.memory_tolerance;
        std::snprintf(detail, sizeof detail, "%.2fx baseline (limit %.1fx)",
                      b > 0 ? c / b : 0.0, options.memory_tolerance);
        push(path, fmt_number(b), fmt_number(c),
             bad ? "REGRESSION" : "ok", bad ? detail : "");
        break;
      }
      case MetricKind::Exact: {
        const double scale = std::max({1.0, std::fabs(b), std::fabs(c)});
        const bool bad = std::fabs(c - b) > options.exact_tolerance * scale;
        std::snprintf(detail, sizeof detail,
                      "deterministic metric drifted by %g", c - b);
        push(path, fmt_number(b), fmt_number(c),
             bad ? "REGRESSION" : "ok", bad ? detail : "");
        break;
      }
      case MetricKind::Environment:
        push(path, fmt_number(b), fmt_number(c), "note",
             "machine-dependent; not compared");
        break;
    }
  }
  for (const auto& [path, cur] : current) {
    if (baseline.find(path) == baseline.end()) {
      push(path, "missing", fmt_leaf(cur), "note",
           "new metric (not in baseline)");
    }
  }
  return rows;
}

// --------------------------------------------------------------- output

std::string markdown_table(const std::string& baseline_path,
                           const std::string& current_path,
                           const std::vector<Row>& rows, int regressions) {
  std::ostringstream out;
  out << "# bench_compare\n\n"
      << "- baseline: `" << baseline_path << "`\n"
      << "- current: `" << current_path << "`\n"
      << "- regressions: **" << regressions << "**\n\n";

  // Key-set drift in its own section: a renamed or dropped metric hides
  // easily in a long comparison table, never in a short list.
  std::vector<const Row*> added;
  std::vector<const Row*> removed;
  for (const Row& row : rows) {
    if (row.baseline == "missing") added.push_back(&row);
    if (row.current == "missing") removed.push_back(&row);
  }
  out << "## Removed keys\n\n";
  if (removed.empty()) {
    out << "(none)\n\n";
  } else {
    for (const Row* row : removed) {
      out << "- `" << row->path << "` (was " << row->baseline << ") — "
          << row->verdict << ": " << row->detail << "\n";
    }
    out << "\n";
  }
  out << "## Added keys\n\n";
  if (added.empty()) {
    out << "(none)\n\n";
  } else {
    for (const Row* row : added) {
      out << "- `" << row->path << "` = " << row->current << "\n";
    }
    out << "\n";
  }

  out << "## Comparison\n\n"
      << "| metric | baseline | current | verdict | detail |\n"
      << "|---|---|---|---|---|\n";
  for (const Row& row : rows) {
    // Regressions and notes always; passing rows too (the table is the
    // auditable artifact, and bench files are small).
    out << "| " << row.path << " | " << row.baseline << " | "
        << row.current << " | " << row.verdict << " | " << row.detail
        << " |\n";
  }
  return out.str();
}

bool load_json(const std::string& path, JsonValue& out,
               std::string& error) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  JsonParser parser{text};
  if (!parser.parse(out)) {
    error = "malformed JSON in " + path;
    return false;
  }
  return true;
}

// -------------------------------------------------------------- self-test

#define EXPECT(cond)                                                      \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "self-test FAILED at %s:%d: %s\n", __FILE__,   \
                   __LINE__, #cond);                                      \
      return 1;                                                           \
    }                                                                     \
  } while (0)

int self_test() {
  // Parser round-trips the bench subset, including escapes and null.
  {
    JsonValue v;
    JsonParser p{R"({"a":1.5,"b":[true,null,-2e3],"c":{"d":"x\nA"}})"};
    EXPECT(p.parse(v));
    std::map<std::string, Leaf> flat;
    flatten(v, "", flat);
    EXPECT(flat.at("a").number == 1.5);
    EXPECT(flat.at("b[0]").b == true);
    EXPECT(flat.at("b[1]").kind == Leaf::Kind::Null);
    EXPECT(flat.at("b[2]").number == -2000.0);
    EXPECT(flat.find("c.d") == flat.end());  // strings dropped
  }
  {
    JsonValue v;
    JsonParser bad{R"({"a":)"};
    EXPECT(!bad.parse(v));
    JsonParser trailing{R"({} junk)"};
    EXPECT(!trailing.parse(v));
  }

  // The classification table, pinned: one row per key family the bench
  // binaries emit (plus structural edge cases), so any table edit shows
  // up here as an explicit, reviewable diff.
  struct Pin {
    const char* path;
    MetricKind kind;
  };
  static constexpr MetricKind kTime = MetricKind::LowerBetterTime;
  static constexpr MetricKind kRate = MetricKind::HigherBetterRate;
  static constexpr MetricKind kBytes = MetricKind::LowerBetterBytes;
  static constexpr MetricKind kExact = MetricKind::Exact;
  static constexpr MetricKind kEnv = MetricKind::Environment;
  static constexpr Pin kPins[] = {
      // machine-shaped: never compared, removal is only a note
      {"values.e2e_jobs", kEnv},
      {"values.n10000.4s.jobs", kEnv},
      // wall-clock measurements: gate at the 4x time tolerance
      {"values.alloc_star_ns", kTime},
      {"values.alloc_generic_ns", kTime},
      {"values.event_loop_seconds", kTime},
      {"values.e2e_serial_seconds", kTime},
      {"values.e2e_parallel_seconds", kTime},
      {"values.n500.4s.wall_s", kTime},
      {"values.n500.4s.sched_wall_s", kTime},
      {"values.n500.4s.wall_s_per_sim_min", kTime},
      {"values.frontier.n50000.wall_s", kTime},
      {"values.frontier.n100000.wall_s", kTime},
      {"values.oracle.n500.wall_s", kTime},
      {"values.incremental.n500.sched_wall_s", kTime},
      {"values.cache.fresh_s", kTime},
      {"values.cache.cached_s", kTime},
      {"values.fanout.batched_s", kTime},
      {"values.fanout.encode_per_peer_s", kTime},
      {"values.e2e.n500.fast_s", kTime},
      {"values.e2e.n500.roundtrip_s", kTime},
      {"values.micro.codec_ns_per_msg", kTime},
      {"values.micro.fast_ns_per_msg", kTime},
      {"values.profiler_scope_enabled_ns", kTime},
      {"values.profiler_scope_disabled_ns", kTime},
      {"values.span_enabled_ns", kTime},
      {"values.profiler_disabled_overhead_ratio", kTime},
      {"values.span_disabled_overhead_ratio", kTime},
      // rates and speedups: gate at 1/4x
      {"values.event_loop_mops_per_sec", kRate},
      {"values.alloc_speedup", kRate},
      {"values.cache.speedup", kRate},
      {"values.micro.speedup", kRate},
      {"values.fanout.speedup", kRate},
      {"values.e2e.n500.speedup", kRate},
      {"values.e2e_speedup", kRate},
      {"values.speedup.n500.scheduling", kRate},
      {"values.speedup.n500.total", kRate},
      // memory gauges: gate at 1.5x
      {"values.n500.4s.bytes_per_peer", kBytes},
      {"values.n500.4s.memory_total_bytes", kBytes},
      {"values.frontier.n100000.bytes_per_peer", kBytes},
      {"values.frontier.n100000.memory_total_bytes", kBytes},
      // deterministic figures: exact
      {"values.n20.4s.segment_picks", kExact},
      {"values.n20.4s.mean_startup_s", kExact},
      {"tables.stalls.series.4 sec[0]", kExact},
      {"tables.stall_seconds.series.GOP based[1]", kExact},
      {"tables.startup_seconds.series.2 sec[0]", kExact},
      {"values.alloc_flows", kExact},
      {"values.event_loop_ops", kExact},
      {"values.cache.computations", kExact},
      {"values.frontier.n100000.events_fired", kExact},
      {"values.frontier.n100000.heap_compactions", kExact},
      {"values.frontier.n100000.realloc_touched_ratio", kExact},
      {"values.incremental.n500.candidates_scanned", kExact},
      // structural: hypothetical keys must land on the gated side. Under
      // the old contains("threads") rule the first of these would have
      // silently become never-compared Environment.
      {"values.threads_sweep_wall_s", kTime},
      {"values.warmup_elapsed", kTime},
      {"values.decode_us", kTime},
      {"values.frame_ms", kTime},
      // A byte count whose key only contains "bytes" is deterministic
      // output, not a memory gauge: the _bytes rule matches suffixes.
      {"values.bytes_sent", kExact},
  };
  const auto kind_name = [](MetricKind kind) {
    switch (kind) {
      case MetricKind::LowerBetterTime: return "LowerBetterTime";
      case MetricKind::HigherBetterRate: return "HigherBetterRate";
      case MetricKind::LowerBetterBytes: return "LowerBetterBytes";
      case MetricKind::Exact: return "Exact";
      case MetricKind::Environment: return "Environment";
    }
    return "?";
  };
  for (const Pin& pin : kPins) {
    if (classify(pin.path) != pin.kind) {
      std::fprintf(stderr,
                   "self-test FAILED: classify(\"%s\") != %s (got %s)\n",
                   pin.path, kind_name(pin.kind),
                   kind_name(classify(pin.path)));
      return 1;
    }
  }

  // Comparison verdicts.
  const Options options;
  std::map<std::string, Leaf> base;
  std::map<std::string, Leaf> cur;
  base["checks.ok"] = Leaf{Leaf::Kind::Bool, true, 0};
  cur["checks.ok"] = Leaf{Leaf::Kind::Bool, false, 0};
  base["values.a_wall_s"] = Leaf{Leaf::Kind::Number, false, 1.0};
  cur["values.a_wall_s"] = Leaf{Leaf::Kind::Number, false, 3.9};  // < 4x
  base["values.b_wall_s"] = Leaf{Leaf::Kind::Number, false, 1.0};
  cur["values.b_wall_s"] = Leaf{Leaf::Kind::Number, false, 4.1};  // > 4x
  base["values.rate_per_sec"] = Leaf{Leaf::Kind::Number, false, 100.0};
  cur["values.rate_per_sec"] = Leaf{Leaf::Kind::Number, false, 20.0};
  base["values.count"] = Leaf{Leaf::Kind::Number, false, 42.0};
  cur["values.count"] = Leaf{Leaf::Kind::Number, false, 43.0};
  base["values.gone_wall_s"] = Leaf{Leaf::Kind::Number, false, 1.0};
  base["values.gone_count"] = Leaf{Leaf::Kind::Number, false, 11.0};
  base["values.gone.jobs"] = Leaf{Leaf::Kind::Number, false, 8.0};
  base["values.skipped_s"] = Leaf{Leaf::Kind::Null, false, 0};
  cur["values.skipped_s"] = Leaf{Leaf::Kind::Number, false, 9.0};
  cur["values.brand_new"] = Leaf{Leaf::Kind::Number, false, 7.0};

  int regressions = 0;
  const std::vector<Row> rows = compare(base, cur, options, regressions);
  // check flipped, b_wall_s over limit, rate collapsed, count drifted,
  // gone_wall_s + gone_count (deterministic key removed) = 6
  // regressions; a_wall_s ok; gone.jobs (machine-shaped removal),
  // skipped_s, and brand_new are notes.
  EXPECT(regressions == 6);
  int notes = 0;
  int oks = 0;
  for (const Row& row : rows) {
    if (row.verdict == "note") ++notes;
    if (row.verdict == "ok") ++oks;
    if (row.path == "values.a_wall_s") EXPECT(row.verdict == "ok");
    if (row.path == "values.b_wall_s") EXPECT(row.verdict == "REGRESSION");
    if (row.path == "values.gone_wall_s")
      EXPECT(row.verdict == "REGRESSION");
    if (row.path == "values.gone_count")
      EXPECT(row.verdict == "REGRESSION");
    if (row.path == "values.gone.jobs") EXPECT(row.verdict == "note");
  }
  EXPECT(notes == 3);
  EXPECT(oks == 1);

  // The markdown table surfaces key-set drift in dedicated sections.
  const std::string table = markdown_table("base.json", "cur.json", rows,
                                           regressions);
  EXPECT(table.find("## Removed keys") != std::string::npos);
  EXPECT(table.find("## Added keys") != std::string::npos);
  EXPECT(table.find("- `values.gone_wall_s` (was 1)") != std::string::npos);
  EXPECT(table.find("- `values.gone.jobs` (was 8) — note") !=
         std::string::npos);
  EXPECT(table.find("- `values.brand_new` = 7") != std::string::npos);

  // No key drift renders explicit "(none)" markers.
  int none_regressions = 0;
  const std::vector<Row> same =
      compare(base, base, options, none_regressions);
  const std::string same_table =
      markdown_table("base.json", "base.json", same, none_regressions);
  EXPECT(same_table.find("## Removed keys\n\n(none)") != std::string::npos);
  EXPECT(same_table.find("## Added keys\n\n(none)") != std::string::npos);

  // Identical inputs never regress (the baseline-refresh invariant).
  int self_regressions = 0;
  compare(base, base, options, self_regressions);
  EXPECT(self_regressions == 0);

  std::printf("bench_compare self-test: all passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string table_path;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (arg == "--time-tolerance" && i + 1 < argc) {
      options.time_tolerance = std::strtod(argv[++i], nullptr);
      if (options.time_tolerance < 1.0) {
        std::fprintf(stderr, "bad --time-tolerance (need >= 1)\n");
        return 2;
      }
    } else if (arg == "--memory-tolerance" && i + 1 < argc) {
      options.memory_tolerance = std::strtod(argv[++i], nullptr);
      if (options.memory_tolerance < 1.0) {
        std::fprintf(stderr, "bad --memory-tolerance (need >= 1)\n");
        return 2;
      }
    } else if (arg == "--tolerance" && i + 1 < argc) {
      options.exact_tolerance = std::strtod(argv[++i], nullptr);
      if (options.exact_tolerance < 0.0) {
        std::fprintf(stderr, "bad --tolerance (need >= 0)\n");
        return 2;
      }
    } else if (arg == "--table" && i + 1 < argc) {
      table_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_compare BASELINE.json CURRENT.json "
                 "[--time-tolerance X] [--memory-tolerance X]\n"
                 "       [--tolerance X] [--table OUT.md] [--self-test]\n");
    return 2;
  }

  JsonValue baseline_json;
  JsonValue current_json;
  std::string error;
  if (!load_json(positional[0], baseline_json, error) ||
      !load_json(positional[1], current_json, error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  std::map<std::string, Leaf> baseline;
  std::map<std::string, Leaf> current;
  flatten(baseline_json, "", baseline);
  flatten(current_json, "", current);

  int regressions = 0;
  const std::vector<Row> rows =
      compare(baseline, current, options, regressions);

  std::printf("%-52s %14s %14s  %s\n", "metric", "baseline", "current",
              "verdict");
  for (const Row& row : rows) {
    if (row.verdict == "ok") continue;  // stdout shows the interesting rows
    std::printf("%-52s %14s %14s  %s%s%s\n", row.path.c_str(),
                row.baseline.c_str(), row.current.c_str(),
                row.verdict.c_str(), row.detail.empty() ? "" : " - ",
                row.detail.c_str());
  }
  std::printf("%zu metrics compared, %d regression%s\n", rows.size(),
              regressions, regressions == 1 ? "" : "s");

  if (!table_path.empty()) {
    std::ofstream out{table_path, std::ios::binary | std::ios::trunc};
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", table_path.c_str());
      return 2;
    }
    out << markdown_table(positional[0], positional[1], rows, regressions);
  }
  return regressions > 0 ? 1 : 0;
}
