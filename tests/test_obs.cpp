// Observability stack: span-trace JSONL round-trips, cross-run
// determinism, the trace as a view of the record, and stall explanation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "experiments/paper_setup.h"
#include "obs/exporters.h"

namespace {

using namespace vsplice;
using namespace vsplice::obs;

// ---------------------------------------------------------------- JSONL

void expect_same_span(const Span& a, const Span& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.parent, b.parent);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.segment, b.segment);
  EXPECT_EQ(a.t_start, b.t_start);
  EXPECT_EQ(a.t_end, b.t_end);
  EXPECT_EQ(a.attr, b.attr);
  EXPECT_EQ(a.flags, b.flags);
}

TEST(Jsonl, RoundTripsEveryKind) {
  for (std::size_t k = 0; k < kSpanKindCount; ++k) {
    Span span;
    span.id = k + 1;
    span.parent = k;
    span.kind = static_cast<SpanKind>(k);
    span.node = 3;
    span.segment = static_cast<std::int64_t>(k) - 1;
    span.t_start = TimePoint::from_seconds(12.5);
    span.t_end = TimePoint::from_seconds(14.0);
    span.attr = 4096;
    const std::string line = span_to_jsonl(span);
    const auto parsed = parse_span_line(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->t_start.count_micros(), 12500000);
    EXPECT_EQ(parsed->id, span.id);
    EXPECT_STREQ(span_kind_name(parsed->kind), span_kind_name(span.kind))
        << line;
    expect_same_span(*parsed, span);
  }
}

TEST(Jsonl, FieldValuesSurviveTheTrip) {
  Span span;
  span.id = 9;
  span.parent = 4;
  span.kind = SpanKind::kPieceTransfer;
  span.node = 4;
  span.segment = 17;
  span.t_start = TimePoint::from_seconds(2.0);
  span.t_end = TimePoint::from_seconds(3.25);
  span.attr = 250000;
  span.flags = kSpanAborted | kSpanOpen;
  const std::string line = span_to_jsonl(span);
  EXPECT_EQ(line,
            "{\"id\":9,\"parent\":4,\"kind\":\"piece_transfer\",\"node\":4,"
            "\"segment\":17,\"start_us\":2000000,\"end_us\":3250000,"
            "\"attr\":250000,\"aborted\":true,\"open\":true}");
  const auto parsed = parse_span_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->node, 4);
  EXPECT_EQ(parsed->segment, 17);
  EXPECT_EQ(parsed->attr, 250000);
  EXPECT_EQ(parsed->elapsed(), Duration::seconds(1.25));
  EXPECT_TRUE(parsed->aborted());
  EXPECT_TRUE(parsed->open());
}

TEST(Jsonl, EscapedStringsRoundTrip) {
  // The one JSON reader returns exactly what json_escape wrote.
  const std::string text = "tab\there \"quoted\" \\slash";
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(parse_json("{\"component\":\"net\",\"text\":" +
                             json_escape(text) + "}",
                         parsed, error))
      << error;
  ASSERT_NE(parsed.find("component"), nullptr);
  EXPECT_EQ(parsed.find("component")->string, "net");
  ASSERT_NE(parsed.find("text"), nullptr);
  EXPECT_EQ(parsed.find("text")->string, text);
}

TEST(Jsonl, RejectsMalformedLines) {
  EXPECT_FALSE(parse_span_line("").has_value());
  EXPECT_FALSE(parse_span_line("not json").has_value());
  EXPECT_FALSE(parse_span_line("{\"id\":1}").has_value());
  Span stall;
  stall.id = 1;
  stall.kind = SpanKind::kStall;
  stall.node = 2;
  stall.segment = 5;
  const std::string good = span_to_jsonl(stall);
  ASSERT_TRUE(parse_span_line(good).has_value());
  // Truncated, an unknown kind, and a fractional integer field.
  EXPECT_FALSE(parse_span_line(good.substr(0, good.size() - 1)).has_value());
  std::string unknown = good;
  unknown.replace(unknown.find("stall"), 5, "stale");
  EXPECT_FALSE(parse_span_line(unknown).has_value());
  std::string fractional = good;
  fractional.replace(fractional.find("\"node\":2"), 8, "\"node\":2.5");
  EXPECT_FALSE(parse_span_line(fractional).has_value());
}

// ---------------------------------------------------- scenario determinism

experiments::ScenarioConfig small_scenario() {
  experiments::ScenarioConfig config;
  config.nodes = 5;
  config.bandwidth = Rate::kilobytes_per_second(192);
  config.splicer = "4s";
  config.join_spread = Duration::seconds(10.0);
  config.time_limit = Duration::minutes(20.0);
  config.seed = 42;
  return config;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A temp file named after the running test: ctest runs every test as
/// its own process, in parallel, so shared names would collide.
std::string temp_trace_path() {
  return ::testing::TempDir() + "vsplice_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".jsonl";
}

std::string traced_run(experiments::ScenarioConfig config) {
  config.trace_path = temp_trace_path();
  (void)experiments::run_scenario(config);
  const std::string trace = read_file(config.trace_path);
  std::remove(config.trace_path.c_str());
  return trace;
}

TEST(TraceDeterminism, IdenticalSeedsProduceIdenticalTraces) {
  const auto config = small_scenario();
  const std::string first = traced_run(config);
  const std::string second = traced_run(config);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  // The trace carries the span families the tooling joins on.
  EXPECT_NE(first.find("\"kind\":\"request_decision\""), std::string::npos);
  EXPECT_NE(first.find("\"kind\":\"segment\""), std::string::npos);
  EXPECT_NE(first.find("\"kind\":\"pool\""), std::string::npos);
  EXPECT_NE(first.find("\"kind\":\"announce\""), std::string::npos);
  EXPECT_NE(first.find("\"kind\":\"playback\""), std::string::npos);

  // Every line is parseable JSONL.
  for (const std::string& line : split(first, '\n')) {
    if (line.empty()) continue;
    EXPECT_TRUE(parse_span_line(line).has_value()) << line;
  }
}

TEST(TraceDeterminism, DifferentSeedsDiverge) {
  auto config = small_scenario();
  const std::string first = traced_run(config);
  config.seed = 43;
  const std::string second = traced_run(config);
  EXPECT_NE(first, second);
}

std::vector<Span> parse_trace(const std::string& text) {
  std::vector<Span> spans;
  for (const std::string& line : split(text, '\n')) {
    if (line.empty()) continue;
    const auto span = parse_span_line(line);
    EXPECT_TRUE(span.has_value()) << line;
    if (span) spans.push_back(*span);
  }
  return spans;
}

TEST(TraceDeterminism, ScenarioTraceParsesBackIntoTheRecord) {
  // The trace is a view of the record: written by finish(), it parses
  // back into exactly the spans the recorder holds.
  const std::string path = temp_trace_path();
  ObsOptions options;
  options.trace_path = path;
  Observability observability{options};
  ASSERT_TRUE(observability.span_tracing());
  const experiments::ScenarioResult result =
      experiments::run_scenario(small_scenario());
  observability.finish(TimePoint::origin() + result.wall_time);
  const std::vector<Span> parsed = parse_trace(read_file(path));
  std::remove(path.c_str());
  const std::vector<Span>& recorded = observability.spans();
  ASSERT_EQ(parsed.size(), recorded.size());
  ASSERT_FALSE(parsed.empty());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    expect_same_span(parsed[i], recorded[i]);
  }

  // The scenario's own --trace holds the same record.
  experiments::ScenarioConfig config = small_scenario();
  config.trace_path = path;
  const experiments::ScenarioResult traced = experiments::run_scenario(config);
  const std::vector<Span> from_config = parse_trace(read_file(path));
  std::remove(path.c_str());
  EXPECT_EQ(from_config.size(), traced.spans_recorded);
  ASSERT_EQ(from_config.size(), recorded.size());
  for (std::size_t i = 0; i < from_config.size(); ++i) {
    expect_same_span(from_config[i], recorded[i]);
  }
}

// ------------------------------------------------------ stall explanation

TimePoint at(double seconds) { return TimePoint::from_seconds(seconds); }

TEST(StallExplanation, SyntheticHolderLeft) {
  SpanRecorder recorder;
  ScopedSpanRecorder installed{&recorder};
  close_span(open_span(SpanKind::kAnnounce, at(0.0), 0, 1, -1), at(0.2));
  const std::uint64_t root =
      open_span(SpanKind::kSegment, at(0.5), 0, 1, 4, 500000);
  instant_span(SpanKind::kRequestDecision, at(0.5), root, 1, 4, 2);
  const std::uint64_t first =
      open_span(SpanKind::kPieceTransfer, at(0.8), root, 1, 4, 500000);
  instant_span(SpanKind::kLeave, at(2.0), 0, 2, -1);
  set_span_attr(first, 120000);
  abort_span(first, at(2.0));
  instant_span(SpanKind::kRequestDecision, at(2.1), root, 1, 4, 0);
  const std::uint64_t stall =
      open_span(SpanKind::kStall, at(3.0), 0, 1, 4, 8000000);
  close_span(open_span(SpanKind::kPieceTransfer, at(2.2), root, 1, 4, 500000),
             at(6.0));
  close_span(root, at(6.0));
  close_span(stall, at(6.0));

  const auto explained = explain_stalls(recorder.spans());
  ASSERT_EQ(explained.size(), 1u);
  EXPECT_EQ(explained[0].node, 1);
  EXPECT_EQ(explained[0].segment, 4u);
  EXPECT_EQ(explained[0].category, "holder_left");
  EXPECT_NE(explained[0].cause.find("node2"), std::string::npos);
  EXPECT_NE(explained[0].cause.find("120 kB wasted"), std::string::npos);
  EXPECT_EQ(explained[0].duration, Duration::seconds(3.0));
}

TEST(StallExplanation, SyntheticNeverRequested) {
  SpanRecorder recorder;
  ScopedSpanRecorder installed{&recorder};
  open_span(SpanKind::kStall, at(1.0), 0, 3, 9, 4000000);  // never resumed
  const auto explained = explain_stalls(recorder.spans());
  ASSERT_EQ(explained.size(), 1u);
  EXPECT_EQ(explained[0].category, "never_requested");
  EXPECT_TRUE(explained[0].end.is_infinite());
}

TEST(StallExplanation, ViewerDepartureIsNotATransferAbort) {
  // The viewer leaves mid-fetch: its own departure cuts the transfer,
  // and the swarm never reports that cut back to it (it is offline), so
  // the stall it left behind is unresolved, not an aborted transfer.
  SpanRecorder recorder;
  ScopedSpanRecorder installed{&recorder};
  const std::uint64_t root =
      open_span(SpanKind::kSegment, at(1.0), 0, 1, 4, 500000);
  instant_span(SpanKind::kRequestDecision, at(1.0), root, 1, 4, 2);
  const std::uint64_t transfer =
      open_span(SpanKind::kPieceTransfer, at(1.2), root, 1, 4, 500000);
  open_span(SpanKind::kStall, at(2.0), 0, 1, 4, 8000000);
  set_span_attr(transfer, 90000);
  abort_span(transfer, at(3.0));
  abort_span(root, at(3.0));
  instant_span(SpanKind::kLeave, at(3.0), 0, 1, -1);
  recorder.finish(at(10.0));

  const auto explained = explain_stalls(recorder.spans());
  ASSERT_EQ(explained.size(), 1u);
  EXPECT_NE(explained[0].category, "transfer_aborted");
  EXPECT_EQ(explained[0].category, "unresolved");
  EXPECT_TRUE(explained[0].end.is_infinite());
}

TEST(StallExplanation, OversizedAgainstDistinctSegmentsNotRequests) {
  // Five small segments fetched once, one large segment requested ten
  // times (choke retries). Measured per request, the retries would make
  // the large size the median itself; per distinct segment it is 5x the
  // median, so its stall is an oversized segment.
  SpanRecorder recorder;
  ScopedSpanRecorder installed{&recorder};
  instant_span(SpanKind::kPool, at(0.0), 0, 1, -1, 4);
  for (int segment = 0; segment < 5; ++segment) {
    const double t = segment;
    const std::uint64_t root =
        open_span(SpanKind::kSegment, at(t), 0, 1, segment, 100000);
    instant_span(SpanKind::kRequestDecision, at(t), root, 1, segment, 0);
    close_span(root, at(t + 0.5));
  }
  const std::uint64_t big = open_span(SpanKind::kSegment, at(5.0), 0, 1, 5,
                                      500000);
  for (int retry = 0; retry < 10; ++retry) {
    instant_span(SpanKind::kRequestDecision, at(5.0 + retry), big, 1, 5, 0);
  }
  const std::uint64_t stall =
      open_span(SpanKind::kStall, at(8.0), 0, 1, 5, 10000000);
  close_span(big, at(20.0));
  close_span(stall, at(20.0));

  const auto explained = explain_stalls(recorder.spans());
  ASSERT_EQ(explained.size(), 1u);
  EXPECT_EQ(explained[0].category, "oversized_segment")
      << explained[0].cause;
  EXPECT_NE(explained[0].cause.find("vs a median of 100 kB"),
            std::string::npos)
      << explained[0].cause;
}

TEST(StallExplanation, EveryStallInAStarvedSwarmGetsACause) {
  // Fig. 2's worst cell in miniature: GOP splicing at a bandwidth well
  // below the video bitrate guarantees stalls.
  experiments::ScenarioConfig config;
  config.nodes = 6;
  config.bandwidth = Rate::kilobytes_per_second(64);
  config.splicer = "gop";
  config.join_spread = Duration::seconds(10.0);
  config.time_limit = Duration::minutes(30.0);
  config.seed = 7;

  ObsOptions options;
  options.spans = true;
  Observability observability{options};
  const experiments::ScenarioResult result =
      experiments::run_scenario(config);
  ASSERT_GT(result.total_stalls, 0.0);

  const auto explained = explain_stalls(observability.spans());
  EXPECT_EQ(static_cast<double>(explained.size()), result.total_stalls);
  const std::set<std::string> known{
      "holder_left",    "transfer_aborted",    "oversized_segment",
      "pool_collapsed", "bandwidth_shortfall", "never_requested",
      "unresolved"};
  for (const auto& ex : explained) {
    EXPECT_FALSE(ex.category.empty());
    EXPECT_FALSE(ex.cause.empty());
    EXPECT_TRUE(known.contains(ex.category)) << ex.category;
  }

  const std::string timeline = summarize_timeline(observability.spans());
  EXPECT_NE(timeline.find("=== session timeline:"), std::string::npos);
  EXPECT_NE(timeline.find("=== stall causes ==="), std::string::npos);
  EXPECT_NE(timeline.find("stall #1"), std::string::npos);
}

// -------------------------------------------------------- scenario wiring

TEST(ScenarioObservability, TimelineSummaryLandsInTheResult) {
  auto config = small_scenario();
  config.timeline_summary = true;
  const experiments::ScenarioResult result =
      experiments::run_scenario(config);
  EXPECT_NE(result.timeline.find("=== session timeline:"),
            std::string::npos);
}

}  // namespace
