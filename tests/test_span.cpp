// Lifecycle-record tests: the recorder (id-0 no-op contract,
// finish/truncation semantics, a whole large run kept), the per-phase
// latency waterfall, the critical phase of explained stalls, aborted
// transfers carrying delivered bytes, the Chrome trace-event exporter +
// structural validator (including tamper cases), the profiler to_text
// %-of-parent golden text, and the acceptance gate that span tracing
// does not perturb any figure output (all eight quickstart
// configurations, on vs off).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/paper_setup.h"
#include "net/connection.h"
#include "obs/exporters.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/timeseries.h"

namespace vsplice::obs {
namespace {

TimePoint at_s(double seconds) { return TimePoint::from_seconds(seconds); }

// ------------------------------------------------------------- recorder

TEST(SpanRecorder, DisabledHelpersAreInertNoOps) {
  // No recorder installed: every helper must be a safe no-op that
  // hands back (or accepts) the sentinel id 0.
  ASSERT_FALSE(span_tracing());
  const std::uint64_t id =
      open_span(SpanKind::kSegment, at_s(1.0), 0, 1, 2);
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(instant_span(SpanKind::kVerify, at_s(1.0), 0, 1, 2), 0u);
  close_span(id, at_s(2.0));
  abort_span(id, at_s(2.0));
  set_span_attr(id, 42);
}

TEST(SpanRecorder, RecordsCausalChain) {
  SpanRecorder recorder;
  ScopedSpanRecorder installed{&recorder};
  ASSERT_TRUE(span_tracing());

  const std::uint64_t root =
      open_span(SpanKind::kSegment, at_s(1.0), 0, 3, 7);
  const std::uint64_t child =
      open_span(SpanKind::kPieceTransfer, at_s(2.0), root, 3, 7, 4096);
  ASSERT_EQ(root, 1u);
  ASSERT_EQ(child, 2u);
  close_span(child, at_s(3.5));
  close_span(root, at_s(4.0));

  ASSERT_EQ(recorder.spans().size(), 2u);
  const Span& r = recorder.spans()[0];
  const Span& c = recorder.spans()[1];
  EXPECT_EQ(r.id, root);
  EXPECT_EQ(r.parent, 0u);
  EXPECT_EQ(r.kind, SpanKind::kSegment);
  EXPECT_EQ(r.node, 3);
  EXPECT_EQ(r.segment, 7);
  EXPECT_FALSE(r.open());
  EXPECT_FALSE(r.aborted());
  EXPECT_EQ(r.elapsed().count_micros(), Duration::seconds(3.0).count_micros());
  EXPECT_EQ(c.parent, root);
  EXPECT_EQ(c.attr, 4096);
  EXPECT_EQ(c.elapsed().count_micros(), Duration::seconds(1.5).count_micros());
}

TEST(SpanRecorder, InstantSpansAreClosedAndZeroLength) {
  SpanRecorder recorder;
  ScopedSpanRecorder installed{&recorder};
  const std::uint64_t id =
      instant_span(SpanKind::kBufferInsert, at_s(5.0), 0, 2, 9);
  ASSERT_EQ(id, 1u);
  const Span& s = recorder.spans()[0];
  EXPECT_FALSE(s.open());
  EXPECT_EQ(s.elapsed().count_micros(), 0);
  EXPECT_EQ(s.t_start.count_micros(), s.t_end.count_micros());
}

TEST(SpanRecorder, SetAttrOverwritesAndIgnoresBadIds) {
  SpanRecorder recorder;
  ScopedSpanRecorder installed{&recorder};
  const std::uint64_t id =
      open_span(SpanKind::kServerQueue, at_s(0.0), 0, 1, 1, 2);
  set_span_attr(id, 17);
  set_span_attr(0, 99);    // sentinel: ignored
  set_span_attr(999, 99);  // unknown: ignored
  EXPECT_EQ(recorder.spans()[0].attr, 17);
}

TEST(SpanRecorder, AbortMarksSpanAndClosesIt) {
  SpanRecorder recorder;
  ScopedSpanRecorder installed{&recorder};
  const std::uint64_t id =
      open_span(SpanKind::kRequestSend, at_s(1.0), 0, 4, 2);
  abort_span(id, at_s(2.0));
  const Span& s = recorder.spans()[0];
  EXPECT_TRUE(s.aborted());
  EXPECT_FALSE(s.open());
  EXPECT_EQ(s.elapsed().count_micros(), Duration::seconds(1.0).count_micros());
}

TEST(SpanRecorder, FinishClosesOpenSpansKeepingTruncationFlag) {
  SpanRecorder recorder;
  ScopedSpanRecorder installed{&recorder};
  const std::uint64_t closed =
      open_span(SpanKind::kSegment, at_s(1.0), 0, 1, 0);
  close_span(closed, at_s(2.0));
  const std::uint64_t open_id =
      open_span(SpanKind::kChokeWait, at_s(3.0), 0, 1, 1);
  recorder.finish(at_s(10.0));

  const Span& done = recorder.spans()[closed - 1];
  const Span& truncated = recorder.spans()[open_id - 1];
  // The closed span is untouched; the open one is clamped to the run
  // end but keeps kSpanOpen so consumers can tell it was cut short.
  EXPECT_EQ(done.t_end.count_micros(), at_s(2.0).count_micros());
  EXPECT_FALSE(done.open());
  EXPECT_EQ(truncated.t_end.count_micros(), at_s(10.0).count_micros());
  EXPECT_TRUE(truncated.open());
}

TEST(SpanRecorder, ScopedInstallRestoresPrevious) {
  SpanRecorder first;
  SpanRecorder second;
  {
    ScopedSpanRecorder outer{&first};
    {
      ScopedSpanRecorder inner{&second};
      open_span(SpanKind::kAnnounce, at_s(0.0), 0, 1, -1);
    }
    open_span(SpanKind::kAnnounce, at_s(0.0), 0, 2, -1);
  }
  EXPECT_FALSE(span_tracing());
  ASSERT_EQ(second.spans().size(), 1u);
  EXPECT_EQ(second.spans()[0].node, 1);
  ASSERT_EQ(first.spans().size(), 1u);
  EXPECT_EQ(first.spans()[0].node, 2);
}

TEST(SpanRecorder, MemoryBytesAndClear) {
  SpanRecorder recorder;
  ScopedSpanRecorder installed{&recorder};
  open_span(SpanKind::kSegment, at_s(0.0), 0, 1, 0);
  EXPECT_GE(recorder.memory_bytes(), sizeof(Span));
  recorder.clear();
  EXPECT_TRUE(recorder.spans().empty());
  // Still usable after clear, ids restart from 1.
  EXPECT_EQ(open_span(SpanKind::kSegment, at_s(1.0), 0, 1, 1), 1u);
}

// ------------------------------------------------------------ waterfall

TEST(Waterfall, NearestRankPercentilesOverClosedSpans) {
  SpanRecorder recorder;
  ScopedSpanRecorder installed{&recorder};
  // 100 transfers of 1..100 s; nearest-rank p50/p95/p99 are exactly the
  // 50th/95th/99th values.
  for (int i = 1; i <= 100; ++i) {
    const std::uint64_t id =
        open_span(SpanKind::kPieceTransfer, at_s(0.0), 0, 1, i);
    close_span(id, at_s(static_cast<double>(i)));
  }
  // Open and aborted spans of the same kind must not contaminate rows.
  open_span(SpanKind::kPieceTransfer, at_s(0.0), 0, 1, 999);
  abort_span(open_span(SpanKind::kPieceTransfer, at_s(0.0), 0, 1, 998),
             at_s(5000.0));

  const std::vector<PhaseStats> waterfall =
      segment_waterfall(recorder.spans());
  ASSERT_EQ(waterfall.size(), 1u);
  const PhaseStats& row = waterfall[0];
  EXPECT_EQ(row.phase, "piece_transfer");
  EXPECT_EQ(row.count, 100u);
  EXPECT_DOUBLE_EQ(row.p50_s, 50.0);
  EXPECT_DOUBLE_EQ(row.p95_s, 95.0);
  EXPECT_DOUBLE_EQ(row.p99_s, 99.0);
  EXPECT_DOUBLE_EQ(row.total_s, 5050.0);
}

TEST(Waterfall, RowsInKindOrderEmptyPhasesOmitted) {
  SpanRecorder recorder;
  ScopedSpanRecorder installed{&recorder};
  // Record in reverse lifecycle order; rows must still come out in
  // SpanKind declaration order, with unseen phases absent.
  close_span(open_span(SpanKind::kPlayout, at_s(0.0), 0, 1, 0), at_s(4.0));
  close_span(open_span(SpanKind::kAnnounce, at_s(0.0), 0, 1, -1), at_s(1.0));
  const std::vector<PhaseStats> waterfall =
      segment_waterfall(recorder.spans());
  ASSERT_EQ(waterfall.size(), 2u);
  EXPECT_EQ(waterfall[0].phase, "announce");
  EXPECT_EQ(waterfall[1].phase, "playout");
}

TEST(Waterfall, EmptyInputYieldsEmptyTable) {
  EXPECT_TRUE(segment_waterfall({}).empty());
}

TEST(Waterfall, ToTextIsAlignedAndListsEveryPhase) {
  SpanRecorder recorder;
  ScopedSpanRecorder installed{&recorder};
  close_span(open_span(SpanKind::kRequestDecision, at_s(0.0), 0, 1, 0),
             at_s(0.5));
  close_span(open_span(SpanKind::kPieceTransfer, at_s(0.0), 0, 1, 0),
             at_s(2.0));
  const std::string text =
      waterfall_to_text(segment_waterfall(recorder.spans()));
  EXPECT_NE(text.find("phase"), std::string::npos);
  EXPECT_NE(text.find("p50(s)"), std::string::npos);
  EXPECT_NE(text.find("request_decision"), std::string::npos);
  EXPECT_NE(text.find("piece_transfer"), std::string::npos);
  // Aligned columns: every line is the same width.
  std::istringstream lines{text};
  std::string line;
  std::size_t width = 0;
  while (std::getline(lines, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width) << line;
  }
}

// -------------------------------------------------------- critical path

TEST(DominantPhase, NamesLargestChildOfLastFetchSkippingPlayout) {
  SpanRecorder recorder;
  ScopedSpanRecorder installed{&recorder};
  // First (aborted) fetch of (1, 3): choke wait dominated.
  const std::uint64_t first =
      open_span(SpanKind::kSegment, at_s(0.0), 0, 1, 3);
  close_span(open_span(SpanKind::kChokeWait, at_s(0.0), first, 1, 3),
             at_s(5.0));
  abort_span(first, at_s(5.0));
  // Retry: the transfer dominates the delivery; playout is longer but
  // happens after delivery, so it can never be the critical phase.
  const std::uint64_t retry =
      open_span(SpanKind::kSegment, at_s(5.0), 0, 1, 3);
  close_span(open_span(SpanKind::kServerQueue, at_s(5.0), retry, 1, 3),
             at_s(7.0));
  close_span(open_span(SpanKind::kPieceTransfer, at_s(7.0), retry, 1, 3),
             at_s(14.0));
  close_span(open_span(SpanKind::kPlayout, at_s(14.0), retry, 1, 3),
             at_s(114.0));
  close_span(retry, at_s(14.0));
  // Stalls on the fetched segment, on a never-fetched one, and on the
  // same segment at another viewer.
  close_span(open_span(SpanKind::kStall, at_s(12.0), 0, 1, 3), at_s(14.0));
  close_span(open_span(SpanKind::kStall, at_s(20.0), 0, 1, 99), at_s(21.0));
  close_span(open_span(SpanKind::kStall, at_s(12.0), 0, 2, 3), at_s(13.0));

  const std::vector<StallExplanation> explained =
      explain_stalls(recorder.spans());
  ASSERT_EQ(explained.size(), 3u);
  EXPECT_EQ(explained[0].critical_phase, "piece_transfer");
  EXPECT_EQ(explained[1].critical_phase, "");
  EXPECT_EQ(explained[2].critical_phase, "");
}

TEST(CriticalPath, ExplainStallsGainsSpanBackedPhase) {
  // One stall on (node 1, segment 3); without a recorded fetch chain it
  // has no critical phase.
  SpanRecorder recorder;
  ScopedSpanRecorder installed{&recorder};
  close_span(open_span(SpanKind::kStall, at_s(10.0), 0, 1, 3), at_s(12.0));
  const std::vector<StallExplanation> plain =
      explain_stalls(recorder.spans());
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_TRUE(plain[0].critical_phase.empty());

  // The recorded chain's dominant child is the server queue.
  const std::uint64_t root =
      open_span(SpanKind::kSegment, at_s(8.0), 0, 1, 3);
  close_span(open_span(SpanKind::kServerQueue, at_s(8.0), root, 1, 3),
             at_s(11.5));
  close_span(open_span(SpanKind::kPieceTransfer, at_s(11.5), root, 1, 3),
             at_s(12.0));
  close_span(root, at_s(12.0));

  const std::vector<StallExplanation> with_spans =
      explain_stalls(recorder.spans());
  ASSERT_EQ(with_spans.size(), 1u);
  EXPECT_EQ(with_spans[0].critical_phase, "server_queue");
  EXPECT_NE(with_spans[0].cause.find("critical path: server_queue"),
            std::string::npos)
      << with_spans[0].cause;

  // The report join carries both the phase and the waterfall into the
  // JSON snapshot.
  TimeSeriesStore store;
  RunInfo info;
  info.title = "critical-path test";
  const ReportData data =
      build_report(std::move(info), store, recorder.spans());
  ASSERT_EQ(data.stalls.size(), 1u);
  EXPECT_EQ(data.stalls[0].critical_phase, "server_queue");
  ASSERT_FALSE(data.waterfall.empty());
  const std::string json = render_json_snapshot(data);
  EXPECT_NE(json.find("\"critical_phase\":\"server_queue\""),
            std::string::npos);
  EXPECT_NE(json.find("\"waterfall\":["), std::string::npos);
  EXPECT_NE(json.find("\"phase\":\"server_queue\""), std::string::npos);
}

// -------------------------------------------------------- Chrome export

/// A small realistic chain: announce + two fetches on two nodes.
std::vector<Span> sample_spans() {
  SpanRecorder recorder;
  ScopedSpanRecorder installed{&recorder};
  close_span(open_span(SpanKind::kAnnounce, at_s(0.0), 0, 1, -1), at_s(0.2));
  const std::uint64_t f1 = open_span(SpanKind::kSegment, at_s(0.2), 0, 1, 0);
  close_span(open_span(SpanKind::kPieceTransfer, at_s(0.3), f1, 1, 0, 4096),
             at_s(1.1));
  instant_span(SpanKind::kVerify, at_s(1.1), f1, 1, 0);
  close_span(f1, at_s(1.1));
  const std::uint64_t f2 = open_span(SpanKind::kSegment, at_s(0.4), 0, 2, 0);
  abort_span(open_span(SpanKind::kRequestSend, at_s(0.4), f2, 2, 0),
             at_s(0.9));
  abort_span(f2, at_s(0.9));
  open_span(SpanKind::kChokeWait, at_s(1.0), 0, 2, 1);  // left open
  recorder.finish(at_s(2.0));
  return recorder.spans();
}

TEST(ChromeTrace, RenderValidatesRoundTrip) {
  const std::vector<Span> spans = sample_spans();
  const std::string json = render_chrome_trace(spans);
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(json, &error)) << error;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("segment spans"), std::string::npos);
  // One lane per node, named for it.
  EXPECT_NE(json.find("node 1"), std::string::npos);
  EXPECT_NE(json.find("node 2"), std::string::npos);
  // Aborted and truncated spans are flagged in args.
  EXPECT_NE(json.find("\"aborted\":1"), std::string::npos);
  EXPECT_NE(json.find("\"truncated\":1"), std::string::npos);
  // No profiler snapshot: no pid-2 flame process is declared.
  EXPECT_EQ(json.find("hot-path profile"), std::string::npos);
}

TEST(ChromeTrace, EmptySpanListStillValid) {
  const std::string json = render_chrome_trace({});
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(json, &error)) << error;
}

TEST(ChromeTrace, ProfileSnapshotBecomesFlameTrack) {
  Profiler profiler;
  {
    ScopedProfiler installed{&profiler};
    VSPLICE_PROFILE_SCOPE("outer");
    VSPLICE_PROFILE_SCOPE("inner");
  }
  const ProfileSnapshot snapshot = profiler.snapshot();
  const std::string json = render_chrome_trace(sample_spans(), &snapshot);
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(json, &error)) << error;
  EXPECT_NE(json.find("hot-path profile"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"profile\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
}

TEST(ChromeTrace, ValidatorRejectsMalformedJson) {
  std::string error;
  EXPECT_FALSE(validate_chrome_trace("{\"traceEvents\":[", &error));
  EXPECT_NE(error.find("not valid JSON"), std::string::npos) << error;
  EXPECT_FALSE(validate_chrome_trace("[1,2,3]", &error));
  EXPECT_NE(error.find("top level"), std::string::npos) << error;
  EXPECT_FALSE(validate_chrome_trace("{\"other\":[]}", &error));
  EXPECT_NE(error.find("traceEvents"), std::string::npos) << error;
}

TEST(ChromeTrace, ValidatorRejectsTamperedTraces) {
  const std::string good = render_chrome_trace(sample_spans());
  std::string error;
  ASSERT_TRUE(validate_chrome_trace(good, &error)) << error;

  // Negative duration.
  std::string negative = good;
  const std::size_t dur = negative.find("\"dur\":");
  ASSERT_NE(dur, std::string::npos);
  negative.insert(dur + 6, "-");
  EXPECT_FALSE(validate_chrome_trace(negative, &error));
  EXPECT_NE(error.find("negative dur"), std::string::npos) << error;

  // A parent id pointing at a span that was never recorded.
  std::string orphan = good;
  const std::size_t parent = orphan.find("\"parent\":2");
  ASSERT_NE(parent, std::string::npos);
  orphan.replace(parent, 10, "\"parent\":777");
  EXPECT_FALSE(validate_chrome_trace(orphan, &error));
  EXPECT_NE(error.find("unresolved parent"), std::string::npos) << error;

  // Out-of-order timestamps within one (pid, tid) track.
  const std::string backwards =
      "{\"traceEvents\":["
      "{\"name\":\"a\",\"cat\":\"profile\",\"ph\":\"X\",\"pid\":2,"
      "\"tid\":0,\"ts\":10,\"dur\":1},"
      "{\"name\":\"b\",\"cat\":\"profile\",\"ph\":\"X\",\"pid\":2,"
      "\"tid\":0,\"ts\":5,\"dur\":1}]}";
  EXPECT_FALSE(validate_chrome_trace(backwards, &error));
  EXPECT_NE(error.find("monotone"), std::string::npos) << error;

  // A span-category event with no args block.
  const std::string bare_span =
      "{\"traceEvents\":["
      "{\"name\":\"segment\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":1,\"ts\":0,\"dur\":1}]}";
  EXPECT_FALSE(validate_chrome_trace(bare_span, &error));
  EXPECT_NE(error.find("args"), std::string::npos) << error;

  // An unexpected phase letter.
  const std::string bad_ph =
      "{\"traceEvents\":["
      "{\"name\":\"a\",\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":0}]}";
  EXPECT_FALSE(validate_chrome_trace(bad_ph, &error));
  EXPECT_NE(error.find("unexpected ph"), std::string::npos) << error;
}

TEST(ChromeTrace, DeterministicAcrossIdenticalInputs) {
  const std::vector<Span> spans = sample_spans();
  EXPECT_EQ(render_chrome_trace(spans), render_chrome_trace(spans));
}

// ----------------------------------------- profiler to_text golden text

TEST(ProfilerText, GoldenParentPercentColumn) {
  // Hand-built snapshot with round totals so the rendered table is
  // fully predictable: root (1 s) with one child covering 60% of it.
  ProfileSnapshot snap;
  ProfileEntry root;
  root.path = "root";
  root.name = "root";
  root.depth = 0;
  root.count = 2;
  root.total_ns = 1'000'000'000;
  root.self_ns = 400'000'000;
  root.max_ns = 600'000'000;
  ProfileEntry child;
  child.path = "root/child";
  child.name = "child";
  child.depth = 1;
  child.count = 4;
  child.total_ns = 600'000'000;
  child.self_ns = 600'000'000;
  child.max_ns = 200'000'000;
  snap.entries = {root, child};

  const std::string expected =
      "phase" + std::string(33, ' ') +
      "     count       total        self         max  parent%\n" +
      "root" + std::string(34, ' ') +
      "         2     1.000 s  400.000 ms  600.000 ms   100.0%\n" +
      "  child" + std::string(31, ' ') +
      "         4  600.000 ms  600.000 ms  200.000 ms    60.0%\n";
  EXPECT_EQ(snap.to_text(), expected);
}

TEST(ProfilerText, ZeroTotalRendersDashNotDivideByZero) {
  ProfileSnapshot snap;
  ProfileEntry entry;
  entry.path = "idle";
  entry.name = "idle";
  entry.depth = 0;
  entry.count = 1;
  snap.entries = {entry};
  const std::string text = snap.to_text();
  EXPECT_NE(text.find("        -"), std::string::npos) << text;
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
}

TEST(ProfilerText, DeepTreesWidenTheLabelColumnUniformly) {
  // A name that overflows the 38-column floor must push every row (and
  // the header) to the same wider width instead of breaking alignment.
  ProfileSnapshot snap;
  ProfileEntry big;
  big.path = big.name = std::string(50, 'x');
  big.depth = 0;
  big.count = 1;
  big.total_ns = 1000;
  big.self_ns = 1000;
  big.max_ns = 1000;
  ProfileEntry small;
  small.path = "y";
  small.name = "y";
  small.depth = 0;
  small.count = 1;
  small.total_ns = 1000;
  small.self_ns = 1000;
  small.max_ns = 1000;
  snap.entries = {big, small};
  const std::string text = snap.to_text();
  std::istringstream lines{text};
  std::string line;
  std::size_t width = 0;
  while (std::getline(lines, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width) << line;
  }
  // Count column starts after the widened label: 50 + " %9llu".
  EXPECT_NE(text.find(std::string(50, 'x') + "         1"),
            std::string::npos);
}

// --------------------------------- figures unchanged by span tracing

void expect_identical_figures(const experiments::ScenarioResult& off,
                              const experiments::ScenarioResult& on,
                              const std::string& label) {
  ASSERT_EQ(off.viewers.size(), on.viewers.size()) << label;
  for (std::size_t i = 0; i < off.viewers.size(); ++i) {
    const streaming::QoeMetrics& a = off.viewers[i];
    const streaming::QoeMetrics& b = on.viewers[i];
    EXPECT_EQ(a.stall_count, b.stall_count) << label << " viewer " << i;
    EXPECT_EQ(a.total_stall_duration.count_micros(),
              b.total_stall_duration.count_micros())
        << label << " viewer " << i;
    EXPECT_EQ(a.startup_time.count_micros(), b.startup_time.count_micros())
        << label << " viewer " << i;
    EXPECT_EQ(a.started, b.started) << label << " viewer " << i;
    EXPECT_EQ(a.finished, b.finished) << label << " viewer " << i;
    EXPECT_EQ(a.bytes_downloaded, b.bytes_downloaded)
        << label << " viewer " << i;
    EXPECT_EQ(a.bytes_wasted, b.bytes_wasted) << label << " viewer " << i;
  }
  EXPECT_EQ(off.total_stalls, on.total_stalls) << label;
  EXPECT_EQ(off.total_stall_seconds, on.total_stall_seconds) << label;
  EXPECT_EQ(off.mean_startup_seconds, on.mean_startup_seconds) << label;
  EXPECT_EQ(off.finished_viewers, on.finished_viewers) << label;
  EXPECT_EQ(off.wall_time.count_micros(), on.wall_time.count_micros())
      << label;
  EXPECT_EQ(off.requests_served, on.requests_served) << label;
  EXPECT_EQ(off.requests_choked, on.requests_choked) << label;
  EXPECT_EQ(off.seeder_uploaded, on.seeder_uploaded) << label;
  EXPECT_EQ(off.peers_uploaded, on.peers_uploaded) << label;
  EXPECT_EQ(off.pieces_aborted, on.pieces_aborted) << label;
  EXPECT_EQ(off.network_bytes_delivered, on.network_bytes_delivered)
      << label;
  EXPECT_EQ(off.segment_picks, on.segment_picks) << label;
  EXPECT_EQ(off.holder_picks, on.holder_picks) << label;
  EXPECT_EQ(off.candidates_scanned, on.candidates_scanned) << label;
  EXPECT_EQ(off.messages_routed, on.messages_routed) << label;
  EXPECT_EQ(off.messages_dropped, on.messages_dropped) << label;
  // Deterministic accounting must agree too: span recording may not
  // change how many events fired or what any sim structure holds.
  EXPECT_EQ(off.events_fired, on.events_fired) << label;
  EXPECT_EQ(off.heap_high_water, on.heap_high_water) << label;
  // The only allowed memory delta is the span store's own row.
  EXPECT_EQ(off.memory_total_bytes + on.memory.bytes("obs.spans"),
            on.memory_total_bytes)
      << label;
}

/// The acceptance gate: all eight quickstart figure configurations
/// (four splicing techniques x two pool policies) must produce
/// byte-identical per-viewer QoE, decision counts, and resource
/// accounting with span tracing on vs off.
TEST(SpanDifferential, QuickstartConfigsIdenticalOnVsOff) {
  const std::vector<std::string> splicers{"gop", "2s", "4s", "8s"};
  const std::vector<std::string> policies{"adaptive", "fixed:4"};
  for (const std::string& splicer : splicers) {
    for (const std::string& policy : policies) {
      experiments::ScenarioConfig config;
      config.splicer = splicer;
      config.policy = policy;
      config.bandwidth = Rate::kilobytes_per_second(256);
      config.nodes = 20;
      config.seed = 1;

      config.spans = false;
      const auto off = experiments::run_scenario(config);
      config.spans = true;
      const auto on = experiments::run_scenario(config);

      const std::string label = splicer + "/" + policy;
      expect_identical_figures(off, on, label);
      // Sanity: real runs, and the traced one actually recorded spans.
      EXPECT_EQ(on.viewer_count, 19u) << label;
      EXPECT_GT(on.finished_viewers, 0u) << label;
      EXPECT_EQ(off.spans_recorded, 0u) << label;
      EXPECT_TRUE(off.waterfall.empty()) << label;
      EXPECT_GT(on.spans_recorded, 0u) << label;
      EXPECT_GT(on.memory.bytes("obs.spans"), 0u) << label;
      ASSERT_FALSE(on.waterfall.empty()) << label;
      // Every delivered segment leaves a transfer row in the waterfall.
      bool has_transfer = false;
      for (const PhaseStats& row : on.waterfall) {
        if (row.phase == "piece_transfer") has_transfer = true;
      }
      EXPECT_TRUE(has_transfer) << label;
    }
  }
}

// ------------------------------------------------- end-to-end scenario

TEST(SpanScenario, ChromeTraceFileIsStructurallyValid) {
  const std::string path =
      ::testing::TempDir() + "vsplice_span_scenario.trace.json";
  experiments::ScenarioConfig config;
  config.bandwidth = Rate::kilobytes_per_second(256);
  config.nodes = 20;
  config.seed = 1;
  config.trace_chrome_path = path;  // implies span tracing
  const experiments::ScenarioResult result =
      experiments::run_scenario(config);

  EXPECT_GT(result.spans_recorded, 0u);
  ASSERT_FALSE(result.waterfall.empty());

  std::ifstream in{path, std::ios::binary};
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream content;
  content << in.rdbuf();
  const std::string json = content.str();
  ASSERT_FALSE(json.empty());
  std::string error;
  EXPECT_TRUE(validate_chrome_trace(json, &error)) << error;
  std::remove(path.c_str());
}

TEST(SpanScenario, HundredPeerRunKeepsEverySpan) {
  // 100 peers for 240 s records well over a hundred thousand spans; the
  // record keeps all of them, so every granted request has its PIECE
  // transfer, every stall its span, and every parent id resolves.
  ObsOptions options;
  options.spans = true;
  Observability observability{options};
  experiments::ScenarioConfig config;
  config.bandwidth = Rate::kilobytes_per_second(256);
  config.nodes = 100;
  config.time_limit = Duration::seconds(240.0);
  config.seed = 1;
  const experiments::ScenarioResult result =
      experiments::run_scenario(config);

  const std::vector<Span>& spans = observability.spans();
  std::uint64_t transfers = 0;
  std::uint64_t stalls = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    ASSERT_EQ(spans[i].id, i + 1);
    ASSERT_LT(spans[i].parent, spans[i].id);
    if (spans[i].kind == SpanKind::kPieceTransfer) ++transfers;
    if (spans[i].kind == SpanKind::kStall) ++stalls;
  }
  EXPECT_EQ(transfers, result.requests_served);
  EXPECT_EQ(static_cast<double>(stalls), result.total_stalls);
}

TEST(SpanScenario, ClosedConnectionKeepsDeliveredBytes) {
  // A connection closed mid-transfer aborts its PIECE span with the
  // bytes that actually arrived, the same count the abort reports.
  sim::Simulator sim;
  net::Network network{sim};
  net::NodeSpec spec;
  spec.uplink = Rate::kilobytes_per_second(100);
  spec.downlink = Rate::kilobytes_per_second(100);
  spec.one_way_delay = Duration::millis(50);
  const net::NodeId client = network.add_node(spec);
  const net::NodeId server = network.add_node(spec);
  Rng rng{7};
  SpanRecorder recorder;
  ScopedSpanRecorder installed{&recorder};
  const std::uint64_t root =
      open_span(SpanKind::kSegment, sim.now(), 0, 0, 5, 1'000'000);

  net::Connection conn{network, rng, client, server};
  conn.set_span_context(root, 0, 5);
  net::Connection::FetchResult result;
  conn.connect([&] {
    conn.push(1'000'000,
              [&](const net::Connection::FetchResult& r) { result = r; });
  });
  sim.run_until(TimePoint::from_seconds(3));
  conn.close();

  ASSERT_TRUE(result.aborted);
  ASSERT_GT(result.bytes_delivered, 0);
  ASSERT_LT(result.bytes_delivered, 1'000'000);
  const Span* transfer = nullptr;
  for (const Span& s : recorder.spans()) {
    if (s.kind == SpanKind::kPieceTransfer) transfer = &s;
  }
  ASSERT_NE(transfer, nullptr);
  EXPECT_TRUE(transfer->aborted());
  EXPECT_EQ(transfer->parent, root);
  EXPECT_EQ(transfer->attr, result.bytes_delivered);
}

}  // namespace
}  // namespace vsplice::obs
