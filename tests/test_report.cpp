// Swarm-health sampling, anomaly scanning, and run-report tests:
// time-series downsampling, sampler rate derivation and naming, the five
// anomaly kinds (with exact threshold-boundary pins), the anomalies
// joined to explained stalls, snapshot byte-determinism, and the
// self-containment of the HTML report.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "experiments/paper_setup.h"
#include "obs/anomaly.h"
#include "obs/exporters.h"
#include "obs/report.h"
#include "obs/sampler.h"
#include "obs/span.h"
#include "obs/timeseries.h"

namespace vsplice {
namespace {

using obs::Anomaly;
using obs::Sample;
using obs::Series;
using obs::Span;
using obs::SpanKind;
using obs::SwarmObservation;
using obs::SwarmSampler;
using obs::TimeSeriesStore;

TimePoint at_s(double seconds) { return TimePoint::from_seconds(seconds); }

/// A stall span of `node` on `segment` from `start`, resolved at `end`
/// or, without one, left open (a stall that never resumed).
Span stall_span(std::uint64_t id, std::int64_t node, std::int64_t segment,
                TimePoint start, std::optional<TimePoint> end = {}) {
  Span span;
  span.id = id;
  span.kind = SpanKind::kStall;
  span.node = node;
  span.segment = segment;
  span.t_start = start;
  span.t_end = end.value_or(start);
  span.flags = end ? 0u : obs::kSpanOpen;
  return span;
}

// ------------------------------------------------------------ time series

TEST(Series, KeepsRawSamplesBelowCapacity) {
  Series series{8};
  for (int i = 0; i < 8; ++i) {
    series.append(at_s(i), static_cast<double>(i));
  }
  ASSERT_EQ(series.size(), 8u);
  EXPECT_EQ(series.raw_count(), 8u);
  EXPECT_DOUBLE_EQ(series.samples()[3].mean, 3.0);
  EXPECT_EQ(series.samples()[3].count, 1u);
}

TEST(Series, DownsamplingPreservesCountMeanAndExtremes) {
  Series series{4};
  double sum = 0;
  for (int i = 0; i < 64; ++i) {
    const double value = static_cast<double>(i % 10);
    series.append(at_s(i), value);
    sum += value;
  }
  EXPECT_LE(series.size(), 4u);
  EXPECT_EQ(series.raw_count(), 64u);
  std::size_t count = 0;
  double weighted = 0;
  for (const Sample& s : series.samples()) {
    count += s.count;
    weighted += s.mean * static_cast<double>(s.count);
  }
  EXPECT_EQ(count, 64u);  // every raw sample still accounted for
  EXPECT_NEAR(weighted, sum, 1e-9);
  EXPECT_DOUBLE_EQ(series.min_value(), 0.0);
  EXPECT_DOUBLE_EQ(series.max_value(), 9.0);
}

TEST(Series, DownsamplingKeepsTimesMonotone) {
  Series series{6};
  for (int i = 0; i < 100; ++i) {
    series.append(at_s(i * 0.7), static_cast<double>(i));
  }
  const std::vector<Sample>& samples = series.samples();
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LE(samples[i - 1].time, samples[i].time);
  }
  EXPECT_DOUBLE_EQ(series.last_value(), 99.0);
}

TEST(Series, RejectsTimeGoingBackwards) {
  Series series;
  series.append(at_s(2.0), 1.0);
  series.append(at_s(2.0), 2.0);  // equal time is fine
  EXPECT_THROW(series.append(at_s(1.0), 3.0), InvalidArgument);
}

TEST(TimeSeriesStore, NamesAreSortedAndFindable) {
  TimeSeriesStore store;
  store.series("zeta").append(at_s(0), 1);
  store.series("alpha").append(at_s(0), 2);
  store.series("mid").append(at_s(0), 3);
  const std::vector<std::string> names = store.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "mid");
  EXPECT_EQ(names[2], "zeta");
  ASSERT_NE(store.find("mid"), nullptr);
  EXPECT_EQ(store.find("absent"), nullptr);
}

// ---------------------------------------------------------------- sampler

TEST(SwarmSampler, SeriesNamesRoundTrip) {
  EXPECT_EQ(SwarmSampler::peer_series(7, "buffer_s"), "peer.7.buffer_s");
  EXPECT_EQ(SwarmSampler::segment_series(3), "avail.seg0003");

  std::int64_t node = -1;
  std::string what;
  ASSERT_TRUE(
      SwarmSampler::parse_peer_series("peer.12.rate_Bps", node, what));
  EXPECT_EQ(node, 12);
  EXPECT_EQ(what, "rate_Bps");
  EXPECT_FALSE(SwarmSampler::parse_peer_series("swarm.goodput_Bps", node,
                                               what));

  std::size_t segment = 0;
  ASSERT_TRUE(SwarmSampler::parse_segment_series("avail.seg0042", segment));
  EXPECT_EQ(segment, 42u);
  EXPECT_FALSE(SwarmSampler::parse_segment_series("peer.1.pool", segment));
}

TEST(SwarmSampler, DerivesRatesFromCumulativeCounters) {
  TimeSeriesStore store;
  SwarmObservation now;
  obs::PeerObservation peer;
  peer.node = 1;
  peer.online = true;
  peer.bytes_downloaded = 1000;
  now.peers.push_back(peer);
  now.replicas = {3, 1};
  now.seeder_uploaded_bytes = 500;
  now.network_bytes_delivered = 1500;

  SwarmSampler sampler{store, [&now] { return now; }};
  sampler.sample(at_s(0));

  now.peers[0].bytes_downloaded = 3000;
  now.seeder_uploaded_bytes = 1500;
  now.network_bytes_delivered = 4500;
  sampler.sample(at_s(2));

  const Series* rate = store.find("peer.1.rate_Bps");
  ASSERT_NE(rate, nullptr);
  ASSERT_EQ(rate->size(), 2u);
  EXPECT_DOUBLE_EQ(rate->samples()[0].mean, 0.0);  // no previous sample
  EXPECT_DOUBLE_EQ(rate->samples()[1].mean, 1000.0);  // 2000 B / 2 s

  const Series* seeder = store.find("swarm.seeder_upload_rate_Bps");
  ASSERT_NE(seeder, nullptr);
  EXPECT_DOUBLE_EQ(seeder->last_value(), 500.0);
  const Series* goodput = store.find("swarm.goodput_Bps");
  ASSERT_NE(goodput, nullptr);
  EXPECT_DOUBLE_EQ(goodput->last_value(), 1500.0);

  const Series* min_replicas = store.find("swarm.min_replicas");
  ASSERT_NE(min_replicas, nullptr);
  EXPECT_DOUBLE_EQ(min_replicas->last_value(), 1.0);
  ASSERT_NE(store.find("avail.seg0000"), nullptr);
  EXPECT_DOUBLE_EQ(store.find("avail.seg0000")->last_value(), 3.0);
  EXPECT_EQ(sampler.samples_taken(), 2u);
}

// -------------------------------------------------------------- anomalies

TEST(AnomalyScan, FlagsPoolCollapseAfterWiderRunning) {
  TimeSeriesStore store;
  Series& pool = store.series("peer.3.pool");
  pool.append(at_s(0), 3);
  pool.append(at_s(1), 3);
  pool.append(at_s(2), 1);
  pool.append(at_s(3), 1);
  pool.append(at_s(4), 3);

  const std::vector<Anomaly> anomalies = obs::scan_anomalies(store, {});
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, "pool_collapse");
  EXPECT_EQ(anomalies[0].node, 3);
  EXPECT_EQ(anomalies[0].onset, at_s(2));
  EXPECT_EQ(anomalies[0].end, at_s(3));
  EXPECT_FALSE(anomalies[0].detail.empty());
}

TEST(AnomalyScan, InitiallyNarrowPoolIsNotACollapse) {
  TimeSeriesStore store;
  Series& pool = store.series("peer.2.pool");
  pool.append(at_s(0), 1);  // starts at k=1: the initial condition
  pool.append(at_s(1), 1);
  pool.append(at_s(2), 4);
  EXPECT_TRUE(obs::scan_anomalies(store, {}).empty());
}

TEST(AnomalyScan, FlagsSegmentAvailabilityDroppingBelowTwo) {
  TimeSeriesStore store;
  Series& avail = store.series(SwarmSampler::segment_series(5));
  avail.append(at_s(0), 1);  // seeder only — initial condition, no flag
  avail.append(at_s(1), 3);
  avail.append(at_s(2), 1);  // a holder left: now churn-fragile
  avail.append(at_s(3), 2);

  const std::vector<Anomaly> anomalies = obs::scan_anomalies(store, {});
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, "low_availability");
  EXPECT_EQ(anomalies[0].segment, 5);
  EXPECT_EQ(anomalies[0].onset, at_s(2));
}

TEST(AnomalyScan, FlagsSustainedSeederSaturation) {
  TimeSeriesStore store;
  Series& slots = store.series("swarm.seeder_upload_slots");
  Series& active = store.series("swarm.seeder_active_uploads");
  for (int i = 0; i < 6; ++i) {
    slots.append(at_s(i), 2);
    active.append(at_s(i), i < 4 ? 2 : 0);  // busy for 4 samples, then idle
  }
  const std::vector<Anomaly> anomalies = obs::scan_anomalies(store, {});
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, "seeder_saturation");
  EXPECT_EQ(anomalies[0].node, -1);
  EXPECT_EQ(anomalies[0].onset, at_s(0));
  EXPECT_EQ(anomalies[0].end, at_s(3));
}

TEST(AnomalyScan, BriefSeederBusyInstantIsNotSaturation) {
  TimeSeriesStore store;
  store.series("swarm.seeder_upload_slots").append(at_s(0), 2);
  store.series("swarm.seeder_upload_slots").append(at_s(1), 2);
  store.series("swarm.seeder_active_uploads").append(at_s(0), 2);
  store.series("swarm.seeder_active_uploads").append(at_s(1), 0);
  EXPECT_TRUE(obs::scan_anomalies(store, {}).empty());
}

TEST(AnomalyScan, EmitsOneBufferDrainPerStallWithDrainOnset) {
  TimeSeriesStore store;
  Series& buffer = store.series("peer.4.buffer_s");
  buffer.append(at_s(0), 2.0);
  buffer.append(at_s(1), 6.0);  // local max: the drain starts here
  buffer.append(at_s(2), 3.0);
  buffer.append(at_s(3), 0.0);

  const std::vector<Span> spans{stall_span(1, 4, 9, at_s(3), at_s(5))};

  const std::vector<Anomaly> anomalies = obs::scan_anomalies(store, spans);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, "buffer_drain");
  EXPECT_EQ(anomalies[0].node, 4);
  EXPECT_EQ(anomalies[0].segment, 9);
  EXPECT_EQ(anomalies[0].onset, at_s(1));  // the pre-stall local max
  EXPECT_EQ(anomalies[0].end, at_s(5));    // where the stall resolved
}

TEST(AnomalyScan, AttributesEveryStallToSomeAnomaly) {
  const std::vector<Span> spans{stall_span(1, 4, 9, at_s(3), at_s(5))};

  std::vector<Anomaly> anomalies(2);
  anomalies[0].kind = "buffer_drain";
  anomalies[0].node = 4;
  anomalies[0].onset = at_s(1);
  anomalies[0].end = at_s(5);
  anomalies[1].kind = "pool_collapse";
  anomalies[1].node = 7;  // other viewer: must not attach
  anomalies[1].onset = at_s(3);
  anomalies[1].end = at_s(4);

  const auto stalls = obs::explain_stalls(spans, anomalies);
  ASSERT_EQ(stalls.size(), 1u);
  ASSERT_EQ(stalls[0].anomalies.size(), 1u);
  EXPECT_EQ(stalls[0].anomalies[0], 0u);
}

// ------------------------------------------- anomaly threshold boundaries
//
// Each detector's exact boundary, plus the degenerate empty-series and
// single-sample inputs, for all five kinds. These pin the comparison
// directions (<= vs <) so a refactor cannot silently shift a threshold
// by one sample or one epsilon.

TEST(AnomalyBoundary, EmptyStoreAndEventsFlagNothing) {
  TimeSeriesStore store;
  EXPECT_TRUE(obs::scan_anomalies(store, {}).empty());
  // Named but empty series must behave like absent ones.
  store.series("peer.1.pool");
  store.series(SwarmSampler::segment_series(0));
  store.series("swarm.seeder_upload_slots");
  store.series("swarm.seeder_active_uploads");
  store.series("sim.garbage_ratio");
  EXPECT_TRUE(obs::scan_anomalies(store, {}).empty());
}

TEST(AnomalyBoundary, BufferDrainWithoutBufferSeriesUsesStallTime) {
  // buffer_drain is emitted per stall even with no sampled buffer; the
  // onset then falls back to the stall time itself.
  TimeSeriesStore store;
  const std::vector<Span> spans{stall_span(1, 2, 6, at_s(7))};
  const std::vector<Anomaly> anomalies = obs::scan_anomalies(store, spans);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, "buffer_drain");
  EXPECT_EQ(anomalies[0].onset, at_s(7));
  EXPECT_EQ(anomalies[0].end, at_s(7));  // never resumed: zero-length
}

TEST(AnomalyBoundary, BufferDrainSingleSampleSeries) {
  TimeSeriesStore store;
  store.series("peer.2.buffer_s").append(at_s(5), 3.0);
  const std::vector<Span> spans{stall_span(1, 2, 6, at_s(6))};
  const std::vector<Anomaly> anomalies = obs::scan_anomalies(store, spans);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].onset, at_s(5));  // the lone pre-stall sample
}

TEST(AnomalyBoundary, PoolCollapseTriggersAtExactlyOne) {
  // The low threshold is <= 1.0: exactly k=1 is a collapse once the
  // pool has been armed by reaching exactly k=2 (arm is >= 2.0).
  TimeSeriesStore store;
  Series& pool = store.series("peer.1.pool");
  pool.append(at_s(0), 2.0);  // arms at exactly the arm threshold
  pool.append(at_s(1), 1.0);  // exactly the low threshold
  const std::vector<Anomaly> anomalies = obs::scan_anomalies(store, {});
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, "pool_collapse");
  EXPECT_EQ(anomalies[0].onset, at_s(1));
}

TEST(AnomalyBoundary, PoolJustAboveThresholdsStaysQuiet) {
  // 1.9 never reaches the arm threshold; a drop to 1.1 stays above the
  // low threshold even when armed. Neither may flag.
  TimeSeriesStore store;
  Series& never_armed = store.series("peer.1.pool");
  never_armed.append(at_s(0), 1.9);
  never_armed.append(at_s(1), 1.0);
  Series& armed_but_high = store.series("peer.2.pool");
  armed_but_high.append(at_s(0), 4.0);
  armed_but_high.append(at_s(1), 1.1);
  EXPECT_TRUE(obs::scan_anomalies(store, {}).empty());
}

TEST(AnomalyBoundary, PoolSingleSampleIsInitialConditionNotCollapse) {
  TimeSeriesStore store;
  store.series("peer.3.pool").append(at_s(0), 1.0);
  EXPECT_TRUE(obs::scan_anomalies(store, {}).empty());
}

TEST(AnomalyBoundary, AvailabilityExactlyTwoReplicasIsSafe) {
  // The low threshold is <= 1.5 ("below 2 replicas"): exactly 2 online
  // replicas must not flag; exactly 1 must.
  TimeSeriesStore store;
  Series& safe = store.series(SwarmSampler::segment_series(1));
  safe.append(at_s(0), 3.0);
  safe.append(at_s(1), 2.0);
  const std::vector<Anomaly> none = obs::scan_anomalies(store, {});
  EXPECT_TRUE(none.empty());
  Series& fragile = store.series(SwarmSampler::segment_series(2));
  fragile.append(at_s(0), 3.0);
  fragile.append(at_s(1), 1.0);
  const std::vector<Anomaly> anomalies = obs::scan_anomalies(store, {});
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, "low_availability");
  EXPECT_EQ(anomalies[0].segment, 2);
}

TEST(AnomalyBoundary, AvailabilitySingleSampleNeverFlags) {
  // One sample cannot both arm (>= 2 replicas) and drop (< 2).
  TimeSeriesStore store;
  store.series(SwarmSampler::segment_series(0)).append(at_s(0), 1.0);
  EXPECT_TRUE(obs::scan_anomalies(store, {}).empty());
}

TEST(AnomalyBoundary, SeederSaturationNeedsExactlyThreeSamples) {
  // Sustained = >= 3 raw samples: two busy samples stay quiet, three
  // flag. Run both cases through the same series shape.
  for (const int busy : {2, 3}) {
    TimeSeriesStore store;
    Series& slots = store.series("swarm.seeder_upload_slots");
    Series& active = store.series("swarm.seeder_active_uploads");
    for (int i = 0; i < 4; ++i) {
      slots.append(at_s(i), 2.0);
      active.append(at_s(i), i < busy ? 2.0 : 0.0);
    }
    const std::vector<Anomaly> anomalies = obs::scan_anomalies(store, {});
    if (busy < 3) {
      EXPECT_TRUE(anomalies.empty()) << busy << " busy samples";
    } else {
      ASSERT_EQ(anomalies.size(), 1u) << busy << " busy samples";
      EXPECT_EQ(anomalies[0].kind, "seeder_saturation");
      EXPECT_EQ(anomalies[0].onset, at_s(0));
      EXPECT_EQ(anomalies[0].end, at_s(2));
    }
  }
}

TEST(AnomalyBoundary, SeederWithZeroSlotsNeverSaturates) {
  TimeSeriesStore store;
  for (int i = 0; i < 4; ++i) {
    store.series("swarm.seeder_upload_slots").append(at_s(i), 0.0);
    store.series("swarm.seeder_active_uploads").append(at_s(i), 0.0);
  }
  EXPECT_TRUE(obs::scan_anomalies(store, {}).empty());
}

TEST(AnomalyBoundary, GarbageRatioExactlyHalfIsNotGarbageHeavy) {
  // The threshold is strictly > 0.5: a heap sitting at exactly one half
  // garbage must not flag, however long it stays there.
  TimeSeriesStore store;
  Series& ratio = store.series("sim.garbage_ratio");
  for (int i = 0; i < 5; ++i) ratio.append(at_s(i), 0.5);
  EXPECT_TRUE(obs::scan_anomalies(store, {}).empty());
}

TEST(AnomalyBoundary, GarbageRatioAboveHalfNeedsThreeSamples) {
  for (const int heavy : {2, 3}) {
    TimeSeriesStore store;
    Series& ratio = store.series("sim.garbage_ratio");
    for (int i = 0; i < 4; ++i) {
      ratio.append(at_s(i), i < heavy ? 0.6 : 0.1);
    }
    const std::vector<Anomaly> anomalies = obs::scan_anomalies(store, {});
    if (heavy < 3) {
      EXPECT_TRUE(anomalies.empty()) << heavy << " heavy samples";
    } else {
      ASSERT_EQ(anomalies.size(), 1u) << heavy << " heavy samples";
      EXPECT_EQ(anomalies[0].kind, "event_queue_garbage");
      EXPECT_NE(anomalies[0].detail.find("60%"), std::string::npos)
          << anomalies[0].detail;
    }
  }
}

TEST(AnomalyBoundary, GarbageSingleSampleIsABurstNotAnAnomaly) {
  TimeSeriesStore store;
  store.series("sim.garbage_ratio").append(at_s(0), 0.9);
  EXPECT_TRUE(obs::scan_anomalies(store, {}).empty());
}

// ----------------------------------------------- end-to-end scenario runs

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

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

TEST(Snapshot, ByteIdenticalAcrossSameSeedRuns) {
  experiments::ScenarioConfig config = small_scenario();
  config.snapshot_json_path = temp_path("snap_a.json");
  (void)experiments::run_scenario(config);
  const std::string a = read_file(config.snapshot_json_path);

  config.snapshot_json_path = temp_path("snap_b.json");
  (void)experiments::run_scenario(config);
  const std::string b = read_file(config.snapshot_json_path);

  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.front(), '{');
  EXPECT_EQ(a.substr(a.size() - 2), "}\n");
}

TEST(Snapshot, IntervalNotDividingRunLengthStillSamplesToTheEnd) {
  experiments::ScenarioConfig config = small_scenario();
  config.sample_interval = Duration::seconds(0.7);  // never divides evenly
  config.snapshot_json_path = temp_path("snap_odd.json");
  const experiments::ScenarioResult result =
      experiments::run_scenario(config);
  const std::string snapshot = read_file(config.snapshot_json_path);
  ASSERT_FALSE(snapshot.empty());
  // The closing sample lands exactly at the wall-time end of the run.
  char expect[64];
  std::snprintf(expect, sizeof expect, "%lld",
                static_cast<long long>(result.wall_time.count_micros()));
  EXPECT_NE(snapshot.find(expect), std::string::npos);
  EXPECT_NE(snapshot.find("\"swarm.goodput_Bps\""), std::string::npos);
}

TEST(Snapshot, ZeroLengthRunProducesAValidSnapshot) {
  experiments::ScenarioConfig config = small_scenario();
  config.time_limit = Duration::zero();
  config.snapshot_json_path = temp_path("snap_zero.json");
  const experiments::ScenarioResult result =
      experiments::run_scenario(config);
  EXPECT_EQ(result.viewer_count, 4u);
  const std::string snapshot = read_file(config.snapshot_json_path);
  ASSERT_FALSE(snapshot.empty());
  EXPECT_EQ(snapshot.front(), '{');
  EXPECT_EQ(snapshot.substr(snapshot.size() - 2), "}\n");
  EXPECT_NE(snapshot.find("\"series\""), std::string::npos);
}

TEST(Report, EveryStallAttributedAndHtmlSelfContained) {
  experiments::ScenarioConfig config = small_scenario();
  config.bandwidth = Rate::kilobytes_per_second(96);  // force stalls
  config.splicer = "gop";
  config.report_html_path = temp_path("report.html");
  config.snapshot_json_path = temp_path("report.json");
  const experiments::ScenarioResult result =
      experiments::run_scenario(config);
  ASSERT_GT(result.total_stalls, 0) << "scenario was meant to stall";
  EXPECT_GT(result.anomaly_count, 0u);

  const std::string html = read_file(config.report_html_path);
  ASSERT_FALSE(html.empty());
  // Self-contained: inline SVG + CSS, no external fetches of any kind.
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("<style"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  EXPECT_EQ(html.find("src="), std::string::npos);
  EXPECT_EQ(html.find("<script"), std::string::npos);
  // The anomaly and stall tables made it in.
  EXPECT_NE(html.find("anomaly"), std::string::npos);
  EXPECT_NE(html.find("stall"), std::string::npos);
}

TEST(Report, BuildReportAttributesEveryStall) {
  obs::ObsOptions options;
  options.spans = true;
  obs::Observability observability{options};

  // No outputs requested, so run_scenario nests no Observability of its
  // own and every span lands in ours.
  experiments::ScenarioConfig config = small_scenario();
  config.bandwidth = Rate::kilobytes_per_second(96);
  config.splicer = "gop";
  (void)experiments::run_scenario(config);
  // Even with an empty store (no sampled series) attribution holds,
  // because scan_anomalies emits one buffer_drain per recorded stall.
  obs::TimeSeriesStore store;
  const auto anomalies = obs::scan_anomalies(store, observability.spans());
  const auto stalls = obs::explain_stalls(observability.spans(), anomalies);
  ASSERT_FALSE(stalls.empty()) << "scenario was meant to stall";
  for (const auto& stall : stalls) {
    EXPECT_FALSE(stall.anomalies.empty())
        << "unattributed stall on node " << stall.node;
  }
}

// ------------------------------------------------------- JSON hardening

TEST(JsonlRoundTrip, AdversarialStringsSurviveExactly) {
  const std::vector<std::string> nasty{
      std::string{"control\x01\x02\x1f chars"},
      std::string{"quotes \" and \\ backslashes \\\" mixed"},
      std::string{"newline\ntab\tcr\rbackspace\bformfeed\f"},
      std::string{"utf-8: caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x8e\xac"},
      std::string{"embedded\x00null", 13},
      std::string{"\x7f del and \xff\xfe invalid utf8"},
  };
  for (const std::string& text : nasty) {
    const std::string line = "{\"text\":" + obs::json_escape(text) + "}";
    for (const char c : line) {
      EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 &&
                  static_cast<unsigned char>(c) < 0x7f)
          << "non-ASCII byte in JSON output";
    }
    obs::JsonValue parsed;
    std::string error;
    ASSERT_TRUE(obs::parse_json(line, parsed, error)) << line << ": " << error;
    ASSERT_NE(parsed.find("text"), nullptr);
    EXPECT_EQ(parsed.find("text")->string, text) << line;
  }
}

TEST(JsonlRoundTrip, JsonEscapeIsPureAsciiAndStable) {
  const std::string text = "\x01 caf\xc3\xa9 \"x\" \\y\\ \n";
  const std::string escaped = obs::json_escape(text);
  EXPECT_EQ(escaped, obs::json_escape(text));  // deterministic
  for (const char c : escaped) {
    EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 &&
                static_cast<unsigned char>(c) < 0x7f);
  }
}

}  // namespace
}  // namespace vsplice
