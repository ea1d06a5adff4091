// Scenario-harness tests: small versions of the paper's experiment grid.
#include "experiments/paper_setup.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "experiments/sweep.h"

namespace vsplice::experiments {
namespace {

ScenarioConfig small_config() {
  ScenarioConfig config;
  config.nodes = 6;  // keep integration runs quick
  config.bandwidth = Rate::kilobytes_per_second(512);
  config.join_spread = Duration::seconds(10);
  return config;
}

TEST(Scenario, RunsAndCollectsAllViewers) {
  const ScenarioResult result = run_scenario(small_config());
  EXPECT_EQ(result.viewer_count, 5u);
  EXPECT_EQ(result.viewers.size(), 5u);
  EXPECT_EQ(result.finished_viewers, 5u);
  EXPECT_GT(result.mean_startup_seconds, 0.0);
  EXPECT_GT(result.segment_count, 0u);
  EXPECT_GT(result.total_transfer_bytes, result.media_bytes);
  EXPECT_GT(result.wall_time, Duration::seconds(120));
  EXPECT_GT(result.network_bytes_delivered, 0.0);
}

TEST(Scenario, DeterministicInSeed) {
  ScenarioConfig config = small_config();
  config.seed = 7;
  const ScenarioResult a = run_scenario(config);
  const ScenarioResult b = run_scenario(config);
  EXPECT_EQ(a.total_stalls, b.total_stalls);
  EXPECT_EQ(a.total_stall_seconds, b.total_stall_seconds);
  EXPECT_EQ(a.mean_startup_seconds, b.mean_startup_seconds);
}

TEST(Scenario, SeedChangesOutcomeDetails) {
  ScenarioConfig config = small_config();
  config.seed = 1;
  const ScenarioResult a = run_scenario(config);
  config.seed = 2;
  const ScenarioResult b = run_scenario(config);
  // The seed draws the join times, so the simulated wall clock (last
  // join + playback) must move with it. Startup latency itself can be
  // seed-invariant here: with exact completion ETAs, uncontended viewers
  // all fill their startup buffer in the same time regardless of when
  // they join.
  EXPECT_NE(a.wall_time, b.wall_time);
}

TEST(Scenario, SplicerSpecControlsSegmentation) {
  ScenarioConfig config = small_config();
  config.splicer = "gop";
  const ScenarioResult gop = run_scenario(config);
  EXPECT_EQ(gop.overhead_ratio, 0.0);
  config.splicer = "2s";
  const ScenarioResult two = run_scenario(config);
  EXPECT_GT(two.overhead_ratio, 0.05);
  EXPECT_GT(gop.segment_count, two.segment_count);
}

TEST(Scenario, ChurnProducesDepartures) {
  ScenarioConfig config = small_config();
  config.nodes = 8;
  config.churn = true;
  config.churn_mean_lifetime = Duration::seconds(30);
  const ScenarioResult result = run_scenario(config);
  EXPECT_GT(result.churn_departures, 0u);
  // Churned runs stay deterministic in the seed.
  const ScenarioResult again = run_scenario(config);
  EXPECT_EQ(result.churn_departures, again.churn_departures);
  EXPECT_EQ(result.total_stalls, again.total_stalls);
}

TEST(Scenario, RepeatedAveragesRuns) {
  ScenarioConfig config = small_config();
  const RepeatedResult repeated = run_repeated(config, 2);
  EXPECT_EQ(repeated.runs.size(), 2u);
  EXPECT_GE(repeated.stalls, 0.0);
  EXPECT_GE(repeated.startup_seconds, 0.0);
  // The rounded average matches its inputs.
  const double mean = (repeated.runs[0].total_stalls +
                       repeated.runs[1].total_stalls) /
                      2.0;
  EXPECT_NEAR(repeated.stalls, mean, 0.51);
}

TEST(Sweep, GridShapeAndTables) {
  ScenarioConfig base = small_config();
  const std::vector<Rate> bandwidths{Rate::kilobytes_per_second(256),
                                     Rate::kilobytes_per_second(1024)};
  const std::vector<SweepSeries> series{
      {"4 sec", [](ScenarioConfig& c) { c.splicer = "4s"; }},
      {"8 sec", [](ScenarioConfig& c) { c.splicer = "8s"; }},
  };
  const SweepResult sweep = run_sweep(base, bandwidths, series, 1);
  ASSERT_EQ(sweep.cells.size(), 2u);
  ASSERT_EQ(sweep.cells[0].size(), 2u);
  EXPECT_EQ(sweep.series_labels[1], "8 sec");

  const Table table = sweep.table(
      [](const RepeatedResult& r) { return r.startup_seconds; }, 2);
  const std::string text = table.to_string();
  EXPECT_NE(text.find("256 kB/s"), std::string::npos);
  EXPECT_NE(text.find("1024 kB/s"), std::string::npos);
  EXPECT_NE(text.find("8 sec"), std::string::npos);

  // Startup ordering within a row: 8 s segments start slower (Fig. 4).
  EXPECT_GT(sweep.at(0, 1).startup_seconds, sweep.at(0, 0).startup_seconds);
  // Startup falls (or at least does not rise) with bandwidth.
  EXPECT_LE(sweep.at(1, 0).startup_seconds,
            sweep.at(0, 0).startup_seconds * 1.25);
}

TEST(Sweep, BandwidthLabel) {
  EXPECT_EQ(bandwidth_label(Rate::kilobytes_per_second(128)), "128 kB/s");
}

TEST(Scenario, RejectsBadConfig) {
  ScenarioConfig config = small_config();
  config.nodes = 1;
  EXPECT_THROW((void)run_scenario(config), InvalidArgument);
  config = small_config();
  config.pair_loss = 1.0;
  EXPECT_THROW((void)run_scenario(config), InvalidArgument);
  config = small_config();
  config.bandwidth = Rate::zero();
  EXPECT_THROW((void)run_scenario(config), InvalidArgument);
  config = small_config();
  config.loop_threads = 4;  // one serial event loop per run, nothing else
  EXPECT_THROW((void)run_scenario(config), InvalidArgument);
  EXPECT_THROW((void)run_repeated(small_config(), 0), InvalidArgument);
}

}  // namespace
}  // namespace vsplice::experiments
