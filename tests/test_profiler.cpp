// Hot-path profiler + resource accounting tests: the call-tree
// accumulator, the merge algebra, the disabled-scope no-op contract,
// MemoryBreakdown, the NaN -> null serialization rule, and the
// acceptance gate that profiling does not perturb any figure output
// (all eight quickstart configurations, on vs off).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "experiments/paper_setup.h"
#include "obs/exporters.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/resource.h"
#include "obs/sampler.h"
#include "obs/timeseries.h"

namespace vsplice::obs {
namespace {

// ------------------------------------------------------------- profiler

TEST(Profiler, DisabledScopesAreNoOps) {
  // No profiler installed: scopes must be inert (and obviously not
  // crash). There is nothing to observe except via a later install.
  {
    VSPLICE_PROFILE_SCOPE("outer");
    VSPLICE_PROFILE_SCOPE("inner");
  }
  Profiler profiler;
  EXPECT_TRUE(profiler.snapshot().empty());
}

TEST(Profiler, BuildsNestedTree) {
  Profiler profiler;
  {
    ScopedProfiler installed{&profiler};
    for (int i = 0; i < 3; ++i) {
      VSPLICE_PROFILE_SCOPE("outer");
      {
        VSPLICE_PROFILE_SCOPE("b_child");
      }
      {
        VSPLICE_PROFILE_SCOPE("a_child");
      }
    }
    VSPLICE_PROFILE_SCOPE("toplevel");
  }
  const ProfileSnapshot snapshot = profiler.snapshot();
  ASSERT_EQ(snapshot.entries.size(), 4u);

  // DFS order with children name-sorted at every level: "outer" sorts
  // before "toplevel", and under it "a_child" before "b_child".
  EXPECT_EQ(snapshot.entries[0].path, "outer");
  EXPECT_EQ(snapshot.entries[1].path, "outer/a_child");
  EXPECT_EQ(snapshot.entries[2].path, "outer/b_child");
  EXPECT_EQ(snapshot.entries[3].path, "toplevel");

  const ProfileEntry* outer = snapshot.find("outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 3u);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(outer->name, "outer");
  const ProfileEntry* a = snapshot.find("outer/a_child");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->count, 3u);
  EXPECT_EQ(a->depth, 1u);
  EXPECT_EQ(a->name, "a_child");
  EXPECT_EQ(snapshot.find("missing"), nullptr);
}

TEST(Profiler, TimeAccountingIsConsistent) {
  Profiler profiler;
  {
    ScopedProfiler installed{&profiler};
    for (int i = 0; i < 10; ++i) {
      VSPLICE_PROFILE_SCOPE("parent");
      VSPLICE_PROFILE_SCOPE("child");
      // Burn a little real time so totals are nonzero.
      volatile int sink = 0;
      for (int j = 0; j < 1000; ++j) sink = sink + j;
    }
  }
  const ProfileSnapshot snapshot = profiler.snapshot();
  const ProfileEntry* parent = snapshot.find("parent");
  const ProfileEntry* child = snapshot.find("parent/child");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_GT(parent->total_ns, 0u);
  // A child's total cannot exceed its parent's (it is nested inside),
  // and self = total - children (clamped) must respect that.
  EXPECT_LE(child->total_ns, parent->total_ns);
  EXPECT_EQ(parent->self_ns, parent->total_ns - child->total_ns);
  // A leaf's self time is its total.
  EXPECT_EQ(child->self_ns, child->total_ns);
  // The longest visit is at least the mean visit.
  EXPECT_GE(parent->max_ns, parent->total_ns / parent->count);
}

TEST(Profiler, SameNameUnderDifferentParentsAreDistinctNodes) {
  Profiler profiler;
  {
    ScopedProfiler installed{&profiler};
    {
      VSPLICE_PROFILE_SCOPE("a");
      VSPLICE_PROFILE_SCOPE("shared");
    }
    {
      VSPLICE_PROFILE_SCOPE("b");
      VSPLICE_PROFILE_SCOPE("shared");
    }
  }
  const ProfileSnapshot snapshot = profiler.snapshot();
  EXPECT_NE(snapshot.find("a/shared"), nullptr);
  EXPECT_NE(snapshot.find("b/shared"), nullptr);
  EXPECT_EQ(snapshot.find("shared"), nullptr);
}

TEST(Profiler, ResetDropsTree) {
  Profiler profiler;
  {
    ScopedProfiler installed{&profiler};
    VSPLICE_PROFILE_SCOPE("phase");
  }
  EXPECT_FALSE(profiler.snapshot().empty());
  profiler.reset();
  EXPECT_TRUE(profiler.snapshot().empty());
  // Still usable after reset.
  {
    ScopedProfiler installed{&profiler};
    VSPLICE_PROFILE_SCOPE("again");
  }
  EXPECT_NE(profiler.snapshot().find("again"), nullptr);
}

TEST(Profiler, InstallIsScopedAndRestoresPrevious) {
  Profiler first;
  Profiler second;
  {
    ScopedProfiler outer{&first};
    {
      ScopedProfiler inner{&second};
      VSPLICE_PROFILE_SCOPE("inner_only");
    }
    VSPLICE_PROFILE_SCOPE("outer_only");
  }
  EXPECT_NE(second.snapshot().find("inner_only"), nullptr);
  EXPECT_EQ(second.snapshot().find("outer_only"), nullptr);
  EXPECT_NE(first.snapshot().find("outer_only"), nullptr);
  EXPECT_EQ(first.snapshot().find("inner_only"), nullptr);
}

TEST(Profiler, MergeSumsByPath) {
  Profiler one;
  {
    ScopedProfiler installed{&one};
    VSPLICE_PROFILE_SCOPE("shared");
  }
  Profiler two;
  {
    ScopedProfiler installed{&two};
    {
      VSPLICE_PROFILE_SCOPE("shared");
    }
    VSPLICE_PROFILE_SCOPE("only_two");
  }
  const ProfileSnapshot merged = merge(one.snapshot(), two.snapshot());
  const ProfileEntry* shared = merged.find("shared");
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->count, 2u);
  EXPECT_EQ(shared->total_ns, one.snapshot().find("shared")->total_ns +
                                  two.snapshot().find("shared")->total_ns);
  EXPECT_EQ(shared->max_ns,
            std::max(one.snapshot().find("shared")->max_ns,
                     two.snapshot().find("shared")->max_ns));
  ASSERT_NE(merged.find("only_two"), nullptr);
  EXPECT_EQ(merged.find("only_two")->count, 1u);
  // Merging with an empty snapshot is the identity.
  const ProfileSnapshot same = merge(one.snapshot(), ProfileSnapshot{});
  ASSERT_EQ(same.entries.size(), one.snapshot().entries.size());
  EXPECT_EQ(same.entries[0].count, one.snapshot().entries[0].count);
}

TEST(Profiler, ToTextListsEveryPhase) {
  Profiler profiler;
  {
    ScopedProfiler installed{&profiler};
    VSPLICE_PROFILE_SCOPE("alpha.phase");
    VSPLICE_PROFILE_SCOPE("beta.phase");
  }
  const std::string text = profiler.snapshot().to_text();
  EXPECT_NE(text.find("alpha.phase"), std::string::npos);
  EXPECT_NE(text.find("beta.phase"), std::string::npos);
  EXPECT_NE(text.find("count"), std::string::npos);
}

// ----------------------------------------------------- memory breakdown

TEST(MemoryBreakdown, AddSortsAndAccumulates) {
  MemoryBreakdown memory;
  EXPECT_TRUE(memory.empty());
  memory.add("net", 100);
  memory.add("content", 30);
  memory.add("net", 20);
  EXPECT_EQ(memory.subsystems.size(), 2u);
  EXPECT_EQ(memory.subsystems[0].first, "content");  // sorted
  EXPECT_EQ(memory.subsystems[1].first, "net");
  EXPECT_EQ(memory.bytes("net"), 120u);
  EXPECT_EQ(memory.bytes("absent"), 0u);
  EXPECT_EQ(memory.total(), 150u);
}

TEST(MemoryBreakdown, MergeIsUnionWithSums) {
  MemoryBreakdown a;
  a.add("sim", 10);
  a.add("net", 5);
  MemoryBreakdown b;
  b.add("sim", 1);
  b.add("p2p.pool", 7);
  const MemoryBreakdown merged = merge(a, b);
  EXPECT_EQ(merged.bytes("sim"), 11u);
  EXPECT_EQ(merged.bytes("net"), 5u);
  EXPECT_EQ(merged.bytes("p2p.pool"), 7u);
  EXPECT_EQ(merged.total(), 23u);
}

// ------------------------------------------------- NaN/Inf -> null rule

TEST(NanSerialization, SnapshotJsonEmitsNull) {
  // A series fed a non-finite value must render as null in the JSON
  // snapshot (fmt_g), keeping the file parseable.
  TimeSeriesStore store;
  store.series("poisoned")
      .append(TimePoint::origin(),
              std::numeric_limits<double>::quiet_NaN());
  store.series("poisoned")
      .append(TimePoint::from_seconds(1.0),
              std::numeric_limits<double>::infinity());
  RunInfo info;
  info.title = "poisoned-series test";
  const ReportData report = build_report(std::move(info), store, {}, nullptr);
  const std::string json = render_json_snapshot(report);
  EXPECT_NE(json.find("null"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_EQ(json.find("inf"), std::string::npos) << json;
}

// ------------------------------------- figures unchanged by profiling

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
  // The deterministic accounting must agree too: the profiler may not
  // change how many events fired or what any structure holds.
  EXPECT_EQ(off.events_fired, on.events_fired) << label;
  EXPECT_EQ(off.heap_high_water, on.heap_high_water) << label;
  EXPECT_EQ(off.memory_total_bytes, on.memory_total_bytes) << label;
}

/// The acceptance gate: all eight quickstart figure configurations
/// (four splicing techniques x two pool policies) must produce
/// byte-identical per-viewer QoE, decision counts, and resource
/// accounting with the profiler on vs off.
TEST(ProfilerDifferential, QuickstartConfigsIdenticalOnVsOff) {
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

      config.profile = false;
      const auto off = experiments::run_scenario(config);
      config.profile = true;
      const auto on = experiments::run_scenario(config);

      const std::string label = splicer + "/" + policy;
      expect_identical_figures(off, on, label);
      // Sanity: real runs, and the profiled one actually profiled.
      EXPECT_EQ(on.viewer_count, 19u) << label;
      EXPECT_GT(on.finished_viewers, 0u) << label;
      EXPECT_TRUE(off.profile.empty()) << label;
      ASSERT_FALSE(on.profile.empty()) << label;
      EXPECT_NE(on.profile.find("sim.fire"), nullptr) << label;
      EXPECT_GT(on.profile.find("sim.fire")->count, 0u) << label;
    }
  }
}

// --------------------------------------------- scenario-level accounting

TEST(ResourceAccounting, ScenarioReportsMemoryAndEventHealth) {
  experiments::ScenarioConfig config;
  config.bandwidth = Rate::kilobytes_per_second(256);
  config.nodes = 20;
  config.seed = 1;
  const experiments::ScenarioResult result =
      experiments::run_scenario(config);

  EXPECT_GT(result.events_fired, 0u);
  EXPECT_GT(result.heap_high_water, 0u);
  ASSERT_FALSE(result.memory.empty());
  // Every instrumented subsystem reports something.
  for (const char* subsystem :
       {"sim", "net", "p2p.sched", "p2p.swarm", "content"}) {
    EXPECT_GT(result.memory.bytes(subsystem), 0u) << subsystem;
  }
  // The message pool is exact per mode: the wire round-trip oracle
  // (VSPLICE_WIRE_ROUNDTRIP=1) delivers decoded copies and never
  // acquires a pool node; the fast path always does.
  if (result.messages_verified == 0) {
    EXPECT_GT(result.memory.bytes("p2p.pool"), 0u);
  } else {
    EXPECT_EQ(result.memory.bytes("p2p.pool"), 0u);
  }
  EXPECT_EQ(result.memory_total_bytes, result.memory.total());
  EXPECT_GT(result.memory_bytes_per_peer, 0.0);
  EXPECT_DOUBLE_EQ(result.memory_bytes_per_peer,
                   static_cast<double>(result.memory_total_bytes) /
                       static_cast<double>(result.viewer_count));
  // No sampling: peak falls back to the end-of-run total.
  EXPECT_EQ(result.memory_peak_bytes, result.memory_total_bytes);
}

TEST(ResourceAccounting, SamplerRecordsHealthAndMemorySeries) {
  experiments::ScenarioConfig config;
  config.bandwidth = Rate::kilobytes_per_second(256);
  config.nodes = 20;
  config.seed = 1;
  config.sample_interval = Duration::seconds(1.0);
  const experiments::ScenarioResult result =
      experiments::run_scenario(config);
  // Sampling adds the timeseries store itself to the breakdown, and the
  // peak can only be at or above the end-of-run total's floor of zero.
  EXPECT_GT(result.memory.bytes("obs.timeseries"), 0u);
  EXPECT_GE(result.memory_peak_bytes, 0u);
  EXPECT_GT(result.memory_peak_bytes, result.memory_total_bytes / 2);
}

}  // namespace
}  // namespace vsplice::obs
