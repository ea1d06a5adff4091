// Scoped-reallocation differential suite (DESIGN.md §16).
//
// The dirty-set reallocator and the lazy progress accounting must be
// BYTE-identical to the retained full-rescan oracle
// (ScenarioConfig::full_reallocation / VSPLICE_FULL_REALLOC=1): same
// rates, same completion microseconds, same uploaded/downloaded
// ledgers, same snapshot files. These tests pin that over 1000
// randomized op sequences, an abort_flows_for mid-wave churn case, the
// eight quickstart figure configs (including churn and 2/4/8 loop
// lanes), and the sim-heap compaction that rides along.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "experiments/paper_setup.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace vsplice::net {
namespace {

// ----------------------------------------- randomized op-sequence runs

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string fmt(Rate r) {
  if (r.is_infinite()) return "inf";
  return fmt(r.bytes_per_second());
}

/// Applies one seeded random start/finish/abort/set_flow_cap/
/// set_node_bandwidth sequence to a fresh Network in the given
/// reallocation mode and logs every observable: completion times,
/// abort deliveries, mid-run rate/remaining/ledger probes, and the
/// final stats. Two logs from the same seed must match line for line.
std::vector<std::string> run_sequence(std::uint64_t seed, bool full) {
  Rng rng{seed};
  std::vector<std::string> log;

  sim::Simulator sim;
  sim.set_event_limit(2'000'000);  // safety valve: a hang fails loudly
  TcpParams tcp;
  // Half the seeds exercise the parallel-TCP downlink derate, where the
  // scoped path maintains effective capacities incrementally and the
  // oracle recomputes them from scratch.
  tcp.parallel_loss_factor = rng.bernoulli(0.5) ? 0.05 : 0.0;
  Network net{sim, tcp};
  net.set_full_reallocation(full);

  constexpr std::size_t kNodes = 6;
  const auto random_rate = [&] {
    return rng.bernoulli(0.25)
               ? Rate::infinity()
               : Rate::kilobytes_per_second(rng.uniform(50.0, 500.0));
  };
  for (std::size_t i = 0; i < kNodes; ++i) {
    NodeSpec spec;
    spec.uplink = random_rate();
    spec.downlink = random_rate();
    spec.one_way_delay = Duration::millis(1);
    net.add_node(spec);
  }

  // Alive-flow bookkeeping is driven purely by the callbacks, which
  // must fire identically in both modes.
  std::vector<FlowId> alive;
  const auto drop = [&](FlowId id) {
    alive.erase(std::remove(alive.begin(), alive.end(), id), alive.end());
  };

  const auto probe = [&] {
    for (const FlowId id : alive) {
      log.push_back("flow " + std::to_string(id.value) + " rate=" +
                    fmt(net.flow_rate(id)) + " remaining=" +
                    std::to_string(net.flow_remaining(id)));
    }
    for (std::size_t n = 0; n < kNodes; ++n) {
      const NodeId node{static_cast<std::uint32_t>(n)};
      log.push_back("node " + std::to_string(n) + " up=" +
                    std::to_string(net.uploaded_by(node)) + " down=" +
                    std::to_string(net.downloaded_by(node)));
    }
    log.push_back("delivered=" + fmt(net.bytes_delivered()));
  };

  for (int op = 0; op < 48; ++op) {
    sim.run_until(sim.now() +
                  Duration::seconds(rng.uniform(0.0, 0.4)));
    const std::int64_t pick = rng.uniform_int(0, 9);
    if (pick <= 3) {  // start (weighted: keeps the table populated)
      const NodeId src{static_cast<std::uint32_t>(rng.index(kNodes))};
      NodeId dst = src;
      while (dst == src)
        dst = NodeId{static_cast<std::uint32_t>(rng.index(kNodes))};
      const Bytes size = rng.uniform_int(1'000, 400'000);
      const Rate cap =
          rng.bernoulli(0.5)
              ? Rate::infinity()
              : Rate::kilobytes_per_second(rng.uniform(20.0, 300.0));
      FlowCallbacks callbacks;
      struct Shared {
        std::vector<std::string>* log;
        std::vector<FlowId>* alive;
        sim::Simulator* sim;
        FlowId id;
      };
      auto shared = std::make_shared<Shared>(Shared{&log, &alive, &sim, {}});
      callbacks.on_complete = [shared] {
        shared->log->push_back(
            "complete " + std::to_string(shared->id.value) + " t_us=" +
            std::to_string(shared->sim->now().count_micros()));
        shared->alive->erase(std::remove(shared->alive->begin(),
                                         shared->alive->end(), shared->id),
                             shared->alive->end());
      };
      callbacks.on_abort = [shared](Bytes delivered) {
        shared->log->push_back(
            "abort " + std::to_string(shared->id.value) + " t_us=" +
            std::to_string(shared->sim->now().count_micros()) +
            " delivered=" + std::to_string(delivered));
      };
      const FlowId id = net.start_flow(src, dst, size, cap, callbacks);
      shared->id = id;
      alive.push_back(id);
      log.push_back("start " + std::to_string(id.value));
    } else if (pick == 4 && !alive.empty()) {
      const FlowId id = alive[rng.index(alive.size())];
      drop(id);
      net.abort_flow(id);
    } else if (pick == 5) {
      const NodeId node{static_cast<std::uint32_t>(rng.index(kNodes))};
      net.abort_flows_for(node);
      // on_abort does not remove from `alive`; sweep the casualties.
      std::erase_if(alive, [&](FlowId id) { return !net.flow_active(id); });
      log.push_back("abort_flows_for " + std::to_string(node.value));
    } else if (pick == 6 && !alive.empty()) {
      const FlowId id = alive[rng.index(alive.size())];
      const Rate cap =
          rng.bernoulli(0.3)
              ? Rate::infinity()
              : Rate::kilobytes_per_second(rng.uniform(20.0, 300.0));
      net.set_flow_cap(id, cap);
      log.push_back("set_cap " + std::to_string(id.value) + " " + fmt(cap));
    } else if (pick == 7) {
      const NodeId node{static_cast<std::uint32_t>(rng.index(kNodes))};
      const Rate up = random_rate();
      const Rate down = random_rate();
      net.set_node_bandwidth(node, up, down);
      log.push_back("set_bw " + std::to_string(node.value) + " " +
                    fmt(up) + " " + fmt(down));
    } else {
      probe();
    }
  }

  // Uncap every survivor so zero-capacity stalls cannot hang the drain,
  // then let everything finish.
  for (std::size_t n = 0; n < kNodes; ++n) {
    net.set_node_bandwidth(NodeId{static_cast<std::uint32_t>(n)},
                           Rate::kilobytes_per_second(200),
                           Rate::kilobytes_per_second(200));
  }
  for (const FlowId id : alive) net.set_flow_cap(id, Rate::infinity());
  sim.run();
  probe();

  const NetworkStats& stats = net.stats();
  log.push_back(
      "stats started=" + std::to_string(stats.flows_started) +
      " completed=" + std::to_string(stats.flows_completed) +
      " aborted=" + std::to_string(stats.flows_aborted) +
      " reallocations=" + std::to_string(stats.reallocations) +
      " scoped=" + std::to_string(stats.reallocations_scoped) +
      " retouched=" + std::to_string(stats.flows_retouched) +
      " active_integral=" + std::to_string(stats.flows_active_integral) +
      " settled=" + std::to_string(stats.flows_settled) +
      " reschedules=" + std::to_string(stats.completion_reschedules) +
      " delivered=" + fmt(stats.bytes_delivered));
  log.push_back("t_end_us=" + std::to_string(sim.now().count_micros()));
  return log;
}

/// The tentpole's unit-level acceptance gate: 1000 seeded random op
/// sequences produce line-identical logs — rates, completion
/// microseconds, per-node ledgers, lazy-settlement counters and all —
/// with scoped reallocation vs the full-rescan oracle.
TEST(ReallocDifferential, MatchesFullRescanOver1000Seeds) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    const std::vector<std::string> scoped = run_sequence(seed, false);
    const std::vector<std::string> oracle = run_sequence(seed, true);
    ASSERT_EQ(scoped.size(), oracle.size()) << "seed " << seed;
    for (std::size_t i = 0; i < scoped.size(); ++i) {
      ASSERT_EQ(scoped[i], oracle[i])
          << "seed " << seed << " log line " << i;
    }
  }
}

/// abort_flows_for mid-wave: a node at the center of a fan of
/// part-complete flows departs; the single reallocation that follows
/// must settle and re-rate survivors identically in both modes, and the
/// aborted flows' partial deliveries must match.
TEST(ReallocDifferential, AbortFlowsForMidWaveChurn) {
  const auto run = [](bool full) {
    std::vector<std::string> log;
    sim::Simulator sim;
    TcpParams tcp;
    tcp.parallel_loss_factor = 0.05;
    Network net{sim, tcp};
    net.set_full_reallocation(full);

    std::vector<NodeId> nodes;
    for (int i = 0; i < 8; ++i) {
      NodeSpec spec;
      spec.uplink = Rate::kilobytes_per_second(100);
      spec.downlink = Rate::kilobytes_per_second(80);
      nodes.push_back(net.add_node(spec));
    }
    // A wave: node 0 uploads to everyone, everyone uploads to node 1 —
    // so aborting node 0 touches every uplink and downlink in use.
    std::vector<FlowId> flows;
    for (int i = 1; i < 8; ++i) {
      flows.push_back(net.start_flow(
          nodes[0], nodes[static_cast<std::size_t>(i)], 500'000,
          Rate::infinity(),
          {[&log, i] { log.push_back("done a" + std::to_string(i)); },
           [&log, i](Bytes b) {
             log.push_back("abort a" + std::to_string(i) + " " +
                           std::to_string(b));
           }}));
    }
    for (int i = 2; i < 8; ++i) {
      flows.push_back(net.start_flow(
          nodes[static_cast<std::size_t>(i)], nodes[1], 300'000,
          Rate::infinity(),
          {[&log, i] { log.push_back("done b" + std::to_string(i)); },
           [&log, i](Bytes b) {
             log.push_back("abort b" + std::to_string(i) + " " +
                           std::to_string(b));
           }}));
    }
    // Mid-wave: every flow is part-complete, none finished.
    sim.run_until(TimePoint::from_seconds(2.0));
    net.abort_flows_for(nodes[0]);
    for (const FlowId id : flows) {
      if (net.flow_active(id)) {
        log.push_back("rate " + std::to_string(id.value) + " " +
                      fmt(net.flow_rate(id)) + " remaining " +
                      std::to_string(net.flow_remaining(id)));
      }
    }
    sim.run();
    for (const NodeId n : nodes) {
      log.push_back("up " + std::to_string(net.uploaded_by(n)) +
                    " down " + std::to_string(net.downloaded_by(n)));
    }
    log.push_back("aborted " + std::to_string(net.stats().flows_aborted) +
                  " settled " + std::to_string(net.stats().flows_settled) +
                  " delivered " + fmt(net.stats().bytes_delivered));
    return log;
  };
  const std::vector<std::string> scoped = run(false);
  const std::vector<std::string> oracle = run(true);
  ASSERT_EQ(scoped, oracle);
  // Sanity: the wave really was mid-flight — aborts delivered bytes.
  bool saw_partial_abort = false;
  for (const std::string& line : scoped) {
    if (line.rfind("abort a", 0) == 0 && line.back() != '0')
      saw_partial_abort = true;
  }
  EXPECT_TRUE(saw_partial_abort);
}

// ---------------------------------------------- sim-heap compaction

/// Compaction must be invisible: fire order is the total order
/// (time, sequence) regardless of heap layout, and generation-tagged
/// EventIds held across a rebuild keep working.
TEST(HeapCompaction, FireOrderAndGenerationTagsSurviveRebuild) {
  sim::Simulator sim;
  Rng rng{7};

  // 4000 events; remember each slot's scheduled time and id.
  std::vector<int> fired;
  std::vector<sim::EventId> ids;
  std::vector<std::int64_t> when_us;
  for (int i = 0; i < 4000; ++i) {
    // Coarse buckets create plenty of timestamp ties, so the FIFO
    // tie-break is exercised across the rebuild too.
    const std::int64_t us = rng.uniform_int(0, 500) * 1000;
    when_us.push_back(us);
    ids.push_back(sim.at(TimePoint::from_micros(us),
                         [&fired, i] { fired.push_back(i); }));
  }
  ASSERT_EQ(sim.pending_events(), 4000u);
  ASSERT_EQ(sim.heap_entries(), 4000u);

  // Cancel 3 of every 4: garbage crosses the 1/2 threshold mid-way and
  // the heap rebuilds (possibly more than once).
  for (int i = 0; i < 4000; ++i) {
    if (i % 4 != 0) {
      ASSERT_TRUE(sim.cancel(ids[static_cast<std::size_t>(i)]));
    }
  }
  EXPECT_GT(sim.heap_compactions(), 0u);
  EXPECT_EQ(sim.pending_events(), 1000u);
  // The rebuild actually dropped garbage: entries track live events
  // far closer than the 4000 raw schedules.
  EXPECT_LT(sim.heap_entries(), 2000u);
  EXPECT_EQ(sim.heap_high_water(), 4000u);  // peak is pre-compaction

  // Generation tags survived: survivors are still pending and still
  // individually cancellable; cancelled ids stay dead.
  EXPECT_TRUE(sim.is_pending(ids[0]));
  EXPECT_FALSE(sim.is_pending(ids[1]));
  EXPECT_FALSE(sim.cancel(ids[1]));
  ASSERT_TRUE(sim.cancel(ids[0]));  // first survivor, cancelled late

  sim.run();

  // Expected order over the remaining survivors: (time, schedule order).
  std::vector<int> expected;
  for (int i = 4; i < 4000; i += 4) expected.push_back(i);
  std::stable_sort(expected.begin(), expected.end(),
                   [&](int a, int b) {
                     return when_us[static_cast<std::size_t>(a)] <
                            when_us[static_cast<std::size_t>(b)];
                   });
  EXPECT_EQ(fired, expected);
}

// ------------------------------------- quickstart-config differential

void expect_identical_figures(const experiments::ScenarioResult& oracle,
                              const experiments::ScenarioResult& scoped,
                              const std::string& label) {
  ASSERT_EQ(oracle.viewers.size(), scoped.viewers.size()) << label;
  for (std::size_t i = 0; i < oracle.viewers.size(); ++i) {
    const streaming::QoeMetrics& a = oracle.viewers[i];
    const streaming::QoeMetrics& b = scoped.viewers[i];
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
  EXPECT_EQ(oracle.total_stalls, scoped.total_stalls) << label;
  EXPECT_EQ(oracle.total_stall_seconds, scoped.total_stall_seconds)
      << label;
  EXPECT_EQ(oracle.mean_startup_seconds, scoped.mean_startup_seconds)
      << label;
  EXPECT_EQ(oracle.finished_viewers, scoped.finished_viewers) << label;
  EXPECT_EQ(oracle.wall_time.count_micros(),
            scoped.wall_time.count_micros())
      << label;
  EXPECT_EQ(oracle.churn_departures, scoped.churn_departures) << label;
  EXPECT_EQ(oracle.requests_served, scoped.requests_served) << label;
  EXPECT_EQ(oracle.requests_choked, scoped.requests_choked) << label;
  EXPECT_EQ(oracle.seeder_uploaded, scoped.seeder_uploaded) << label;
  EXPECT_EQ(oracle.peers_uploaded, scoped.peers_uploaded) << label;
  EXPECT_EQ(oracle.pieces_aborted, scoped.pieces_aborted) << label;
  EXPECT_EQ(oracle.network_bytes_delivered, scoped.network_bytes_delivered)
      << label;
  EXPECT_EQ(oracle.segment_picks, scoped.segment_picks) << label;
  EXPECT_EQ(oracle.holder_picks, scoped.holder_picks) << label;
  EXPECT_EQ(oracle.candidates_scanned, scoped.candidates_scanned) << label;
  EXPECT_EQ(oracle.messages_routed, scoped.messages_routed) << label;
  EXPECT_EQ(oracle.messages_dropped, scoped.messages_dropped) << label;
  // Deterministic event-loop accounting must agree exactly too — the
  // oracle runs the same dirty-set walk for its counters, so flipping
  // the mode changes nothing observable but wall time.
  EXPECT_EQ(oracle.events_fired, scoped.events_fired) << label;
  EXPECT_EQ(oracle.heap_high_water, scoped.heap_high_water) << label;
  EXPECT_EQ(oracle.heap_compactions, scoped.heap_compactions) << label;
  EXPECT_EQ(oracle.reallocations, scoped.reallocations) << label;
  EXPECT_EQ(oracle.reallocations_scoped, scoped.reallocations_scoped)
      << label;
  EXPECT_EQ(oracle.flows_retouched, scoped.flows_retouched) << label;
  EXPECT_EQ(oracle.reallocate_touched_flows_ratio,
            scoped.reallocate_touched_flows_ratio)
      << label;
  EXPECT_EQ(oracle.settled_flows_per_event, scoped.settled_flows_per_event)
      << label;
  EXPECT_EQ(oracle.memory_total_bytes, scoped.memory_total_bytes) << label;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The acceptance gate: all eight quickstart figure configurations
/// (four splicing techniques x two pool policies) must produce
/// byte-identical results AND byte-identical snapshot files with scoped
/// reallocation vs the full-rescan oracle — and the scoped walk must
/// actually pay (touched-flows ratio well below 1).
TEST(ReallocDifferential, QuickstartConfigsIdenticalScopedVsFull) {
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
      const std::string label = splicer + "/" + policy;
      const std::string base = ::testing::TempDir() + "vsplice_realloc_" +
                               splicer + "_" +
                               (policy == "adaptive" ? "a" : "f");

      config.full_reallocation = false;
      config.snapshot_json_path = base + ".scoped.json";
      const auto scoped = experiments::run_scenario(config);
      config.full_reallocation = true;
      config.snapshot_json_path = base + ".full.json";
      const auto oracle = experiments::run_scenario(config);

      expect_identical_figures(oracle, scoped, label);
      const std::string scoped_snapshot = read_file(base + ".scoped.json");
      const std::string oracle_snapshot = read_file(base + ".full.json");
      ASSERT_FALSE(scoped_snapshot.empty()) << label;
      EXPECT_EQ(scoped_snapshot, oracle_snapshot) << label;

      // Sanity: real runs in which scoping engaged and paid.
      EXPECT_EQ(scoped.viewer_count, 19u) << label;
      EXPECT_GT(scoped.finished_viewers, 0u) << label;
      EXPECT_GT(scoped.reallocations_scoped, 0u) << label;
      EXPECT_GT(scoped.reallocate_touched_flows_ratio, 0.0) << label;
      EXPECT_LT(scoped.reallocate_touched_flows_ratio, 1.0) << label;
    }
  }
}

/// Churn composes: departures mid-transfer abort whole flow fans
/// (the abort_flows_for path) while new joins keep starting flows.
TEST(ReallocDifferential, ChurnScenarioIdenticalScopedVsFull) {
  experiments::ScenarioConfig config;
  config.bandwidth = Rate::kilobytes_per_second(256);
  config.nodes = 20;
  config.seed = 1;
  config.churn = true;
  config.churn_mean_lifetime = Duration::seconds(60.0);

  config.full_reallocation = false;
  const auto scoped = experiments::run_scenario(config);
  config.full_reallocation = true;
  const auto oracle = experiments::run_scenario(config);

  expect_identical_figures(oracle, scoped, "churn");
  EXPECT_GT(scoped.churn_departures, 0u);
}

}  // namespace
}  // namespace vsplice::net
