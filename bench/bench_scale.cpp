// Swarm-size scaling benchmark for the large-swarm scheduling engine.
//
// Sweeps the swarm from the paper's 20 VMs up to thousands of peers per
// splicing technique and reports, for each point:
//   - wall-clock seconds per simulated minute (the cost of simulating),
//   - scheduling-decision counts (segment picks / holder picks) and the
//     candidates examined per decision,
//   - QoE shape checks (viewers start, startups are positive, decision
//     volume grows with the swarm).
// At 500 peers it re-runs the retained brute-force selection path — the
// exact pre-optimization algorithms, kept as an oracle — and records two
// speedups: whole-run wall time (which includes the shared network/event
// simulation both paths pay equally) and scheduling-engine wall time
// (measured inside segment/holder selection via SchedulerStats). The
// whole-run ratio must exceed 1; the scheduling ratio is recorded but
// not gated, since a fixed wall-clock line flaps on a shared machine.
// The oracle must make the same number of decisions, and the 20-peer
// paper configuration is also run both ways and checked for identical
// results (same stalls, same startup, same decisions), the guardrail
// that the optimization did not change the science.
// Past the sweep, a join-wave frontier (DESIGN.md §15): 50,000 and
// 100,000 peers (full mode also 10k/20k) at a fixed service-bounded
// arrival rate over a 75-simulated-second slice, the scale at which
// per-peer registry/SoA costs and scoped reallocation are recorded.
//
//   ./bench_scale            full sweep  {20,100,500,1000,2000} x {gop,4s}
//                            + frontier {10000,20000,50000,100000}
//   ./bench_scale --quick    CI sweep    {20,100,500} x {4s}
//                            + frontier {50000,100000}
//
// Writes BENCH_scale.json; exit code 1 when any check fails.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "experiments/paper_setup.h"

namespace {

using namespace vsplice;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

experiments::ScenarioConfig scale_config(std::size_t nodes,
                                         const std::string& splicer) {
  experiments::ScenarioConfig config;
  config.splicer = splicer;
  config.policy = "adaptive";
  config.bandwidth = Rate::kilobytes_per_second(256);
  config.nodes = nodes;
  config.seed = 1;
  // Fixed simulated horizon so runs of very different swarm sizes stay
  // comparable: the metric is the cost of simulating a minute, not of
  // finishing the video.
  config.time_limit = Duration::seconds(240.0);
  return config;
}

struct RunPoint {
  experiments::ScenarioResult result;
  double wall_s = 0;
  double wall_s_per_sim_min = 0;
};

RunPoint run_point(const experiments::ScenarioConfig& config) {
  const auto start = std::chrono::steady_clock::now();
  RunPoint point;
  point.result = experiments::run_scenario(config);
  point.wall_s = seconds_since(start);
  const double sim_minutes = point.result.wall_time.as_seconds() / 60.0;
  point.wall_s_per_sim_min =
      sim_minutes > 0 ? point.wall_s / sim_minutes : 0.0;
  return point;
}

std::string key(std::size_t nodes, const std::string& splicer,
                const char* metric) {
  std::string out = "n";
  out += std::to_string(nodes);
  out += '.';
  out += splicer;
  out += '.';
  out += metric;
  return out;
}

int run_bench(bool quick) {
  std::printf("swarm-size scaling benchmark (%s)\n",
              quick ? "quick" : "full");
  bench::BenchResults results{"scale"};

  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{20, 100, 500}
            : std::vector<std::size_t>{20, 100, 500, 1000, 2000};
  const std::vector<std::string> splicers =
      quick ? std::vector<std::string>{"4s"}
            : std::vector<std::string>{"gop", "4s"};

  // --- Incremental-path sweep.
  std::uint64_t picks_at_smallest = 0;
  std::uint64_t picks_at_largest = 0;
  double per_peer_at_smallest = 0;
  double per_peer_at_largest = 0;
  bool qoe_ok = true;
  for (const std::string& splicer : splicers) {
    for (std::size_t nodes : sizes) {
      const RunPoint point = run_point(scale_config(nodes, splicer));
      const experiments::ScenarioResult& r = point.result;
      const std::uint64_t picks = r.segment_picks + r.holder_picks;
      const double per_decision =
          picks > 0 ? static_cast<double>(r.candidates_scanned) /
                          static_cast<double>(picks)
                    : 0.0;
      std::printf(
          "  %4zu peers, %-3s: %6.2f wall-s/sim-min, %9llu decisions, "
          "%6.1f candidates/decision, %7.1f kB/peer, %zu/%zu finished\n",
          nodes, splicer.c_str(), point.wall_s_per_sim_min,
          static_cast<unsigned long long>(picks), per_decision,
          r.memory_bytes_per_peer / 1e3, r.finished_viewers,
          r.viewer_count);
      results.add_value(key(nodes, splicer, "wall_s"), point.wall_s);
      results.add_value(key(nodes, splicer, "wall_s_per_sim_min"),
                        point.wall_s_per_sim_min);
      results.add_value(key(nodes, splicer, "segment_picks"),
                        static_cast<double>(r.segment_picks));
      results.add_value(key(nodes, splicer, "holder_picks"),
                        static_cast<double>(r.holder_picks));
      results.add_value(key(nodes, splicer, "candidates_per_decision"),
                        per_decision);
      results.add_value(key(nodes, splicer, "sched_wall_s"),
                        static_cast<double>(r.scheduling_engine_ns) * 1e-9);
      results.add_value(key(nodes, splicer, "bytes_per_peer"),
                        r.memory_bytes_per_peer);
      results.add_value(key(nodes, splicer, "memory_total_bytes"),
                        static_cast<double>(r.memory_total_bytes));

      // QoE shape: the swarm must actually stream at every size — every
      // run makes decisions, and started viewers have positive startup.
      bool shape = r.segment_picks > 0 && r.holder_picks > 0;
      std::size_t started = 0;
      for (const auto& viewer : r.viewers) {
        if (viewer.started) {
          ++started;
          shape = shape && viewer.startup_time > Duration::zero();
        }
      }
      shape = shape && started > 0;
      qoe_ok = qoe_ok && shape;
      results.add_value(key(nodes, splicer, "started_viewers"),
                        static_cast<double>(started));
      results.add_value(key(nodes, splicer, "mean_startup_s"),
                        r.mean_startup_seconds);
      if (splicer == splicers.front()) {
        if (nodes == sizes.front()) {
          picks_at_smallest = picks;
          per_peer_at_smallest = r.memory_bytes_per_peer;
        }
        if (nodes == sizes.back()) {
          picks_at_largest = picks;
          per_peer_at_largest = r.memory_bytes_per_peer;
        }
      }
    }
  }
  results.check("qoe_shape", qoe_ok,
                "every size streams: decisions made, viewers start, "
                "startups positive");
  results.check("decisions_grow_with_swarm",
                picks_at_largest > picks_at_smallest,
                "scheduling decisions grow with swarm size");
  // Per-peer state must not grow superlinearly with the swarm: the
  // swarm-size sweep spans 25x (quick: 25x too), so a 3x drift in
  // bytes/peer already means some structure is quadratic in peers.
  // Bitfields and holder lists legitimately add O(log n)-ish growth.
  {
    char text[160];
    std::snprintf(text, sizeof text,
                  "per-peer memory stays near-flat across the sweep "
                  "(%.1f kB/peer at %zu -> %.1f kB/peer at %zu)",
                  per_peer_at_smallest / 1e3, sizes.front(),
                  per_peer_at_largest / 1e3, sizes.back());
    results.check("memory_per_peer_sublinear",
                  per_peer_at_smallest > 0 &&
                      per_peer_at_largest <= 3.0 * per_peer_at_smallest,
                  text);
  }

  // --- Join-wave frontier (DESIGN.md §15): tens of thousands of
  // peers. The binding constraint at this scale used to be
  // Network::reallocate — a join wave piles metadata fetches onto the
  // seeder's uplink, and before scoped reallocation (DESIGN.md §16)
  // every flow start/finish rescanned all concurrent flows. The
  // arrival rate is pinned just below the seeder's metadata service
  // rate (~125 joins/s at 256 kB/s) by scaling join_spread with the
  // swarm, and the point measures a fixed 75-simulated-second slice of
  // the wave: the cost of *hosting* n registered peers (tracker,
  // registry, SoA arrays) at a production-shaped constant arrival rate.
  {
    // The 100k point rides in the quick slice too: it only became
    // affordable once reallocation went scoped (the full-rescan wave
    // was O(n^2) in concurrent flows), so it doubles as the regression
    // canary for exactly that optimization.
    const std::vector<std::size_t> frontier_sizes =
        quick ? std::vector<std::size_t>{50000, 100000}
              : std::vector<std::size_t>{10000, 20000, 50000, 100000};
    bool streams = true;
    bool memory_ok = true;
    bool scoped_ok = true;
    for (const std::size_t nodes : frontier_sizes) {
      experiments::ScenarioConfig config = scale_config(nodes, "4s");
      config.join_spread =
          Duration::seconds(static_cast<double>(nodes) / 125.0);
      // Startup takes ~50 simulated seconds under this contention;
      // 75 s leaves the early wave comfortably started.
      config.time_limit = Duration::seconds(75.0);
      config.announce_max_peers = 20;
      std::printf("  %5zu peers, join-wave frontier running...\n", nodes);
      const RunPoint point = run_point(config);
      const experiments::ScenarioResult& r = point.result;
      std::size_t started = 0;
      for (const auto& viewer : r.viewers) {
        if (viewer.started) ++started;
      }
      std::printf(
          "  %5zu peers, 4s : %6.2f wall-s, %zu started, %9llu "
          "decisions, %llu HAVEs, %5.1f kB/peer\n",
          nodes, point.wall_s, started,
          static_cast<unsigned long long>(r.segment_picks +
                                          r.holder_picks),
          static_cast<unsigned long long>(r.control_have_updates),
          r.memory_bytes_per_peer / 1e3);
      const std::string prefix = "frontier.n" + std::to_string(nodes);
      const auto fkey = [&prefix](const char* metric) {
        return prefix + "." + metric;
      };
      results.add_value(fkey("wall_s"), point.wall_s);
      results.add_value(fkey("started_viewers"),
                        static_cast<double>(started));
      results.add_value(fkey("segment_picks"),
                        static_cast<double>(r.segment_picks));
      results.add_value(fkey("holder_picks"),
                        static_cast<double>(r.holder_picks));
      results.add_value(fkey("events_fired"),
                        static_cast<double>(r.events_fired));
      results.add_value(fkey("bytes_per_peer"), r.memory_bytes_per_peer);
      results.add_value(fkey("memory_total_bytes"),
                        static_cast<double>(r.memory_total_bytes));
      results.add_value(fkey("control_have_updates"),
                        static_cast<double>(r.control_have_updates));
      results.add_value(fkey("realloc_touched_ratio"),
                        r.reallocate_touched_flows_ratio);
      results.add_value(fkey("heap_compactions"),
                        static_cast<double>(r.heap_compactions));
      streams = streams && r.segment_picks > 0 && r.holder_picks > 0 &&
                started > 0;
      // The whole point of scoped reallocation: a join wave must not
      // retouch every concurrent flow on every flow event. Ratio 1.0
      // means every reallocation was forced full — the coupling graph
      // degenerated (e.g. a finite hub) and the O(n^2) wall is back.
      scoped_ok = scoped_ok && r.reallocations_scoped > 0 &&
                  r.reallocate_touched_flows_ratio > 0 &&
                  r.reallocate_touched_flows_ratio < 1.0;
      // Registry + SoA arrays must stay small per registered peer even
      // when most of the swarm has not joined yet; a quadratic
      // node-indexed structure would blow far past this cap.
      memory_ok = memory_ok && r.memory_bytes_per_peer > 0 &&
                  r.memory_bytes_per_peer <= 48.0 * 1e3;
    }
    results.check("frontier_streams", streams,
                  "every join-wave frontier point makes scheduling "
                  "decisions and starts viewers");
    results.check("frontier_memory_bounded", memory_ok,
                  "frontier points stay <= 48 kB per registered peer");
    results.check("frontier_scoped_realloc", scoped_ok,
                  "frontier points keep reallocate_touched_flows_ratio "
                  "strictly below 1 (no full-rescan collapse)");
  }

  // --- Paper-fidelity guardrail: at 20 peers the oracle and the
  // incremental path must agree exactly.
  {
    experiments::ScenarioConfig config = scale_config(20, "4s");
    config.time_limit = Duration::minutes(60.0);  // the real experiment
    const RunPoint fast = run_point(config);
    config.brute_force_scheduling = true;
    const RunPoint oracle = run_point(config);
    const experiments::ScenarioResult& a = oracle.result;
    const experiments::ScenarioResult& b = fast.result;
    const bool identical =
        a.total_stalls == b.total_stalls &&
        a.total_stall_seconds == b.total_stall_seconds &&
        a.mean_startup_seconds == b.mean_startup_seconds &&
        a.wall_time.count_micros() == b.wall_time.count_micros() &&
        a.requests_served == b.requests_served &&
        a.requests_choked == b.requests_choked &&
        a.segment_picks == b.segment_picks &&
        a.holder_picks == b.holder_picks;
    results.check("paper_config_identical", identical,
                  "20-peer paper run: brute-force oracle and incremental "
                  "path produce identical results");
  }

  // --- The headline: speedup over the retained brute-force path at
  // 500 peers. Whole-run wall time includes the network/event
  // simulation both paths share, so the scheduling engine itself is
  // compared on the wall time measured inside segment/holder selection.
  {
    const std::size_t nodes = 500;
    experiments::ScenarioConfig config = scale_config(nodes, "4s");
    const RunPoint fast = run_point(config);
    config.brute_force_scheduling = true;
    std::printf("  %4zu peers, brute-force oracle running...\n", nodes);
    const RunPoint oracle = run_point(config);
    const double total_speedup =
        fast.wall_s > 0 ? oracle.wall_s / fast.wall_s : 0.0;
    const double oracle_sched_s =
        static_cast<double>(oracle.result.scheduling_engine_ns) * 1e-9;
    const double fast_sched_s =
        static_cast<double>(fast.result.scheduling_engine_ns) * 1e-9;
    const double sched_speedup =
        fast_sched_s > 0 ? oracle_sched_s / fast_sched_s : 0.0;
    std::printf(
        "  %4zu peers: whole run %.2f s vs %.2f s (%.1fx); scheduling "
        "engine %.3f s vs %.3f s (%.1fx)\n",
        nodes, oracle.wall_s, fast.wall_s, total_speedup, oracle_sched_s,
        fast_sched_s, sched_speedup);
    results.add_value("oracle.n500.wall_s", oracle.wall_s);
    results.add_value("incremental.n500.wall_s", fast.wall_s);
    results.add_value("oracle.n500.sched_wall_s", oracle_sched_s);
    results.add_value("incremental.n500.sched_wall_s", fast_sched_s);
    results.add_value("speedup.n500.total", total_speedup);
    results.add_value("speedup.n500.scheduling", sched_speedup);
    results.add_value(
        "oracle.n500.candidates_scanned",
        static_cast<double>(oracle.result.candidates_scanned));
    results.add_value(
        "incremental.n500.candidates_scanned",
        static_cast<double>(fast.result.candidates_scanned));
    results.check("oracle_slower_overall", total_speedup > 1.0,
                  "whole-run wall time also improves over the oracle at "
                  "500 peers");
    results.check(
        "oracle_decisions_match",
        oracle.result.segment_picks == fast.result.segment_picks &&
            oracle.result.holder_picks == fast.result.holder_picks,
        "oracle and incremental make the same number of decisions at "
        "500 peers");
  }

  results.write();
  return results.all_checks_passed() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string{argv[i]} == "--quick") quick = true;
  }
  return run_bench(quick);
}
