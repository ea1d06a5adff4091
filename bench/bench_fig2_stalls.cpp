// Figure 2 — "Total number of stalls for different bandwidths".
//
// Reproduces the paper's headline splicing comparison: total stall count
// across the 19 viewers of the 20-node swarm, for GOP-based and 2/4/8 s
// duration-based splicing, with the peer bandwidth swept over
// {128, 256, 512, 768} kB/s. Three runs per cell, rounded average, as in
// Section VI-A.
//
//   ./bench_fig2_stalls [--trace BASE] [--report OUT.html]
//                       [--snapshot OUT.json] [--sample-interval S]
//                       [--log-level LEVEL]
//
// With --trace, every grid cell writes BASE.<bandwidth>.<series>.runN
// JSONL traces for offline stall attribution. --report/--snapshot run
// one representative scenario (GOP splicing at 256 kB/s — the cell the
// paper's discussion centers on) and emit its swarm-health report.
// Every run writes BENCH_fig2_stalls.json with the tables and checks.
// Exits 1 when a paper check differs, unless the check is marked a known
// deviation (documented in EXPERIMENTS.md).
#include <cstdio>

#include "bench_cli.h"
#include "bench_json.h"
#include "experiments/sweep.h"

int main(int argc, char** argv) {
  using namespace vsplice;
  using namespace vsplice::experiments;

  const bench::BenchOptions opts = bench::parse_bench_options(argc, argv);
  if (!opts.parsed) return 2;

  ScenarioConfig base;  // the paper topology: 20 nodes, 50 ms, 5% loss
  base.trace_path = opts.trace_base;
  const std::vector<Rate> bandwidths{
      Rate::kilobytes_per_second(128), Rate::kilobytes_per_second(256),
      Rate::kilobytes_per_second(512), Rate::kilobytes_per_second(768)};
  const std::vector<SweepSeries> series{
      {"GOP based", [](ScenarioConfig& c) { c.splicer = "gop"; }},
      {"2 sec", [](ScenarioConfig& c) { c.splicer = "2s"; }},
      {"4 sec", [](ScenarioConfig& c) { c.splicer = "4s"; }},
      {"8 sec", [](ScenarioConfig& c) { c.splicer = "8s"; }},
  };

  std::printf("Figure 2: total number of stalls vs available bandwidth\n");
  std::printf("(20-node swarm, 2-min 1 Mbps video, 50 ms latency, 5%% "
              "loss, adaptive pooling, 3 runs rounded-averaged)\n\n");

  const SweepResult sweep =
      run_sweep(base, bandwidths, series, 3, opts.jobs);
  std::printf("%s\n", sweep
                          .table([](const RepeatedResult& r) {
                            return r.stalls;
                          })
                          .to_string()
                          .c_str());
  std::printf("stalls per viewer:\n%s\n",
              sweep
                  .table([](const RepeatedResult& r) {
                    return r.mean_stalls_per_viewer;
                  },
                         2)
                  .to_string()
                  .c_str());

  bench::BenchResults results{"fig2_stalls"};
  results.add_sweep("stalls", sweep, [](const RepeatedResult& r) {
    return r.stalls;
  });
  results.add_sweep("stalls_per_viewer", sweep, [](const RepeatedResult& r) {
    return r.mean_stalls_per_viewer;
  });

  // The paper's qualitative findings for this figure.
  std::printf("paper expectations:\n");
  auto stalls = [&](std::size_t b, std::size_t s) {
    return sweep.at(b, s).stalls;
  };
  results.check("gop_worst_mid",
                stalls(1, 0) >= stalls(1, 2) && stalls(1, 0) >= stalls(1, 3),
                "GOP splicing stalls more than 4s/8s at 256 kB/s");
  results.check("two_bad_low", stalls(0, 1) > stalls(0, 2),
                "2 sec worse than 4 sec at low bandwidth "
                "(many small TCP connections)");
  results.check("two_converges",
                stalls(3, 1) <= stalls(0, 1) / 4 ||
                    stalls(3, 1) <= stalls(3, 2) + 10,
                "2 sec converges towards 4 sec at high bandwidth");
  results.check("falls_with_bandwidth",
                stalls(3, 2) < stalls(0, 2) && stalls(3, 1) < stalls(0, 1),
                "stalls fall as bandwidth grows");
  results.write();

  // Representative report: the mid-bandwidth GOP cell, where the paper's
  // splicing argument (and most of the stalls) live.
  ScenarioConfig representative = base;
  representative.splicer = "gop";
  representative.bandwidth = Rate::kilobytes_per_second(256);
  bench::write_representative_report(representative, opts,
                                     "Figure 2 — GOP splicing @ 256 kB/s");
  return results.all_checks_passed() ? 0 : 1;
}
