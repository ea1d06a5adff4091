// Figure 5 — "Total number of stalls for different pool sizes".
//
// The downloading-policy experiment: 4-second splicing held fixed, the
// policy swept over the paper's adaptive pooling (Eq. 1) and fixed pools
// of 2/4/8 simultaneous segments, bandwidth over {128..768} kB/s.
//
//   ./bench_fig5_pooling [--trace BASE] [--report OUT.html]
//                        [--snapshot OUT.json] [--sample-interval S]
//                        [--log-level LEVEL]
//
// Exits 1 when a paper check differs, unless the check is marked a known
// deviation (documented in EXPERIMENTS.md).
#include <algorithm>
#include <cstdio>

#include "bench_cli.h"
#include "bench_json.h"
#include "experiments/sweep.h"

int main(int argc, char** argv) {
  using namespace vsplice;
  using namespace vsplice::experiments;

  const bench::BenchOptions opts = bench::parse_bench_options(argc, argv);
  if (!opts.parsed) return 2;

  ScenarioConfig base;
  base.trace_path = opts.trace_base;
  base.splicer = "4s";
  const std::vector<Rate> bandwidths{
      Rate::kilobytes_per_second(128), Rate::kilobytes_per_second(256),
      Rate::kilobytes_per_second(512), Rate::kilobytes_per_second(768)};
  const std::vector<SweepSeries> series{
      {"Adaptive pooling",
       [](ScenarioConfig& c) { c.policy = "adaptive"; }},
      {"Pool size: 2", [](ScenarioConfig& c) { c.policy = "fixed:2"; }},
      {"Pool size: 4", [](ScenarioConfig& c) { c.policy = "fixed:4"; }},
      {"Pool size: 8", [](ScenarioConfig& c) { c.policy = "fixed:8"; }},
  };

  std::printf("Figure 5: total number of stalls vs pool size\n");
  std::printf("(4 sec splicing, Eq. 1 adaptive pooling vs fixed pools, "
              "3 runs rounded-averaged)\n\n");

  const SweepResult sweep =
      run_sweep(base, bandwidths, series, 3, opts.jobs);
  std::printf("%s\n", sweep
                          .table([](const RepeatedResult& r) {
                            return r.stalls;
                          })
                          .to_string()
                          .c_str());
  std::printf("stall seconds (supporting view):\n%s\n",
              sweep
                  .table([](const RepeatedResult& r) {
                    return r.stall_seconds;
                  },
                         1)
                  .to_string()
                  .c_str());

  bench::BenchResults results{"fig5_pooling"};
  results.add_sweep("stalls", sweep, [](const RepeatedResult& r) {
    return r.stalls;
  });
  results.add_sweep("stall_seconds", sweep, [](const RepeatedResult& r) {
    return r.stall_seconds;
  });

  std::printf("paper expectations:\n");
  auto stalls = [&](std::size_t b, std::size_t s) {
    return sweep.at(b, s).stalls;
  };
  auto seconds = [&](std::size_t b, std::size_t s) {
    return sweep.at(b, s).stall_seconds;
  };
  // Eq. 1 scales the pool with bandwidth, so it beats an undersized
  // fixed pool as soon as the link allows more than two transfers.
  bool beats_small_pool = true;
  for (std::size_t b = 1; b < bandwidths.size(); ++b) {
    beats_small_pool = beats_small_pool && stalls(b, 0) <= stalls(b, 1);
  }
  results.check("beats_small_pool", beats_small_pool,
                "adaptive pooling beats the fixed pool of 2 at every "
                "bandwidth >= 256 kB/s");
  // The overload side: at 128 kB/s the 8-deep pool splits the starved
  // link so thinly that its individual stalls are by far the longest.
  auto mean_stall = [&](std::size_t s) {
    return seconds(0, s) / std::max(1.0, stalls(0, s));
  };
  results.check("big_pool_long_stalls",
                mean_stall(3) > 2.0 * mean_stall(0) &&
                    mean_stall(3) > 2.0 * mean_stall(2),
                "at 128 kB/s the pool of 8 produces by far the "
                "longest individual stalls (next-needed segment starved)");
  results.write();

  std::printf(
      "\nknown deviation from the paper (see EXPERIMENTS.md): the paper "
      "reports adaptive pooling with the fewest stall *events* at every "
      "bandwidth. In this reproduction the fixed pool of 4 posts fewer "
      "stall events than adaptive pooling at every bandwidth, and "
      "adaptive pooling has the most total stall time of all four "
      "policies at 128, 512 and 768 kB/s (stall-seconds table above). "
      "It beats only the pool of 2: on stall events at 256 kB/s and "
      "above, on stall time at 256 kB/s alone.\n");

  // Representative report: the overloaded fixed pool of 8 on the
  // 128 kB/s link, the cell whose pool-collapse/starvation behavior the
  // anomaly scan is built to surface.
  ScenarioConfig representative = base;
  representative.policy = "fixed:8";
  representative.bandwidth = Rate::kilobytes_per_second(128);
  bench::write_representative_report(representative, opts,
                                     "Figure 5 — fixed pool of 8 @ 128 kB/s");
  return results.all_checks_passed() ? 0 : 1;
}
