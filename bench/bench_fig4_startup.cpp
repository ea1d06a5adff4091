// Figure 4 — "Startup time for different bandwidths".
//
// Mean viewer startup time for 2/4/8-second segments over
// {128, 256, 512, 1024} kB/s. Per Section VI-A the seeder sits 500 ms
// away (every peer first fetches video/swarm metadata from it), other
// peers 50 ms. GOP-based splicing is excluded exactly as in the paper
// ("startup times of GOP based splicing are different for different
// videos").
//
//   ./bench_fig4_startup [--trace BASE] [--report OUT.html]
//                        [--snapshot OUT.json] [--sample-interval S]
//                        [--log-level LEVEL]
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
  base.seeder_delay = Duration::millis(475);  // seeder<->peer: 500 ms one way
  const std::vector<Rate> bandwidths{
      Rate::kilobytes_per_second(128), Rate::kilobytes_per_second(256),
      Rate::kilobytes_per_second(512), Rate::kilobytes_per_second(1024)};
  const std::vector<SweepSeries> series{
      {"2 sec segment", [](ScenarioConfig& c) { c.splicer = "2s"; }},
      {"4 sec segment", [](ScenarioConfig& c) { c.splicer = "4s"; }},
      {"8 sec segment", [](ScenarioConfig& c) { c.splicer = "8s"; }},
  };

  std::printf("Figure 4: startup time (s) vs available bandwidth\n");
  std::printf("(seeder latency 500 ms, peer latency 50 ms, 5%% loss, "
              "mean of 3 runs)\n\n");

  const SweepResult sweep =
      run_sweep(base, bandwidths, series, 3, opts.jobs);
  std::printf("%s\n", sweep
                          .table([](const RepeatedResult& r) {
                            return r.startup_seconds;
                          },
                                 2)
                          .to_string()
                          .c_str());

  bench::BenchResults results{"fig4_startup"};
  results.add_sweep("startup_seconds", sweep, [](const RepeatedResult& r) {
    return r.startup_seconds;
  });

  std::printf("paper expectations:\n");
  auto startup = [&](std::size_t b, std::size_t s) {
    return sweep.at(b, s).startup_seconds;
  };
  bool ordered = true;
  for (std::size_t b = 0; b < bandwidths.size(); ++b) {
    ordered = ordered && startup(b, 0) < startup(b, 1) &&
              startup(b, 1) < startup(b, 2);
  }
  results.check("segments_ordered", ordered,
                "larger segments start slower at every bandwidth");
  results.check("low_bw_blowup", startup(0, 2) > 2.5 * startup(0, 0),
                "large segments give a very high startup time on a "
                "low-bandwidth network");
  bool falls = true;
  for (std::size_t s = 0; s < series.size(); ++s) {
    falls = falls && startup(3, s) <= startup(0, s);
  }
  results.check("falls_with_bandwidth", falls,
                "startup falls with bandwidth");
  results.write();

  // Representative report: 8-second segments on the starved 128 kB/s
  // link — the figure's worst startup case.
  ScenarioConfig representative = base;
  representative.splicer = "8s";
  representative.bandwidth = Rate::kilobytes_per_second(128);
  bench::write_representative_report(representative, opts,
                                     "Figure 4 — 8 s segments @ 128 kB/s");
  return 0;
}
