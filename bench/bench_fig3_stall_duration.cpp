// Figure 3 — "Total stall duration for different bandwidths".
//
// Same grid as Figure 2, reporting the total seconds of stalled playback
// across all viewers. The paper's claims: GOP-based splicing produces the
// longest stalls, and smaller duration-based segments produce shorter
// total stall time even when they stall more often.
//
//   ./bench_fig3_stall_duration [--trace BASE] [--report OUT.html]
//                               [--snapshot OUT.json]
//                               [--sample-interval S] [--log-level LEVEL]
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
  const std::vector<Rate> bandwidths{
      Rate::kilobytes_per_second(128), Rate::kilobytes_per_second(256),
      Rate::kilobytes_per_second(512), Rate::kilobytes_per_second(768)};
  const std::vector<SweepSeries> series{
      {"GOP based", [](ScenarioConfig& c) { c.splicer = "gop"; }},
      {"2 sec", [](ScenarioConfig& c) { c.splicer = "2s"; }},
      {"4 sec", [](ScenarioConfig& c) { c.splicer = "4s"; }},
      {"8 sec", [](ScenarioConfig& c) { c.splicer = "8s"; }},
  };

  std::printf("Figure 3: total stall duration (s) vs available bandwidth\n");
  std::printf("(20-node swarm, 2-min 1 Mbps video, 50 ms latency, 5%% "
              "loss, adaptive pooling, mean of 3 runs)\n\n");

  const SweepResult sweep =
      run_sweep(base, bandwidths, series, 3, opts.jobs);
  std::printf("%s\n", sweep
                          .table([](const RepeatedResult& r) {
                            return r.stall_seconds;
                          },
                                 1)
                          .to_string()
                          .c_str());

  bench::BenchResults results{"fig3_stall_duration"};
  results.add_sweep("stall_seconds", sweep, [](const RepeatedResult& r) {
    return r.stall_seconds;
  });

  std::printf("paper expectations:\n");
  auto seconds = [&](std::size_t b, std::size_t s) {
    return sweep.at(b, s).stall_seconds;
  };
  results.check("gop_longest_mid",
                seconds(1, 0) > seconds(1, 2) &&
                    seconds(1, 0) > seconds(1, 3) &&
                    seconds(2, 0) > seconds(2, 2),
                "GOP-based splicing results in the longest stalls "
                "(mid bandwidths)");
  results.check("four_shorter_than_eight",
                seconds(1, 2) < seconds(1, 3) * 1.15,
                "smaller duration segments give shorter (or equal) "
                "total stall time than 8 sec at 256 kB/s");
  results.check("falls_with_bandwidth",
                seconds(3, 0) < seconds(0, 0) &&
                    seconds(3, 2) < seconds(0, 2),
                "stall time falls as bandwidth grows");
  results.write();

  // Representative report: same headline cell as Figure 2 — GOP
  // splicing at 256 kB/s is where the longest stalls concentrate.
  ScenarioConfig representative = base;
  representative.splicer = "gop";
  representative.bandwidth = Rate::kilobytes_per_second(256);
  bench::write_representative_report(representative, opts,
                                     "Figure 3 — GOP splicing @ 256 kB/s");
  return 0;
}
