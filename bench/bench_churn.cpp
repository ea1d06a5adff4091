// Churn ablation — the motivation behind prefetching (Sections I/III):
// "peers can leave the swarm anytime. To maximize the availability of a
// segment, peers often download multiple segments simultaneously."
//
// Compares viewer QoE without churn and under increasingly aggressive
// churn, for the adaptive pool (prefetches ahead) against a strictly
// sequential pool of one (no hedging).
#include <cstdio>

#include "bench_cli.h"
#include "common/table.h"
#include "experiments/paper_setup.h"

int main(int argc, char** argv) {
  using namespace vsplice;
  using namespace vsplice::experiments;
  const bench::BenchOptions opts = bench::parse_bench_options(argc, argv);
  if (!opts.parsed) return 2;

  std::printf("Churn ablation: prefetching as an availability hedge\n");
  std::printf("(4 sec splicing, 256 kB/s, 20-node swarm, mean of 3 runs)\n\n");

  Table table{{"Churn mean lifetime", "Policy", "Stalls", "Stall s",
               "Departures"}};
  for (const double lifetime_s : {0.0, 120.0, 60.0}) {
    for (const char* policy : {"adaptive", "fixed:1"}) {
      ScenarioConfig config;
      config.splicer = "4s";
      config.policy = policy;
      config.bandwidth = Rate::kilobytes_per_second(256);
      if (lifetime_s > 0) {
        config.churn = true;
        config.churn_mean_lifetime = Duration::seconds(lifetime_s);
      }
      const RepeatedResult result = run_repeated(config, 3, opts.jobs);
      double departures = 0;
      for (const ScenarioResult& run : result.runs) {
        departures += static_cast<double>(run.churn_departures);
      }
      table.add_row(
          {lifetime_s > 0 ? format_double(lifetime_s, 0) + " s" : "none",
           policy, format_double(result.stalls, 0),
           format_double(result.stall_seconds, 1),
           format_double(departures / 3.0, 1)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("reading: under churn, the adaptive pool's parallel "
              "in-flight segments hedge against a holder departing "
              "mid-transfer; the sequential pool loses its only transfer "
              "and must re-request from scratch.\n");
  return 0;
}
