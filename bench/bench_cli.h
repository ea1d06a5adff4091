// Shared command-line handling for the figure benches.
//
// Every bench binary accepts the same flags:
//   --jobs N                  worker threads for the sweep grid ("auto" =
//                             one per hardware thread; default 1 =
//                             serial). Results and output files are
//                             byte-identical at any job count.
//   --trace BASE              per-cell JSONL span traces (each run's
//                             lifecycle record, one span per line)
//   --trace-chrome OUT.json   chrome://tracing / Perfetto span timeline
//                             of the representative run
//   --report OUT.html         self-contained HTML run report
//   --snapshot OUT.json       deterministic JSON snapshot
//   --sample-interval SECONDS swarm sampling cadence (default 1 s)
//   --control-epoch SECONDS   epoch-batched control plane on the
//                             representative run (0 = per-segment HAVE
//                             broadcast, the byte-identical default;
//                             see DESIGN.md §15)
//   --profile                 hot-path profiler on the representative
//                             run; its phase tree prints after the
//                             sweep (VSPLICE_PROFILE=1 profiles every
//                             run; figures are unaffected either way)
//   --log-level LEVEL         debug|info|warn|error|off; wins over
//                             VSPLICE_LOG_LEVEL
//
// The report/snapshot outputs come from one representative run of the
// bench's headline cell (a full sweep would write dozens of reports);
// use experiments::run_sweep with report paths directly for that.
#pragma once

#include <cstdio>
#include <string>

#include "common/log.h"
#include "common/strings.h"
#include "experiments/paper_setup.h"
#include "obs/report.h"

namespace vsplice::bench {

struct BenchOptions {
  std::string trace_base;
  std::string trace_chrome;
  std::string report_html;
  std::string snapshot_json;
  double sample_interval_s = 0.0;  // 0 = scenario default (1 s)
  double control_epoch_s = 0.0;    // 0 = unbatched control plane
  int jobs = 1;                    // sweep worker threads; 0 = auto
  bool profile = false;            // profiler on the representative run
  bool parsed = true;              // false after a usage error

  [[nodiscard]] bool wants_report() const {
    return !report_html.empty() || !snapshot_json.empty() ||
           !trace_chrome.empty();
  }
};

inline void print_bench_usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s [--jobs N] [--trace BASE] "
               "[--report OUT.html] [--snapshot OUT.json]\n"
               "          [--trace-chrome OUT.json] "
               "[--sample-interval SECONDS] [--control-epoch SECONDS] "
               "[--log-level LEVEL]\n"
               "  --jobs N          run sweep cells on N threads (N >= 1, "
               "or \"auto\" for one per hardware thread)\n",
               prog);
}

/// Parses the shared flags; prints usage and sets parsed=false on junk.
inline BenchOptions parse_bench_options(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--jobs" && i + 1 < argc) {
      const std::string value = argv[++i];
      if (value == "auto") {
        opts.jobs = 0;  // ParallelRunner: one per hardware thread
      } else {
        const auto parsed = parse_int(value);
        if (!parsed || *parsed < 1 || *parsed > 4096) {
          std::fprintf(stderr,
                       "bad --jobs: %s (need an integer >= 1, or "
                       "\"auto\" for one per hardware thread)\n",
                       value.c_str());
          opts.parsed = false;
          return opts;
        }
        opts.jobs = static_cast<int>(*parsed);
      }
    } else if (arg == "--trace" && i + 1 < argc) {
      opts.trace_base = argv[++i];
    } else if (arg == "--trace-chrome" && i + 1 < argc) {
      opts.trace_chrome = argv[++i];
    } else if (arg == "--report" && i + 1 < argc) {
      opts.report_html = argv[++i];
    } else if (arg == "--snapshot" && i + 1 < argc) {
      opts.snapshot_json = argv[++i];
    } else if (arg == "--control-epoch" && i + 1 < argc) {
      const auto parsed = parse_double(argv[++i]);
      if (!parsed || *parsed < 0.0) {
        std::fprintf(stderr, "bad --control-epoch: %s\n", argv[i]);
        opts.parsed = false;
        return opts;
      }
      opts.control_epoch_s = *parsed;
    } else if (arg == "--sample-interval" && i + 1 < argc) {
      const auto parsed = parse_double(argv[++i]);
      if (!parsed || *parsed <= 0.0) {
        std::fprintf(stderr, "bad --sample-interval: %s\n", argv[i]);
        opts.parsed = false;
        return opts;
      }
      opts.sample_interval_s = *parsed;
    } else if (arg == "--profile") {
      opts.profile = true;
    } else if (arg == "--log-level" && i + 1 < argc) {
      LogLevel level{};
      if (!parse_log_level(argv[++i], level)) {
        std::fprintf(stderr, "bad --log-level: %s\n", argv[i]);
        opts.parsed = false;
        return opts;
      }
      set_log_level(level);  // explicit set wins over VSPLICE_LOG_LEVEL
    } else {
      print_bench_usage(argv[0]);
      opts.parsed = false;
      return opts;
    }
  }
  // Fail fast on unwritable destinations instead of discovering the
  // typo'd directory after the whole sweep has run. (--trace is a base
  // path; probing it validates its directory.)
  for (const std::string* path :
       {&opts.trace_base, &opts.trace_chrome, &opts.report_html,
        &opts.snapshot_json}) {
    if (!path->empty() && !obs::probe_writable_path(*path)) {
      std::fprintf(stderr, "cannot write to '%s'\n", path->c_str());
      opts.parsed = false;
      return opts;
    }
  }
  return opts;
}

/// Runs one representative scenario with the report/snapshot outputs
/// when either was requested. Seed 1000003 matches run_repeated's first
/// repetition, so the report shows a run that contributed to the tables.
inline void write_representative_report(experiments::ScenarioConfig config,
                                        const BenchOptions& opts,
                                        const std::string& title) {
  if (!opts.wants_report() && !opts.profile) return;
  config.seed = std::uint64_t{1000003};
  config.report_html_path = opts.report_html;
  config.snapshot_json_path = opts.snapshot_json;
  config.trace_chrome_path = opts.trace_chrome;
  config.report_title = title;
  config.profile = opts.profile;
  if (opts.sample_interval_s > 0.0) {
    config.sample_interval = Duration::seconds(opts.sample_interval_s);
  }
  if (opts.control_epoch_s > 0.0) {
    config.control_epoch = Duration::seconds(opts.control_epoch_s);
  }
  const experiments::ScenarioResult result =
      experiments::run_scenario(config);
  std::printf("\nrepresentative run (%s): %.0f stalls, %zu anomalies "
              "flagged\n",
              title.c_str(), result.total_stalls, result.anomaly_count);
  if (!result.profile.empty()) {
    std::printf("%s", result.profile.to_text().c_str());
  }
  if (!opts.report_html.empty()) {
    std::printf("report written to %s\n", opts.report_html.c_str());
  }
  if (!opts.snapshot_json.empty()) {
    std::printf("snapshot written to %s\n", opts.snapshot_json.c_str());
  }
  if (!opts.trace_chrome.empty()) {
    std::printf("chrome trace written to %s\n", opts.trace_chrome.c_str());
  }
}

}  // namespace vsplice::bench
