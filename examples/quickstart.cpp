// Quickstart: encode a synthetic video, splice it two ways, stream it
// through a small P2P swarm on a simulated star network, and print the
// QoE metrics the paper reports.
//
//   ./quickstart [bandwidth_kBps] [splicer] [policy] [flags]
//   e.g. ./quickstart 256 4s adaptive
//        ./quickstart 128 gop fixed:4
//
// Observability flags:
//   --jobs N              additionally run the paper's three-repetition
//                         average on N worker threads ("auto" = one per
//                         hardware thread; default 1 = single run only)
//   --trace PATH          write the run's lifecycle record as JSONL, one
//                         span per line, at run end (also honoured via
//                         the VSPLICE_TRACE env var)
//   --trace-chrome PATH   write a chrome://tracing / Perfetto trace of
//                         the lifecycle record
//   --timeline            print the per-viewer sessions with every stall
//                         explained
//   --report OUT.html     self-contained HTML swarm-health report
//   --snapshot OUT.json   deterministic JSON time-series snapshot
//   --sample-interval S   swarm sampling cadence in seconds (default 1)
//   --profile             install the hot-path profiler and print the
//                         phase tree after the run (also honoured via
//                         VSPLICE_PROFILE=1); figures are unaffected
//   --spans               record the lifecycle record and print the
//                         per-phase segment waterfall (also honoured via
//                         VSPLICE_SPANS=1; every view above implies it);
//                         figures are unaffected (spans only read
//                         simulated time)
//   --log-level LEVEL     debug|info|warn|error|off; wins over
//                         VSPLICE_LOG_LEVEL

#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/strings.h"
#include "core/playlist.h"
#include "core/splicer.h"
#include "experiments/paper_setup.h"
#include "obs/report.h"
#include "video/encoder.h"

int main(int argc, char** argv) {
  using namespace vsplice;

  double bandwidth_kBps = 256;
  std::string splicer_spec = "4s";
  std::string policy_spec = "adaptive";
  std::string trace_path;
  std::string trace_chrome_path;
  std::string report_html_path;
  std::string snapshot_json_path;
  double sample_interval_s = 0;
  bool timeline = false;
  bool profile = false;
  bool spans = false;
  int jobs = 1;

  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--trace-chrome" && i + 1 < argc) {
      trace_chrome_path = argv[++i];
    } else if (arg == "--report" && i + 1 < argc) {
      report_html_path = argv[++i];
    } else if (arg == "--snapshot" && i + 1 < argc) {
      snapshot_json_path = argv[++i];
    } else if (arg == "--sample-interval" && i + 1 < argc) {
      const auto parsed = parse_double(argv[++i]);
      if (!parsed || *parsed <= 0) {
        std::fprintf(stderr, "bad --sample-interval: %s\n", argv[i]);
        return 2;
      }
      sample_interval_s = *parsed;
    } else if (arg == "--log-level" && i + 1 < argc) {
      LogLevel level{};
      if (!parse_log_level(argv[++i], level)) {
        std::fprintf(stderr, "bad --log-level: %s\n", argv[i]);
        return 2;
      }
      set_log_level(level);  // explicit set wins over VSPLICE_LOG_LEVEL
    } else if (arg == "--jobs" && i + 1 < argc) {
      const std::string value = argv[++i];
      if (value == "auto") {
        jobs = 0;  // ParallelRunner: one worker per hardware thread
      } else {
        const auto parsed = parse_int(value);
        if (!parsed || *parsed < 1 || *parsed > 4096) {
          std::fprintf(stderr,
                       "bad --jobs: %s (need an integer >= 1, or "
                       "\"auto\" for one per hardware thread)\n",
                       value.c_str());
          return 2;
        }
        jobs = static_cast<int>(*parsed);
      }
    } else if (arg == "--timeline") {
      timeline = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--spans") {
      spans = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() > 0) {
    const auto parsed = parse_double(positional[0]);
    if (!parsed || !std::isfinite(*parsed) || *parsed <= 0) {
      std::fprintf(stderr, "bad bandwidth: %s (need kB/s > 0)\n",
                   positional[0].c_str());
      return 2;
    }
    bandwidth_kBps = *parsed;
  }
  if (positional.size() > 1) splicer_spec = positional[1];
  if (positional.size() > 2) policy_spec = positional[2];

  // Fail fast on unwritable output destinations: a full simulated run
  // followed by a silent write failure is the worst way to learn about a
  // typo'd directory.
  for (const std::string* path :
       {&trace_path, &trace_chrome_path, &report_html_path,
        &snapshot_json_path}) {
    if (!path->empty() && !obs::probe_writable_path(*path)) {
      std::fprintf(stderr, "cannot write to '%s'\n", path->c_str());
      return 2;
    }
  }

  // 1. The content: a 2-minute, 1 Mbps synthetic MPEG-4 video.
  const video::VideoStream stream = video::make_paper_video();
  std::printf("video: %.1f s, %.2f MB, %zu GOPs (%.2f..%.2f s), %.0f kb/s\n",
              stream.duration().as_seconds(),
              static_cast<double>(stream.byte_size()) / 1e6,
              stream.gop_count(), stream.shortest_gop().as_seconds(),
              stream.longest_gop().as_seconds(),
              stream.average_bitrate().megabits_per_second() * 1000);

  // 2. Splicing: compare the chosen technique against GOP splicing.
  const auto splicer = core::make_splicer(splicer_spec);
  const core::SegmentIndex index = splicer->splice(stream);
  const core::SegmentIndex gop_index = core::GopSplicer{}.splice(stream);
  std::printf("%-10s %4zu segments, %5.2f MB total, %4.1f%% overhead, "
              "sizes %s..%s\n",
              index.splicer_name().c_str(), index.count(),
              static_cast<double>(index.total_size()) / 1e6,
              index.overhead_ratio() * 100,
              format_bytes(index.smallest_segment()).c_str(),
              format_bytes(index.largest_segment()).c_str());
  std::printf("%-10s %4zu segments, %5.2f MB total, %4.1f%% overhead, "
              "sizes %s..%s\n",
              gop_index.splicer_name().c_str(), gop_index.count(),
              static_cast<double>(gop_index.total_size()) / 1e6,
              gop_index.overhead_ratio() * 100,
              format_bytes(gop_index.smallest_segment()).c_str(),
              format_bytes(gop_index.largest_segment()).c_str());

  // 3. The playlist the seeder would publish (first lines).
  const std::string playlist = core::write_playlist(
      core::playlist_from_index(index, "video.mp4"));
  std::printf("\nplaylist (%zu bytes), first entries:\n", playlist.size());
  int lines = 0;
  for (const std::string& line : split(playlist, '\n')) {
    std::printf("  %s\n", line.c_str());
    if (++lines >= 9) break;
  }

  // 4. Stream it through the paper's 20-node swarm.
  experiments::ScenarioConfig config;
  config.splicer = splicer_spec;
  config.policy = policy_spec;
  config.bandwidth = Rate::kilobytes_per_second(bandwidth_kBps);
  config.trace_path = trace_path;
  config.trace_chrome_path = trace_chrome_path;
  config.spans = spans;
  config.timeline_summary = timeline;
  config.report_html_path = report_html_path;
  config.snapshot_json_path = snapshot_json_path;
  if (sample_interval_s > 0) {
    config.sample_interval = Duration::seconds(sample_interval_s);
  }
  config.profile = profile;
  std::printf("\nstreaming through a %zu-node swarm at %.0f kB/s "
              "(splicer=%s, policy=%s)...\n",
              config.nodes, bandwidth_kBps, splicer_spec.c_str(),
              policy_spec.c_str());
  const experiments::ScenarioResult result =
      experiments::run_scenario(config);

  std::printf("\nper-swarm results (%zu viewers, %zu finished, "
              "simulated %.1f s):\n",
              result.viewer_count, result.finished_viewers,
              result.wall_time.as_seconds());
  std::printf("  total stalls:        %.0f (%.2f per viewer)\n",
              result.total_stalls, result.mean_stalls);
  std::printf("  total stall time:    %.1f s (%.2f s per viewer)\n",
              result.total_stall_seconds, result.mean_stall_seconds);
  std::printf("  mean startup time:   %.2f s\n",
              result.mean_startup_seconds);
  std::printf("  transport: %llu served / %llu choked (seeder %llu/%llu) "
              "/ %llu aborted, seeder up %.1f MB, peers up %.1f MB, "
              "delivered %.1f MB\n",
              static_cast<unsigned long long>(result.requests_served),
              static_cast<unsigned long long>(result.requests_choked),
              static_cast<unsigned long long>(result.seeder_served),
              static_cast<unsigned long long>(result.seeder_choked),
              static_cast<unsigned long long>(result.pieces_aborted),
              static_cast<double>(result.seeder_uploaded) / 1e6,
              static_cast<double>(result.peers_uploaded) / 1e6,
              result.network_bytes_delivered / 1e6);

  std::printf("\nfirst three viewers:\n");
  for (std::size_t i = 0; i < result.viewers.size() && i < 3; ++i) {
    std::printf("  viewer %zu: %s\n", i + 1,
                result.viewers[i].summary().c_str());
  }

  if (jobs != 1) {
    // The paper's aggregation, fanned across worker threads: three
    // seeded repetitions whose averages match the serial (--jobs 1)
    // path exactly.
    experiments::ScenarioConfig repeated_config = config;
    repeated_config.trace_path.clear();
    repeated_config.report_html_path.clear();
    repeated_config.snapshot_json_path.clear();
    repeated_config.trace_chrome_path.clear();
    repeated_config.timeline_summary = false;
    const experiments::RepeatedResult repeated =
        experiments::run_repeated(repeated_config, 3, jobs);
    std::printf("\n3-run average (--jobs %d): %.0f stalls, %.1f stall s, "
                "%.2f s startup\n",
                jobs, repeated.stalls, repeated.stall_seconds,
                repeated.startup_seconds);
  }

  if (timeline) std::printf("\n%s", result.timeline.c_str());
  if (!result.waterfall.empty()) {
    std::printf("\nsegment waterfall (%llu spans recorded):\n%s",
                static_cast<unsigned long long>(result.spans_recorded),
                obs::waterfall_to_text(result.waterfall).c_str());
  }
  if (!result.profile.empty()) {
    std::printf("\nhot-path profile (%llu events fired, heap high-water "
                "%zu):\n%s",
                static_cast<unsigned long long>(result.events_fired),
                result.heap_high_water, result.profile.to_text().c_str());
    std::printf("\nmemory by subsystem (%.0f bytes/peer):\n%s",
                result.memory_bytes_per_peer,
                result.memory.to_text().c_str());
  }
  if (!report_html_path.empty() || !snapshot_json_path.empty())
    std::printf("\nanomalies flagged: %zu\n", result.anomaly_count);
  if (!trace_path.empty())
    std::printf("\ntrace written to %s\n", trace_path.c_str());
  if (!trace_chrome_path.empty())
    std::printf("chrome trace written to %s\n", trace_chrome_path.c_str());
  if (!report_html_path.empty())
    std::printf("report written to %s\n", report_html_path.c_str());
  if (!snapshot_json_path.empty())
    std::printf("snapshot written to %s\n", snapshot_json_path.c_str());
  return 0;
}
