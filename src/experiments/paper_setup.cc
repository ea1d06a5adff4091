#include "experiments/paper_setup.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>

#include "common/error.h"
#include "common/log.h"
#include "common/stats.h"
#include "core/pool_policy.h"
#include "experiments/content_cache.h"
#include "experiments/parallel.h"
#include "net/network.h"
#include "obs/exporters.h"
#include "obs/report.h"
#include "obs/sampler.h"
#include "obs/timeseries.h"
#include "p2p/churn.h"
#include "p2p/swarm.h"
#include "sim/simulator.h"

namespace vsplice::experiments {

namespace {
/// The configured trace path, or the VSPLICE_TRACE fallback.
std::string resolve_trace_path(const std::string& configured) {
  if (!configured.empty()) return configured;
  const char* env = std::getenv("VSPLICE_TRACE");
  return env != nullptr ? std::string{env} : std::string{};
}

/// True when VSPLICE_PROFILE is set to anything but "" or "0".
bool profile_env_enabled() {
  const char* env = std::getenv("VSPLICE_PROFILE");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

/// Same convention for VSPLICE_SPANS.
bool spans_env_enabled() {
  const char* env = std::getenv("VSPLICE_SPANS");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

/// Same convention for VSPLICE_FULL_REALLOC (the full-rescan
/// reallocation oracle, DESIGN.md §16).
bool full_realloc_env_enabled() {
  const char* env = std::getenv("VSPLICE_FULL_REALLOC");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

/// "fig2.html" + run 2 -> "fig2.run2.html" (keeps the extension so the
/// per-seed reports still open in a browser; traces, which have no
/// meaningful extension, keep their append-suffix scheme).
std::string with_run_suffix(const std::string& path, int run) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  const std::string suffix = ".run" + std::to_string(run);
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + suffix;
  }
  return path.substr(0, dot) + suffix + path.substr(dot);
}

/// The report's run-parameter list, sorted by key for deterministic
/// snapshots.
std::vector<std::pair<std::string, std::string>> report_params(
    const ScenarioConfig& config, Duration sample_interval) {
  const auto fmt = [](const char* f, double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, f, v);
    return std::string{buf};
  };
  std::vector<std::pair<std::string, std::string>> params;
  params.emplace_back("bandwidth",
                      fmt("%.0f kB/s", config.bandwidth.kilobytes_per_second()));
  params.emplace_back("churn", config.churn ? "on" : "off");
  params.emplace_back("join_spread_s",
                      fmt("%g", config.join_spread.as_seconds()));
  params.emplace_back("nodes", std::to_string(config.nodes));
  params.emplace_back("pair_loss", fmt("%g", config.pair_loss));
  params.emplace_back("policy", config.policy);
  params.emplace_back("sample_interval_s",
                      fmt("%g", sample_interval.as_seconds()));
  params.emplace_back("seed", std::to_string(config.seed));
  params.emplace_back("splicer", config.splicer);
  params.emplace_back("time_limit_s",
                      fmt("%g", config.time_limit.as_seconds()));
  params.emplace_back("upload_slots", std::to_string(config.upload_slots));
  return params;
}
}  // namespace

ScenarioResult run_scenario(const ScenarioConfig& config) {
  require(config.nodes >= 2, "need at least a seeder and one viewer");
  require(config.bandwidth > Rate::zero(), "bandwidth must be positive");
  require(config.pair_loss >= 0.0 && config.pair_loss < 1.0,
          "pair loss must be in [0, 1)");
  require(config.loop_threads == 1, "loop_threads must be 1");

  // --- Simulator first, then observability, so a cache-miss content
  // build below happens with the profiler already installed (the fetch
  // touches no simulator or RNG state, so the order is free).
  sim::Simulator sim;

  // Observability: installed for the scope of this run when the
  // lifecycle record or the profiler is on. Nests under any context the
  // caller pre-installed (tests drive their own Observability; then none
  // is created here and the caller's record sees every span).
  const std::string trace_path = resolve_trace_path(config.trace_path);
  const bool profile = config.profile || profile_env_enabled();
  // The report/snapshot outputs need the swarm sampler.
  const bool wants_sampling = config.sample_interval.count_micros() > 0 ||
                              !config.report_html_path.empty() ||
                              !config.snapshot_json_path.empty();
  // One switch for the lifecycle record: asked for directly, or needed by
  // a view of it (trace, timeline, report/snapshot stall explanations,
  // Chrome trace). The profiler alone does not install it.
  const bool spans = config.spans || spans_env_enabled() ||
                     !trace_path.empty() || config.timeline_summary ||
                     wants_sampling || !config.trace_chrome_path.empty();
  std::optional<obs::Observability> observability;
  if (spans || profile) {
    obs::ObsOptions obs_options;
    obs_options.trace_path = trace_path;
    obs_options.profile = profile;
    obs_options.spans = spans;
    observability.emplace(obs_options);
  }

  // --- Content: the fixed 2-minute 1 Mbps video, spliced per config —
  // synthesized once per (video_seed, splicer) process-wide and shared
  // immutably across runs and sweep workers.
  const std::shared_ptr<const ContentArtifacts> content =
      ContentCache::global().get(config.video_seed, config.splicer);
  const core::SegmentIndex& index = content->index;

  ScenarioResult result;
  result.segment_count = index.count();
  result.total_transfer_bytes = index.total_size();
  result.media_bytes = index.total_media_size();
  result.overhead_ratio = index.overhead_ratio();
  result.largest_segment = index.largest_segment();
  result.smallest_segment = index.smallest_segment();

  // --- Network: star topology, per-node loss contribution chosen so the
  // end-to-end loss between any two peers matches the configured value.
  net::Network network{sim};
  network.set_full_reallocation(config.full_reallocation ||
                                full_realloc_env_enabled());
  const double node_loss = 1.0 - std::sqrt(1.0 - config.pair_loss);

  net::NodeSpec seeder_spec;
  seeder_spec.uplink = config.bandwidth;
  seeder_spec.downlink = config.bandwidth;
  seeder_spec.one_way_delay = config.seeder_delay;
  seeder_spec.loss = node_loss;
  const net::NodeId seeder_node = network.add_node(seeder_spec);

  std::vector<net::NodeId> viewer_nodes;
  for (std::size_t i = 1; i < config.nodes; ++i) {
    net::NodeSpec spec;
    spec.uplink = config.bandwidth;
    spec.downlink = config.bandwidth;
    spec.one_way_delay = config.peer_delay;
    spec.loss = node_loss;
    viewer_nodes.push_back(network.add_node(spec));
  }

  // --- Swarm. Aliased shared_ptrs point into the cached artifact, so
  // the swarm shares the content instead of copying it per run.
  Rng rng{config.seed};
  p2p::Swarm swarm{
      network, rng,
      std::shared_ptr<const core::SegmentIndex>{content, &content->index},
      std::shared_ptr<const std::string>{content, &content->playlist_text}};
  swarm.set_brute_force_oracle(config.brute_force_scheduling);
  // Only ever switched on here: the swarm already starts in oracle mode
  // when VSPLICE_WIRE_ROUNDTRIP=1.
  if (config.wire_roundtrip) swarm.set_codec_roundtrip(true);
  p2p::PeerConfig peer_config;
  peer_config.max_upload_slots = config.upload_slots;
  swarm.add_seeder(seeder_node, peer_config);

  const auto policy = std::shared_ptr<const core::PoolPolicy>(
      core::make_pool_policy(config.policy));
  std::vector<p2p::Leecher*> leechers;
  for (net::NodeId node : viewer_nodes) {
    p2p::LeecherConfig leecher_config;
    leecher_config.policy = policy;
    leecher_config.bandwidth_hint = config.bandwidth;
    leecher_config.announce_max_peers = config.announce_max_peers;
    p2p::Leecher& leecher =
        swarm.add_leecher(node, peer_config, leecher_config);
    leechers.push_back(&leecher);
  }

  // Staggered joins (a flash crowd, but not a single lock-step instant).
  for (p2p::Leecher* leecher : leechers) {
    const Duration when = Duration::seconds(
        rng.uniform(0.0, config.join_spread.as_seconds()));
    sim.at(TimePoint::origin() + when, [leecher] { leecher->join(); });
  }

  std::unique_ptr<p2p::ChurnModel> churn;
  if (config.churn) {
    p2p::ChurnModel::Params params;
    params.mean_lifetime = config.churn_mean_lifetime;
    churn = std::make_unique<p2p::ChurnModel>(swarm, rng, params);
    // Install once everyone has joined.
    sim.at(TimePoint::origin() + config.join_spread + Duration::seconds(1),
           [&churn] { churn->install(); });
  }

  // --- Swarm-health sampling: a periodic probe into a downsampling
  // time-series store. The sampler lives in obs/ and never sees p2p
  // types; the swarm hands it plain-data observations.
  const Duration sample_interval = config.sample_interval.count_micros() > 0
                                       ? config.sample_interval
                                       : Duration::seconds(1.0);
  std::optional<obs::TimeSeriesStore> series_store;
  std::optional<obs::SwarmSampler> sampler;
  std::optional<sim::PeriodicTask> sampling_task;
  if (wants_sampling) {
    series_store.emplace();
    sampler.emplace(*series_store, [&swarm] { return swarm.observe(); });
    sampler->sample(sim.now());  // t=0 baseline
    sampling_task.emplace(sim, sample_interval,
                          [&sampler, &sim] { sampler->sample(sim.now()); });
    sampling_task->start();
  }

  // --- Run until every online viewer finished (checked at a coarse
  // cadence) or the time limit.
  const TimePoint deadline = TimePoint::origin() + config.time_limit;
  while (sim.now() < deadline) {
    const TimePoint next = sim.next_event_time();
    if (next.is_infinite()) break;
    if (next > deadline) {
      sim.run_until(deadline);
      break;
    }
    sim.run_until(std::min(next + Duration::seconds(1), deadline));
    if (swarm.all_finished()) break;
  }

  // --- Collect.
  OnlineStats stalls;
  OnlineStats stall_seconds;
  OnlineStats startup_seconds;
  for (p2p::Leecher* leecher : leechers) {
    if (!leecher->has_player()) {
      // Never got past the playlist fetch within the time limit.
      streaming::QoeMetrics empty;
      result.viewers.push_back(empty);
      stalls.add(0.0);
      stall_seconds.add(0.0);
      continue;
    }
    const streaming::QoeMetrics& m = leecher->metrics();
    result.viewers.push_back(m);
    stalls.add(static_cast<double>(m.stall_count));
    stall_seconds.add(m.total_stall_duration.as_seconds());
    if (m.started) startup_seconds.add(m.startup_time.as_seconds());
    if (m.finished) ++result.finished_viewers;
  }
  result.viewer_count = leechers.size();
  result.total_stalls = stalls.sum();
  result.mean_stalls = stalls.mean();
  result.total_stall_seconds = stall_seconds.sum();
  result.mean_stall_seconds = stall_seconds.mean();
  result.mean_startup_seconds = startup_seconds.mean();
  result.wall_time = sim.now() - TimePoint::origin();
  result.churn_departures = churn ? churn->departures() : 0;

  const p2p::Peer* seeder_peer = swarm.find(seeder_node);
  result.seeder_uploaded = seeder_peer->stats().bytes_uploaded;
  result.requests_served = seeder_peer->stats().requests_served;
  result.requests_choked = seeder_peer->stats().requests_choked;
  result.seeder_served = seeder_peer->stats().requests_served;
  result.seeder_choked = seeder_peer->stats().requests_choked;
  for (p2p::Leecher* leecher : leechers) {
    result.peers_uploaded += leecher->stats().bytes_uploaded;
    result.requests_served += leecher->stats().requests_served;
    result.requests_choked += leecher->stats().requests_choked;
    const p2p::SchedulerStats& sched = leecher->scheduler_stats();
    result.segment_picks += sched.segment_picks;
    result.holder_picks += sched.holder_picks;
    result.candidates_scanned += sched.candidates_scanned;
    result.control_have_updates += leecher->control_stats().have_updates;
  }
  result.pieces_aborted = swarm.stats().pieces_aborted;
  result.messages_routed = swarm.stats().messages_routed;
  result.messages_dropped = swarm.stats().messages_dropped;
  result.messages_verified = swarm.stats().messages_verified;
  // Virtual read: folds in each still-active flow's accrued-but-
  // unsettled progress (lazy settlement, DESIGN.md §16).
  result.network_bytes_delivered = network.bytes_delivered();

  // --- Resource accounting (always; capacity-based, deterministic).
  result.events_fired = sim.fired_count();
  result.heap_high_water = sim.heap_high_water();
  result.heap_compactions = sim.heap_compactions();
  const net::NetworkStats& net_stats = network.stats();
  result.reallocations = net_stats.reallocations;
  // No finite hub exists, so every reallocation walks the dirty set.
  result.reallocations_scoped = net_stats.reallocations;
  result.flows_retouched = net_stats.flows_retouched;
  result.reallocate_touched_flows_ratio =
      net_stats.flows_active_integral > 0
          ? static_cast<double>(net_stats.flows_retouched) /
                static_cast<double>(net_stats.flows_active_integral)
          : 0.0;
  result.settled_flows_per_event =
      result.events_fired > 0
          ? static_cast<double>(net_stats.flows_settled) /
                static_cast<double>(result.events_fired)
          : 0.0;
  result.memory = swarm.memory_breakdown();
  if (series_store) {
    result.memory.add("obs.timeseries", series_store->memory_bytes());
  }
  if (observability && observability->span_tracing()) {
    // Close anything still open (in-flight downloads at the time limit)
    // so the views see finite windows, write the trace, then account for
    // the record.
    observability->finish(sim.now());
    const obs::SpanRecorder* recorder = observability->span_recorder();
    result.memory.add("obs.spans", recorder->memory_bytes());
    result.spans_recorded = recorder->spans().size();
    result.waterfall = obs::segment_waterfall(recorder->spans());
    if (config.timeline_summary) result.timeline = observability->timeline();
  }
  result.memory_total_bytes = result.memory.total();
  result.memory_peak_bytes = result.memory_total_bytes;
  if (!leechers.empty()) {
    result.memory_bytes_per_peer =
        static_cast<double>(result.memory_total_bytes) /
        static_cast<double>(leechers.size());
  }
  if (observability) {
    result.profile = observability->profile_snapshot();
  }
  if (observability && !config.trace_chrome_path.empty()) {
    obs::write_text_file(
        config.trace_chrome_path,
        obs::render_chrome_trace(observability->spans(),
                                 profile ? &result.profile : nullptr));
  }

  if (wants_sampling) {
    sampling_task->stop();
    sampler->sample(sim.now());  // closing sample at the run's end
    if (const obs::Series* mem_total = series_store->find("mem.total")) {
      result.memory_peak_bytes =
          std::max(result.memory_peak_bytes,
                   static_cast<std::uint64_t>(mem_total->max_value()));
    }
    obs::RunInfo info;
    info.title = config.report_title;
    if (info.title.empty()) {
      char buf[48];
      std::snprintf(buf, sizeof buf, "%.0f kB/s",
                    config.bandwidth.kilobytes_per_second());
      info.title = config.splicer + " splicing, " + config.policy +
                   " pool @ " + buf;
    }
    info.params = report_params(config, sample_interval);
    obs::ReportData report =
        obs::build_report(std::move(info), *series_store,
                          observability->spans());
    report.profile = result.profile;
    report.memory = result.memory;
    report.memory_peak_bytes = result.memory_peak_bytes;
    report.memory_bytes_per_peer = result.memory_bytes_per_peer;
    result.anomaly_count = report.anomalies.size();
    if (!config.snapshot_json_path.empty()) {
      obs::write_text_file(config.snapshot_json_path,
                           obs::render_json_snapshot(report));
    }
    if (!config.report_html_path.empty()) {
      obs::write_text_file(config.report_html_path,
                           obs::render_html_report(report));
    }
  }
  return result;
}

ScenarioConfig repetition_config(const ScenarioConfig& base, int run_index,
                                 int repetitions) {
  require(repetitions >= 1, "need at least one repetition");
  require(run_index >= 0 && run_index < repetitions,
          "repetition index out of range");
  ScenarioConfig config = base;
  config.seed =
      static_cast<std::uint64_t>(run_index + 1) * std::uint64_t{1000003};
  // Each repetition gets its own trace/report/snapshot file; a shared
  // path would be truncated by every run after the first (and, in a
  // parallel sweep, raced on).
  config.trace_path = resolve_trace_path(base.trace_path);
  if (repetitions > 1) {
    if (!config.trace_path.empty()) {
      config.trace_path += ".run" + std::to_string(run_index + 1);
    }
    if (!config.report_html_path.empty()) {
      config.report_html_path =
          with_run_suffix(base.report_html_path, run_index + 1);
    }
    if (!config.snapshot_json_path.empty()) {
      config.snapshot_json_path =
          with_run_suffix(base.snapshot_json_path, run_index + 1);
    }
    if (!config.trace_chrome_path.empty()) {
      config.trace_chrome_path =
          with_run_suffix(base.trace_chrome_path, run_index + 1);
    }
  }
  return config;
}

RepeatedResult aggregate_repeated(std::vector<ScenarioResult> runs) {
  require(!runs.empty(), "need at least one repetition");
  RepeatedResult repeated;
  std::vector<double> stalls;
  std::vector<double> stall_seconds;
  std::vector<double> startup;
  std::vector<double> per_viewer;
  for (const ScenarioResult& run : runs) {
    stalls.push_back(run.total_stalls);
    stall_seconds.push_back(run.total_stall_seconds);
    startup.push_back(run.mean_startup_seconds);
    per_viewer.push_back(run.mean_stalls);
  }
  repeated.stalls = static_cast<double>(rounded_average(stalls));
  repeated.stall_seconds = mean_of(stall_seconds);
  repeated.startup_seconds = mean_of(startup);
  repeated.mean_stalls_per_viewer = mean_of(per_viewer);
  repeated.runs = std::move(runs);
  return repeated;
}

RepeatedResult run_repeated(ScenarioConfig config, int repetitions,
                            int jobs) {
  require(repetitions >= 1, "need at least one repetition");
  // All repetitions share one content identity; publish it before the
  // fan-out so no worker starts by blocking on another's computation.
  (void)ContentCache::global().get(config.video_seed, config.splicer);
  std::vector<ScenarioResult> runs(static_cast<std::size_t>(repetitions));
  ParallelRunner runner{jobs};
  runner.run(static_cast<std::size_t>(repetitions), [&](std::size_t r) {
    runs[r] =
        run_scenario(repetition_config(config, static_cast<int>(r),
                                       repetitions));
  });
  return aggregate_repeated(std::move(runs));
}

}  // namespace vsplice::experiments
