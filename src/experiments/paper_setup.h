// The paper's experimental setup as a reusable scenario (Section V):
// twenty XEN VMs in a star topology, one seeder (co-hosting swarm
// bootstrap), a 2-minute 1 Mbps MPEG-4 video, 50 ms peer latency, 500 ms
// seeder latency for the startup experiment, 5 % loss, bandwidth swept
// per figure, three runs with a rounded average.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/segment.h"
#include "obs/profiler.h"
#include "obs/resource.h"
#include "obs/span.h"
#include "streaming/metrics.h"

namespace vsplice::experiments {

struct ScenarioConfig {
  /// Splicing technique spec for core::make_splicer ("gop", "2s", ...).
  std::string splicer = "4s";
  /// Pool policy spec for core::make_pool_policy ("adaptive", "fixed:4").
  std::string policy = "adaptive";
  /// Access-link rate applied to every node, up and down (the swept
  /// variable of every figure).
  Rate bandwidth = Rate::kilobytes_per_second(256);
  /// Node count including the seeder (paper: twenty).
  std::size_t nodes = 20;
  /// Per-node one-way delay contribution: two peers see twice this
  /// (paper: 50 ms between peers -> 25 ms per node).
  Duration peer_delay = Duration::millis(25);
  /// The seeder's contribution (Figure 4 uses 500 ms seeder latency ->
  /// 475 ms, so seeder<->peer is 500 ms one way).
  Duration seeder_delay = Duration::millis(25);
  /// End-to-end loss between any two peers (paper: 5 %).
  double pair_loss = 0.05;
  /// Leechers join uniformly over this window after t=0. Viewers of a
  /// real service arrive spread out in time; near-simultaneous joins
  /// lock every viewer onto the same hot segment and collapse swarm
  /// utilization to the few peers that hold it.
  Duration join_spread = Duration::seconds(45.0);
  /// Upload slots per peer. Small on purpose: each upload shares the
  /// peer's shaped uplink, so a couple of concurrent uploads already
  /// halves per-transfer rate; excess demand is choked and redistributes
  /// to idle holders.
  int upload_slots = 2;
  /// Give up after this much simulated time even if not all finished.
  Duration time_limit = Duration::minutes(60.0);
  /// Master seed (the run index of the three repetitions).
  std::uint64_t seed = 1;
  /// Video generation seed (fixed: every run streams the same video).
  std::uint64_t video_seed = 2015;
  /// Enable churn (off for the paper's figures).
  bool churn = false;
  Duration churn_mean_lifetime = Duration::seconds(90.0);

  /// Run the retained pre-optimization scheduling decisions (linear
  /// segment/peer scans) instead of the incremental structures. The
  /// differential tests use it as the oracle: for any size the two paths
  /// must produce identical results.
  bool brute_force_scheduling = false;
  /// Run the retained full-rescan reallocation oracle (every flow's rate
  /// recomputed on every flow event) instead of the scoped dirty-set
  /// path (DESIGN.md §16). Byte-identical to the scoped path — the
  /// differential tests pin that — only slower. Also enabled by
  /// VSPLICE_FULL_REALLOC=1.
  bool full_reallocation = false;
  /// LeecherConfig::announce_max_peers passthrough: neighbours learned
  /// from the tracker at join. The default matches every figure; the
  /// wire benchmark raises it to densify the control mesh.
  std::size_t announce_max_peers = 50;
  /// Wire-format oracle: route every control message through
  /// encode→decode and assert the decoded message equals the original
  /// (Swarm::set_codec_roundtrip). Results are byte-identical to the
  /// fast path, only slower; the differential test pins that. Also
  /// enabled by VSPLICE_WIRE_ROUNDTRIP=1.
  bool wire_roundtrip = false;

  /// Must be 1: every run has one serial event loop (run_scenario
  /// rejects any other value). The field survives only because the
  /// repository benchmark (perfbench/) still assigns it; it goes with
  /// the next change to that benchmark.
  int loop_threads = 1;

  /// Span-trace JSONL destination for this run: the lifecycle record,
  /// one line per span, written when the run ends. Empty = fall back to
  /// the VSPLICE_TRACE environment variable (empty there too = no
  /// trace). Identical seeds produce byte-identical files.
  std::string trace_path;
  /// Fill ScenarioResult::timeline with the per-viewer session and
  /// stall-explanation summary of the lifecycle record.
  bool timeline_summary = false;

  /// Swarm-state sampling cadence for the report/snapshot outputs.
  /// Zero = default to 1 s when either output below is requested (no
  /// sampling otherwise); setting it alone also enables sampling.
  Duration sample_interval = Duration::zero();
  /// Self-contained HTML run-report destination; empty = none.
  std::string report_html_path;
  /// Deterministic JSON snapshot destination; empty = none. Identical
  /// seeds + sample interval produce byte-identical files.
  std::string snapshot_json_path;
  /// Report title; defaults to "<splicer> splicing, <policy> pool @ B".
  std::string report_title;

  /// Install the hot-path profiler for this run (also enabled by
  /// VSPLICE_PROFILE=1 in the environment). The profiler only reads the
  /// wall clock — figure outputs are byte-identical with it on or off;
  /// the measured nanoseconds land in ScenarioResult::profile and the
  /// report's "Profile" section. Note the snapshot/report files embed
  /// those measured nanoseconds, so the "identical seeds produce
  /// byte-identical files" guarantee holds only with profiling off.
  bool profile = false;

  /// Install the lifecycle record (obs/span.h) for this run (also
  /// enabled by VSPLICE_SPANS=1, and implied by every view of it:
  /// trace_path, timeline_summary, the report/snapshot outputs and
  /// trace_chrome_path). Spans only read simulated time — figure outputs
  /// are byte-identical with them on or off; the per-phase waterfall
  /// lands in ScenarioResult::waterfall.
  bool spans = false;
  /// Chrome trace-event (chrome://tracing / Perfetto) destination;
  /// empty = none. Includes the profiler flame when profiling is also
  /// on.
  std::string trace_chrome_path;
};

struct ScenarioResult {
  /// Per-leecher QoE, in node order.
  std::vector<streaming::QoeMetrics> viewers;

  /// Aggregates over viewers (stall counts/durations include every
  /// viewer; startup only those that started).
  double total_stalls = 0;
  double mean_stalls = 0;
  double total_stall_seconds = 0;
  double mean_stall_seconds = 0;
  double mean_startup_seconds = 0;
  std::size_t finished_viewers = 0;
  std::size_t viewer_count = 0;

  /// Splicing facts for the overhead analyses.
  std::size_t segment_count = 0;
  Bytes total_transfer_bytes = 0;
  Bytes media_bytes = 0;
  double overhead_ratio = 0;
  Bytes largest_segment = 0;
  Bytes smallest_segment = 0;

  /// Simulated time at which the last viewer finished (or the limit).
  Duration wall_time = Duration::zero();
  std::size_t churn_departures = 0;

  /// Transport/protocol diagnostics.
  std::uint64_t requests_served = 0;
  std::uint64_t requests_choked = 0;
  std::uint64_t seeder_served = 0;
  std::uint64_t seeder_choked = 0;
  std::uint64_t pieces_aborted = 0;
  /// Control-message routing totals from SwarmStats. `messages_verified`
  /// counts deliveries that took the encode→decode oracle (zero on the
  /// fast path; routed + dropped under wire_roundtrip).
  std::uint64_t messages_routed = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_verified = 0;
  Bytes seeder_uploaded = 0;
  Bytes peers_uploaded = 0;
  double network_bytes_delivered = 0;

  /// Per-viewer sessions with every stall explained (only when
  /// timeline_summary was set).
  std::string timeline;
  /// Anomalies flagged by the sampler scan (only when sampling ran).
  std::size_t anomaly_count = 0;

  /// Scheduling-decision counters summed over all viewers (the scaling
  /// benchmark reports work-per-decision from these).
  std::uint64_t segment_picks = 0;
  std::uint64_t holder_picks = 0;
  std::uint64_t candidates_scanned = 0;

  /// HAVE wire messages sent, summed over all viewers: one per
  /// (completed segment, established control connection).
  std::uint64_t control_have_updates = 0;

  /// Event-loop health at end of run (deterministic counters).
  std::uint64_t events_fired = 0;
  std::size_t heap_high_water = 0;
  /// Garbage-triggered event-heap rebuilds (DESIGN.md §16).
  std::uint64_t heap_compactions = 0;
  /// Scoped-reallocation health (DESIGN.md §16): recomputes, the flows
  /// they touched vs the full-rescan equivalent
  /// (reallocate_touched_flows_ratio = retouched / active integral), and
  /// lazy settlements per event.
  std::uint64_t reallocations = 0;
  /// Always equal to `reallocations` (every reallocation is scoped);
  /// kept only because the repository benchmark (perfbench/) reads it.
  std::uint64_t reallocations_scoped = 0;
  std::uint64_t flows_retouched = 0;
  double reallocate_touched_flows_ratio = 0;
  double settled_flows_per_event = 0;

  /// Per-subsystem byte gauges at end of run (always filled;
  /// capacity-based and deterministic — see obs/resource.h).
  obs::MemoryBreakdown memory;
  std::uint64_t memory_total_bytes = 0;
  /// Peak of the sampled mem.total series; equals memory_total_bytes
  /// when sampling was off.
  std::uint64_t memory_peak_bytes = 0;
  /// memory_total_bytes / viewer_count — the ROADMAP's per-peer budget.
  double memory_bytes_per_peer = 0;

  /// Hot-path call-tree (empty unless ScenarioConfig::profile or
  /// VSPLICE_PROFILE=1). Wall nanoseconds: NOT deterministic, excluded
  /// from identity comparisons.
  obs::ProfileSnapshot profile;

  /// Per-phase latency waterfall over every delivered segment (empty
  /// unless the lifecycle record was on; see ScenarioConfig::spans).
  /// Built from simulated time, so it IS deterministic.
  std::vector<obs::PhaseStats> waterfall;
  /// Spans in the lifecycle record (0 when it was off).
  std::uint64_t spans_recorded = 0;
};

/// Runs one full swarm simulation.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& config);

/// The paper's aggregation: run `repetitions` seeds and average
/// (Section VI-A: "ran the application three times for each bandwidth
/// and took the rounded average").
struct RepeatedResult {
  double stalls = 0;         // rounded average of total stalls
  double stall_seconds = 0;  // average total stall duration
  double startup_seconds = 0;
  double mean_stalls_per_viewer = 0;
  std::vector<ScenarioResult> runs;
};

/// The exact config repetition `run_index` (0-based) executes: the
/// repetition seed ((i+1) * 1000003) and, when repetitions > 1, per-run
/// ".runN" suffixes on the trace/report/snapshot paths. Both the serial
/// and the parallel repetition paths build their runs through this, so
/// their outputs are byte-identical.
[[nodiscard]] ScenarioConfig repetition_config(const ScenarioConfig& base,
                                               int run_index,
                                               int repetitions);

/// Folds per-run results (in repetition order) into the paper's rounded
/// averages.
[[nodiscard]] RepeatedResult aggregate_repeated(
    std::vector<ScenarioResult> runs);

/// `jobs` > 1 fans the repetitions across that many threads (0 = one per
/// hardware thread); results are assembled in repetition order, so the
/// aggregate and every output file match the jobs=1 run byte for byte.
[[nodiscard]] RepeatedResult run_repeated(ScenarioConfig config,
                                          int repetitions = 3,
                                          int jobs = 1);

}  // namespace vsplice::experiments
