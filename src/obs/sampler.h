// Periodic swarm-state sampling into a TimeSeriesStore.
//
// obs/ sits below sim/ and p2p/ in the layering (they emit into it), so
// the sampler never sees a Swarm: each tick it pulls a plain-data
// SwarmObservation from a probe callback. run_scenario owns the
// sim::PeriodicTask that drives sample() and supplies a probe that calls
// Swarm::observe().
//
// Per-peer series:   peer.<node>.buffer_s | pool | inflight_segments |
//                    inflight_bytes | rate_Bps | completion
// Swarm-wide series: swarm.online_peers | min_replicas | mean_replicas |
//                    seeder_active_uploads | seeder_upload_slots |
//                    seeder_upload_rate_Bps | goodput_Bps
// Availability:      avail.seg<NNNN> (replica count per segment,
//                    zero-padded so lexicographic order == index order)
// Event-loop health: sim.queue_depth | heap_high_water | garbage_ratio |
//                    events_per_sec | heap_compactions
//                    net.realloc_touched_ratio | settled_flows_per_event
// Memory gauges:     mem.<subsystem> | mem.total | mem.bytes_per_peer
//                    (see obs/resource.h)
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "obs/resource.h"
#include "obs/timeseries.h"

namespace vsplice::obs {

/// Everything sampled about one viewer.
struct PeerObservation {
  std::int64_t node = -1;
  bool online = false;
  bool has_player = false;
  bool stalled = false;
  bool finished = false;
  /// Contiguous playable seconds ahead of the playhead (Eq. 1's T).
  double buffer_s = 0.0;
  /// Current pool target k.
  int pool = 0;
  std::size_t inflight_segments = 0;
  std::int64_t inflight_bytes = 0;
  /// Fraction of segments held, [0, 1].
  double completion = 0.0;
  /// Cumulative bytes received at the access link.
  std::int64_t bytes_downloaded = 0;
};

/// Everything sampled about the swarm.
struct SwarmObservation {
  std::vector<PeerObservation> peers;
  /// Replica count per segment across online peers (seeder included).
  std::vector<std::size_t> replicas;
  int seeder_active_uploads = 0;
  int seeder_upload_slots = 0;
  /// Cumulative bytes the seeder has uploaded.
  std::int64_t seeder_uploaded_bytes = 0;
  /// Cumulative payload bytes delivered across every network flow.
  double network_bytes_delivered = 0.0;
  /// Event-loop health, read from the run's Simulator.
  std::uint64_t events_fired = 0;  ///< cumulative over the run
  std::size_t queue_depth = 0;     ///< live (non-cancelled) pending events
  std::size_t heap_entries = 0;    ///< raw entries incl. cancelled garbage
  std::size_t heap_high_water = 0;
  std::uint64_t heap_compactions = 0;  ///< garbage-triggered heap rebuilds
  /// Scoped-reallocation health, read from the run's Network (see
  /// DESIGN.md §16): recomputed flows vs the full-rescan equivalent, and
  /// lazy settlements vs events fired.
  std::uint64_t flows_retouched = 0;
  std::uint64_t flows_active_integral = 0;
  std::uint64_t flows_settled = 0;
  /// Per-subsystem byte gauges (see obs/resource.h); empty when the
  /// probe does not supply them.
  MemoryBreakdown memory;
};

class SwarmSampler {
 public:
  using Probe = std::function<SwarmObservation()>;

  SwarmSampler(TimeSeriesStore& store, Probe probe);

  /// Takes one snapshot; rates are derived from the previous snapshot's
  /// cumulative byte counts (zero on the first sample).
  void sample(TimePoint now);

  [[nodiscard]] std::size_t samples_taken() const { return samples_; }

  /// The store's naming scheme, in one place.
  [[nodiscard]] static std::string peer_series(std::int64_t node,
                                               std::string_view what);
  [[nodiscard]] static std::string segment_series(std::size_t segment);
  /// Parses "peer.<node>.<what>"; false when `name` is something else.
  static bool parse_peer_series(std::string_view name, std::int64_t& node,
                                std::string& what);
  /// Parses "avail.seg<NNNN>"; false when `name` is something else.
  static bool parse_segment_series(std::string_view name,
                                   std::size_t& segment);

 private:
  TimeSeriesStore& store_;
  Probe probe_;
  std::size_t samples_ = 0;
  bool have_previous_ = false;
  TimePoint previous_time_;
  std::map<std::int64_t, std::int64_t> previous_bytes_;
  std::int64_t previous_seeder_bytes_ = 0;
  double previous_delivered_ = 0.0;
  std::uint64_t previous_events_fired_ = 0;
};

}  // namespace vsplice::obs
