// Self-contained run reports over one sampled + recorded run.
//
// Two writers share a ReportData bundle:
//   render_json_snapshot — deterministic machine-readable JSON (sorted
//     series names, fixed field order, %.6g floats). Identical seeded
//     runs with the same sample interval produce byte-identical output.
//   render_html_report — one self-contained HTML file (inline CSS +
//     inline SVG, no external assets): stat tiles, swarm overview
//     charts, a segment-availability heat strip, per-viewer buffer
//     timelines with stall shading and pool-size steps, the anomaly
//     list, and the stall-attribution table.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include <cstdint>

#include "obs/anomaly.h"
#include "obs/exporters.h"
#include "obs/profiler.h"
#include "obs/resource.h"
#include "obs/timeseries.h"

namespace vsplice::obs {

struct RunInfo {
  std::string title;
  /// Ordered key/value parameters, rendered verbatim (callers pass them
  /// already sorted for deterministic snapshots).
  std::vector<std::pair<std::string, std::string>> params;
};

struct ReportData {
  RunInfo info;
  /// Required; must outlive the ReportData.
  const TimeSeriesStore* series = nullptr;
  /// Each stall's `anomalies` indices point into `anomalies`.
  std::vector<StallExplanation> stalls;
  std::vector<Anomaly> anomalies;
  /// Preformatted per-viewer timeline (summarize_timeline), optional.
  std::string timeline;
  /// Hot-path profile (empty unless the run profiled); values are wall
  /// nanoseconds, so a profiled snapshot is NOT byte-identical across
  /// machines — the structure (paths, counts) is.
  ProfileSnapshot profile;
  /// Per-phase segment-delivery waterfall (empty when the record holds
  /// no delivery spans). Built from simulated time: deterministic.
  std::vector<PhaseStats> waterfall;
  /// Per-subsystem byte gauges at end of run (empty = no Memory
  /// section).
  MemoryBreakdown memory;
  /// Peak of the sampled mem.total series (0 when not sampled).
  std::uint64_t memory_peak_bytes = 0;
  /// End-of-run total bytes divided by viewer count (0 when unknown).
  double memory_bytes_per_peer = 0.0;
};

/// Joins everything the writers need from the lifecycle record: scans
/// the series for anomalies, explains the stalls against them, and
/// builds the waterfall and the timeline text.
[[nodiscard]] ReportData build_report(RunInfo info,
                                      const TimeSeriesStore& store,
                                      const std::vector<Span>& spans);

[[nodiscard]] std::string render_json_snapshot(const ReportData& data);
[[nodiscard]] std::string render_html_report(const ReportData& data);

/// Writes `text` to `path` verbatim; logs and returns false on failure.
bool write_text_file(const std::string& path, const std::string& text);

/// True when `path` can be opened for writing. Probes without
/// clobbering: an existing file is opened for append and left intact; a
/// missing one is created and removed again. CLIs call this up front so
/// a typo'd output directory fails before the simulation, not after.
[[nodiscard]] bool probe_writable_path(const std::string& path);

}  // namespace vsplice::obs
