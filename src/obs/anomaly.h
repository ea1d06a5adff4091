// Anomaly scanning over the sampled time-series + the lifecycle record.
//
// Four named pathologies, each with an onset time so a report reader can
// line the flag up against the charts:
//   buffer_drain      — a viewer's playback buffer drained to zero ahead
//                       of a recorded stall span (one per stall, always
//                       emitted, so every stall is attributable).
//   pool_collapse     — the adaptive pool fell to k=1 after having run
//                       wider (Eq. 1 starving the download pipeline).
//   low_availability  — some segment dropped below 2 online replicas
//                       after having been replicated (churn risk: one
//                       departure makes it unavailable).
//   seeder_saturation — every seeder upload slot stayed busy across
//                       several consecutive samples (the swarm is
//                       seeder-bound).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/span.h"
#include "obs/timeseries.h"

namespace vsplice::obs {

struct Anomaly {
  /// buffer_drain | pool_collapse | low_availability | seeder_saturation
  std::string kind;
  /// Affected viewer, or -1 for swarm-wide conditions.
  std::int64_t node = -1;
  /// Affected segment, or -1 when not segment-specific.
  std::int64_t segment = -1;
  TimePoint onset;
  TimePoint end;
  /// Human-readable one-liner with the numbers behind the flag.
  std::string detail;
};

/// Scans the sampled series (and the record's stall spans, for drain
/// onsets) and returns every flagged condition, ordered by onset, then
/// kind, then node/segment — a deterministic order for the snapshot
/// writer.
[[nodiscard]] std::vector<Anomaly> scan_anomalies(
    const TimeSeriesStore& store, const std::vector<Span>& spans);

}  // namespace vsplice::obs
