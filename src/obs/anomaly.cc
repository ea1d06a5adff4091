#include "obs/anomaly.h"

#include <algorithm>
#include <cstdio>

#include "obs/sampler.h"

namespace vsplice::obs {

namespace {

/// Walks `series` for maximal runs where the value sits at or below
/// `low`, armed only once an earlier bucket reached `arm` (so a series
/// that *starts* low — a pool at k=1 from the first sample, a segment
/// held only by the seeder — is the initial condition, not a collapse).
/// Reports each run's [start, end] plus the highest mean seen before it.
template <typename Callback>
void scan_low_runs(const Series& series, double arm, double low,
                   Callback&& on_run) {
  const std::vector<Sample>& samples = series.samples();
  bool armed = false;
  double peak = 0.0;
  bool in_run = false;
  TimePoint run_start;
  TimePoint run_end;
  for (const Sample& s : samples) {
    if (in_run) {
      if (s.min <= low) {
        run_end = s.time;
      } else {
        on_run(run_start, run_end, peak);
        in_run = false;
      }
    }
    if (!in_run && armed && s.min <= low) {
      in_run = true;
      run_start = s.time;
      run_end = s.time;
    }
    if (s.max >= arm) {
      armed = true;
      peak = std::max(peak, s.mean);
    }
  }
  if (in_run) on_run(run_start, run_end, peak);
}

void scan_buffer_drains(const TimeSeriesStore& store,
                        const std::vector<Span>& spans,
                        std::vector<Anomaly>& out) {
  for (const Span& stall : spans) {
    if (stall.kind != SpanKind::kStall) continue;

    Anomaly anomaly;
    anomaly.kind = "buffer_drain";
    anomaly.node = stall.node;
    anomaly.segment = stall.segment;
    anomaly.onset = stall.t_start;
    // A stall that never resumed ends where it began.
    anomaly.end = stall.open() ? stall.t_start : stall.t_end;

    // Onset: the last local maximum of the viewer's buffer before the
    // stall — where the drain that caused it began.
    double peak = 0.0;
    const Series* buffer =
        store.find(SwarmSampler::peer_series(stall.node, "buffer_s"));
    if (buffer != nullptr && !buffer->empty()) {
      const std::vector<Sample>& samples = buffer->samples();
      // The last sample at or before the stall (samples are time-ordered).
      const auto after = std::upper_bound(
          samples.begin(), samples.end(), stall.t_start,
          [](TimePoint t, const Sample& s) { return t < s.time; });
      if (after != samples.begin()) {
        auto at = static_cast<std::size_t>(after - samples.begin()) - 1;
        while (at > 0 && samples[at - 1].mean >= samples[at].mean) --at;
        anomaly.onset = samples[at].time;
        peak = samples[at].mean;
      }
    }

    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "buffer drained from %.1f s to zero over %.1f s before "
                  "stalling on segment %lld",
                  peak, (stall.t_start - anomaly.onset).as_seconds(),
                  static_cast<long long>(stall.segment));
    anomaly.detail = buf;
    out.push_back(std::move(anomaly));
  }
}

void scan_pool_collapses(const TimeSeriesStore& store,
                         std::vector<Anomaly>& out) {
  for (const auto& [name, series] : store.all()) {
    std::int64_t node = -1;
    std::string what;
    if (!SwarmSampler::parse_peer_series(name, node, what) || what != "pool") {
      continue;
    }
    scan_low_runs(series, 2.0, 1.0,
                  [&](TimePoint start, TimePoint end, double peak) {
                    Anomaly anomaly;
                    anomaly.kind = "pool_collapse";
                    anomaly.node = node;
                    anomaly.onset = start;
                    anomaly.end = end;
                    char buf[120];
                    std::snprintf(buf, sizeof buf,
                                  "download pool collapsed to k=1 after "
                                  "running at k=%.0f",
                                  peak);
                    anomaly.detail = buf;
                    out.push_back(std::move(anomaly));
                  });
  }
}

void scan_low_availability(const TimeSeriesStore& store,
                           std::vector<Anomaly>& out) {
  for (const auto& [name, series] : store.all()) {
    std::size_t segment = 0;
    if (!SwarmSampler::parse_segment_series(name, segment)) continue;
    scan_low_runs(series, 2.0, 1.5,
                  [&](TimePoint start, TimePoint end, double peak) {
                    Anomaly anomaly;
                    anomaly.kind = "low_availability";
                    anomaly.segment = static_cast<std::int64_t>(segment);
                    anomaly.onset = start;
                    anomaly.end = end;
                    char buf[140];
                    std::snprintf(buf, sizeof buf,
                                  "segment %zu fell below 2 online replicas "
                                  "(had %.0f)",
                                  segment, peak);
                    anomaly.detail = buf;
                    out.push_back(std::move(anomaly));
                  });
  }
}

void scan_seeder_saturation(const TimeSeriesStore& store,
                            std::vector<Anomaly>& out) {
  const Series* slots_series = store.find("swarm.seeder_upload_slots");
  const Series* active = store.find("swarm.seeder_active_uploads");
  if (slots_series == nullptr || active == nullptr) return;
  const double slots = slots_series->max_value();
  if (slots < 1.0) return;

  const std::vector<Sample>& samples = active->samples();
  bool in_run = false;
  TimePoint run_start;
  TimePoint run_end;
  std::size_t run_samples = 0;
  const auto flush = [&] {
    // Sustained = at least 3 raw samples; a single busy instant is
    // normal scheduling, not saturation.
    if (in_run && run_samples >= 3) {
      Anomaly anomaly;
      anomaly.kind = "seeder_saturation";
      anomaly.onset = run_start;
      anomaly.end = run_end;
      char buf[120];
      std::snprintf(buf, sizeof buf,
                    "all %.0f seeder upload slots busy for %.1f s", slots,
                    (run_end - run_start).as_seconds());
      anomaly.detail = buf;
      out.push_back(std::move(anomaly));
    }
    in_run = false;
    run_samples = 0;
  };
  for (const Sample& s : samples) {
    if (s.min >= slots - 1e-9) {
      if (!in_run) {
        in_run = true;
        run_start = s.time;
      }
      run_end = s.time;
      run_samples += s.count;
    } else {
      flush();
    }
  }
  flush();
}

void scan_event_queue_garbage(const TimeSeriesStore& store,
                              std::vector<Anomaly>& out) {
  // Lazy cancellation leaves dead entries in the simulator heap until
  // they surface; a garbage share that stays above 1/2 means the heap
  // is mostly carrying cancelled events — sift work wasted on garbage.
  const Series* ratio = store.find("sim.garbage_ratio");
  if (ratio == nullptr) return;
  constexpr double kThreshold = 0.5;
  bool in_run = false;
  TimePoint run_start;
  TimePoint run_end;
  std::size_t run_samples = 0;
  double worst = 0.0;
  const auto flush = [&] {
    // Sustained = at least 3 raw samples, matching seeder saturation:
    // one garbage-heavy instant right after a churn burst is expected.
    if (in_run && run_samples >= 3) {
      Anomaly anomaly;
      anomaly.kind = "event_queue_garbage";
      anomaly.onset = run_start;
      anomaly.end = run_end;
      char buf[140];
      std::snprintf(buf, sizeof buf,
                    "event heap > 50%% lazily-cancelled garbage for "
                    "%.1f s (worst %.0f%%)",
                    (run_end - run_start).as_seconds(), worst * 100.0);
      anomaly.detail = buf;
      out.push_back(std::move(anomaly));
    }
    in_run = false;
    run_samples = 0;
    worst = 0.0;
  };
  for (const Sample& s : ratio->samples()) {
    if (s.min > kThreshold) {
      if (!in_run) {
        in_run = true;
        run_start = s.time;
      }
      run_end = s.time;
      run_samples += s.count;
      worst = std::max(worst, s.max);
    } else {
      flush();
    }
  }
  flush();
}

}  // namespace

std::vector<Anomaly> scan_anomalies(const TimeSeriesStore& store,
                                    const std::vector<Span>& spans) {
  std::vector<Anomaly> out;
  scan_buffer_drains(store, spans, out);
  scan_pool_collapses(store, out);
  scan_low_availability(store, out);
  scan_seeder_saturation(store, out);
  scan_event_queue_garbage(store, out);
  std::sort(out.begin(), out.end(), [](const Anomaly& a, const Anomaly& b) {
    if (a.onset.count_micros() != b.onset.count_micros()) {
      return a.onset.count_micros() < b.onset.count_micros();
    }
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.node != b.node) return a.node < b.node;
    return a.segment < b.segment;
  });
  return out;
}

}  // namespace vsplice::obs
