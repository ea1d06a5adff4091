// Metrics registry: named counters, gauges, and histograms that
// components register into.
//
// Counters are monotonically increasing u64s; gauges remember their
// current value and fold every set() into an OnlineStats accumulator
// (min/mean/max over the run); histograms wrap common/Histogram for the
// bucketed shape plus OnlineStats for the moments. Instances returned by
// the registry are stable for the registry's lifetime, so hot call sites
// may cache the reference.
//
// The inline count()/set_gauge()/observe() helpers write to the
// currently installed registry (ScopedObs below) and are a single
// pointer test when observability is off.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "common/stats.h"

namespace vsplice::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) {
    value_ = v;
    samples_.add(v);
  }
  [[nodiscard]] double value() const { return value_; }
  /// Distribution of every value the gauge has held.
  [[nodiscard]] const OnlineStats& samples() const { return samples_; }

 private:
  double value_ = 0.0;
  OnlineStats samples_;
};

/// Bucket layout for a histogram metric; fixed at first registration.
struct HistogramSpec {
  double lo = 0.0;
  double bucket_width = 0.5;
  std::size_t buckets = 100;
};

class HistogramMetric {
 public:
  explicit HistogramMetric(const HistogramSpec& spec)
      : histogram_{spec.lo, spec.bucket_width, spec.buckets} {}

  void observe(double v) {
    histogram_.add(v);
    stats_.add(v);
  }
  [[nodiscard]] const Histogram& histogram() const { return histogram_; }
  [[nodiscard]] const OnlineStats& stats() const { return stats_; }

 private:
  Histogram histogram_;
  OnlineStats stats_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates. A name registered as one kind cannot be reused as
  /// another (throws InvalidArgument).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  HistogramMetric& histogram(std::string_view name,
                             const HistogramSpec& spec = HistogramSpec{});

  [[nodiscard]] std::size_t size() const;
  /// All registered names, sorted (the registry iterates
  /// deterministically for the exporters).
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const HistogramMetric* find_histogram(
      std::string_view name) const;

  /// "name,type,count,value,mean,min,max" rows, sorted by name.
  [[nodiscard]] std::string to_csv() const;

 private:
  struct Metric {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };
  // std::less<> enables string_view lookup without allocation.
  std::map<std::string, Metric, std::less<>> metrics_;
};

// ------------------------------------------------- installed-registry API

namespace detail {
// Thread-local installed registry: each simulation run is single-threaded
// on its own Simulator, but experiments::ParallelRunner executes many
// runs on concurrent worker threads. Giving every thread its own
// installed registry keeps the helpers lock-free (still a single pointer
// test when observability is off) and keeps concurrent runs isolated.
inline thread_local MetricsRegistry* g_metrics = nullptr;
/// Bumped on every ScopedObs install/restore. Cached metric handles
/// (CachedCounter/CachedGauge below) revalidate against it, so a
/// pointer cached under one installed registry is never used under
/// another — even one that reuses the same address. Starts at 0 and a
/// registry can only be installed through ScopedObs (which bumps), so
/// generation 0 always means "nothing resolved yet".
inline thread_local std::uint64_t g_obs_generation = 0;
}  // namespace detail

[[nodiscard]] inline MetricsRegistry* metrics() { return detail::g_metrics; }

/// Installs a metrics registry for the enclosing scope and restores the
/// previous one on destruction (scopes nest; the innermost wins).
class ScopedObs {
 public:
  explicit ScopedObs(MetricsRegistry* metrics)
      : previous_metrics_{detail::g_metrics} {
    detail::g_metrics = metrics;
    ++detail::g_obs_generation;
  }
  ScopedObs(const ScopedObs&) = delete;
  ScopedObs& operator=(const ScopedObs&) = delete;
  ~ScopedObs() {
    detail::g_metrics = previous_metrics_;
    ++detail::g_obs_generation;
  }

 private:
  MetricsRegistry* previous_metrics_;
};

inline void count(std::string_view name, std::uint64_t n = 1) {
  if (MetricsRegistry* m = detail::g_metrics) m->counter(name).add(n);
}

/// A counter handle for hot call sites: resolves the name-to-Counter
/// lookup once per installed registry instead of per call (the registry
/// guarantees instances are stable for its lifetime). Revalidated
/// against the ScopedObs install generation, so scope changes — and
/// even a new registry at a recycled address — are always respected.
/// One per call site, same thread as the installs it runs under.
class CachedCounter {
 public:
  explicit CachedCounter(const char* name) : name_{name} {}

  void add(std::uint64_t n = 1) {
    MetricsRegistry* m = detail::g_metrics;
    if (m == nullptr) return;
    if (generation_ != detail::g_obs_generation) {
      generation_ = detail::g_obs_generation;
      counter_ = &m->counter(name_);
    }
    counter_->add(n);
  }

 private:
  const char* name_;
  std::uint64_t generation_ = 0;  // 0 = nothing resolved yet
  Counter* counter_ = nullptr;
};

/// Gauge analogue of CachedCounter.
class CachedGauge {
 public:
  explicit CachedGauge(const char* name) : name_{name} {}

  void set(double v) {
    MetricsRegistry* m = detail::g_metrics;
    if (m == nullptr) return;
    if (generation_ != detail::g_obs_generation) {
      generation_ = detail::g_obs_generation;
      gauge_ = &m->gauge(name_);
    }
    gauge_->set(v);
  }

 private:
  const char* name_;
  std::uint64_t generation_ = 0;
  Gauge* gauge_ = nullptr;
};

inline void set_gauge(std::string_view name, double v) {
  if (MetricsRegistry* m = detail::g_metrics) m->gauge(name).set(v);
}

inline void observe(std::string_view name, double v,
                    const HistogramSpec& spec = HistogramSpec{}) {
  if (MetricsRegistry* m = detail::g_metrics) {
    m->histogram(name, spec).observe(v);
  }
}

}  // namespace vsplice::obs
