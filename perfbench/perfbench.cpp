// Repository benchmark: three named workloads through the public
// experiments entry points (run_scenario, ContentCache, the video/core
// splicing calls), timed and counted from outside the library.
//
//   vsplice_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads (README.md gives the reasons and the layer map). A workload
// is a fixed number of passes, each with its own repetition seeds drawn
// from --seed:
//   paper_grid      4 passes; a pass is the 40 distinct cells of Figs 2-5,
//                   3 seeds each, 20 nodes, run to completion
//   swarm_2000      2 passes; a pass is 2000 nodes, 4s splicing, adaptive
//                   pool, 256 kB/s, 240 s simulated horizon
//   wide_churn_500  4 passes; a pass is 500 nodes, 1024 kB/s, fixed:8
//                   pool, 8 upload slots, 5 s join spread, churn on, run
//                   to completion
//
// Set-up (content synthesis + splicing for every splicer the workload
// uses, config generation) is repeated and its median reported. Every
// simulation then runs serially on this thread with loop_threads = 1.
// While --seconds allow, passes are repeated and must reproduce their
// first outputs exactly. --trace 0 reports the end-to-end metrics;
// --trace 1 runs the first two passes only, follows each with a profiled
// twin (whose simulated outputs must match) and reports the per-layer
// metrics. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
// Operations: every simulation is one operation, failed when it throws or
// breaks an output invariant, and a repeated or profiled pass that does
// not reproduce its first outputs is a failure too. paper_grid also
// prints the twelve paper shape checks of bench_fig2..5, pooled over its
// passes and per pass (pass 0 at --seed 1 runs the paper's own seeds).
// They are statistical properties of the model at a few seeds per cell,
// not output invariants: some fail at some seeds, so they are reported
// (experiments.shape_checks_passed) and never counted as failures.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/splicer.h"
#include "experiments/content_cache.h"
#include "experiments/paper_setup.h"
#include "video/encoder.h"

namespace {

using namespace vsplice;
using experiments::RepeatedResult;
using experiments::ScenarioConfig;
using experiments::ScenarioResult;

constexpr std::uint64_t kVideoSeed = 2015;
constexpr int kSetupRepetitions = 101;
constexpr int kGridRepetitions = 3;
/// Passes a traced run makes (each twice: untraced, then profiled).
constexpr std::size_t kTracedPasses = 2;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolation quantile of a sorted sample (q in [0, 1]).
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
double to_d(std::uint64_t v) { return static_cast<double>(v); }

/// Repetition seed i of benchmark seed n. Seed 1 gives the paper's
/// repetition seeds ((i + 1) * 1000003) for i < 3, so paper_grid's pass 0
/// at --seed 1 is the figure grid bench_fig2..5 runs.
std::uint64_t repetition_seed(std::uint64_t n, int i) {
  return std::uint64_t{1000003} * static_cast<std::uint64_t>(i + 1) +
         (n - 1) * std::uint64_t{0x9E3779B97F4A7C15};
}

// --- Workloads -----------------------------------------------------------

/// One cell of the paper grid: its repetitions are a pass's
/// runs[first, first + 3).
struct GridCell {
  std::string key;  // "a.128.gop", "b.256.fixed:4", "c.1024.8s"
  std::size_t first = 0;
};

struct Workload {
  std::vector<std::string> splicers;            // content built at set-up
  std::vector<std::vector<ScenarioConfig>> passes;
  std::vector<GridCell> cells;                  // paper_grid only
};

std::string cell_key(char group, int kbs, const std::string& variant) {
  return std::string{group} + "." + std::to_string(kbs) + "." + variant;
}

Workload paper_grid(std::uint64_t seed) {
  constexpr int kPasses = 4;
  Workload w;
  w.splicers = {"gop", "2s", "4s", "8s"};
  w.passes.resize(kPasses);
  const auto add_cell = [&](char group, int kbs, const std::string& variant,
                            ScenarioConfig config) {
    w.cells.push_back({cell_key(group, kbs, variant), w.passes[0].size()});
    config.bandwidth = Rate::kilobytes_per_second(kbs);
    config.loop_threads = 1;
    for (int p = 0; p < kPasses; ++p) {
      for (int i = 0; i < kGridRepetitions; ++i) {
        config.seed = repetition_seed(seed, p * kGridRepetitions + i);
        w.passes[static_cast<std::size_t>(p)].push_back(config);
      }
    }
  };
  // Figs 2 and 3: splicers at 128..768 kB/s, adaptive pool.
  for (const int kbs : {128, 256, 512, 768}) {
    for (const char* splicer : {"gop", "2s", "4s", "8s"}) {
      ScenarioConfig base;
      base.splicer = splicer;
      add_cell('a', kbs, splicer, base);
    }
  }
  // Fig 5: fixed pools at 4s (its adaptive column is the 4s cell above).
  for (const int kbs : {128, 256, 512, 768}) {
    for (const char* policy : {"fixed:2", "fixed:4", "fixed:8"}) {
      ScenarioConfig base;
      base.splicer = "4s";
      base.policy = policy;
      add_cell('b', kbs, policy, base);
    }
  }
  // Fig 4: 500 ms seeder latency, 128..1024 kB/s.
  for (const int kbs : {128, 256, 512, 1024}) {
    for (const char* splicer : {"2s", "4s", "8s"}) {
      ScenarioConfig base;
      base.splicer = splicer;
      base.seeder_delay = Duration::millis(475);
      add_cell('c', kbs, splicer, base);
    }
  }
  return w;
}

/// `passes` single-simulation passes of `config`, one seed each.
Workload single_swarm(ScenarioConfig config, std::uint64_t seed,
                      int passes) {
  Workload w;
  w.splicers = {config.splicer};
  config.loop_threads = 1;
  for (int p = 0; p < passes; ++p) {
    config.seed = repetition_seed(seed, p);
    w.passes.push_back({config});
  }
  return w;
}

Workload swarm_2000(std::uint64_t seed) {
  ScenarioConfig config;
  config.splicer = "4s";
  config.policy = "adaptive";
  config.bandwidth = Rate::kilobytes_per_second(256);
  config.nodes = 2000;
  config.time_limit = Duration::seconds(240.0);
  return single_swarm(config, seed, 2);
}

Workload wide_churn_500(std::uint64_t seed) {
  ScenarioConfig config;
  config.splicer = "4s";
  config.policy = "fixed:8";
  config.bandwidth = Rate::kilobytes_per_second(1024);
  config.nodes = 500;
  config.upload_slots = 8;
  config.join_spread = Duration::seconds(5.0);
  config.churn = true;
  config.churn_mean_lifetime = Duration::seconds(90.0);
  return single_swarm(config, seed, 4);
}

const std::map<std::string, Workload (*)(std::uint64_t)>& workloads() {
  static const std::map<std::string, Workload (*)(std::uint64_t)> table{
      {"paper_grid", &paper_grid},
      {"swarm_2000", &swarm_2000},
      {"wide_churn_500", &wide_churn_500}};
  return table;
}

// --- One pass ------------------------------------------------------------

/// Phase totals from the profiler, summed over every tree position.
struct PhaseTotals {
  double fire_s = 0, fire_self_s = 0;
  double reallocate_s = 0, star_allocate_s = 0;
  double deliver_s = 0, deliver_self_s = 0;
  double sched_s = 0;
  /// Direct children of sim.fire by name (seconds).
  std::map<std::string, double> fire_children;

  void add(const obs::ProfileSnapshot& profile) {
    static const std::string kFire = "sim.fire/";
    for (const obs::ProfileEntry& e : profile.entries) {
      const double total = static_cast<double>(e.total_ns) * 1e-9;
      const double self = static_cast<double>(e.self_ns) * 1e-9;
      const std::size_t at = e.path.rfind(kFire);
      if (at != std::string::npos &&
          e.path.find('/', at + kFire.size()) == std::string::npos) {
        fire_children[e.name] += total;
      }
      if (e.name == "sim.fire") {
        fire_s += total;
        fire_self_s += self;
      } else if (e.name == "net.reallocate") {
        reallocate_s += total;
      } else if (e.name == "net.star_allocate") {
        star_allocate_s += total;
      } else if (e.name == "swarm.deliver") {
        deliver_s += total;
        deliver_self_s += self;
      } else if (e.name == "p2p.schedule") {
        sched_s += total;
      }
    }
  }
};

struct Pass {
  std::vector<ScenarioResult> results;  // profiles dropped after use
  std::vector<double> run_wall_s;
  double wall_s = 0;
  PhaseTotals phases;
  std::uint64_t fingerprint = 0;
  std::size_t failed = 0;
};

/// FNV-1a over the simulated outputs of a pass.
class Fingerprint {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(Duration d) { add(static_cast<std::uint64_t>(d.count_micros())); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

void fingerprint_run(Fingerprint& fp, const ScenarioResult& r) {
  for (const streaming::QoeMetrics& m : r.viewers) {
    fp.add(m.startup_time);
    fp.add(m.total_stall_duration);
    fp.add(std::uint64_t{m.stall_count});
    fp.add(std::uint64_t{m.finished} | std::uint64_t{m.started} << 1);
    fp.add(static_cast<std::uint64_t>(m.bytes_downloaded));
    fp.add(static_cast<std::uint64_t>(m.bytes_wasted));
  }
  for (const std::uint64_t v :
       {r.requests_served, r.requests_choked, r.seeder_served,
        r.seeder_choked, r.pieces_aborted, r.messages_routed,
        r.messages_dropped, r.segment_picks, r.holder_picks,
        r.candidates_scanned, r.control_have_updates, r.events_fired,
        r.heap_compactions, r.reallocations, r.reallocations_scoped,
        r.flows_retouched, r.memory_total_bytes,
        std::uint64_t{r.churn_departures}, std::uint64_t{r.heap_high_water}}) {
    fp.add(v);
  }
  fp.add(r.wall_time);
  fp.add(r.network_bytes_delivered);
  fp.add(r.settled_flows_per_event);
}

/// The output invariants of one simulation; empty when all hold.
std::string check_run(const ScenarioConfig& config, const ScenarioResult& r) {
  if (r.viewer_count != config.nodes - 1 ||
      r.viewers.size() != config.nodes - 1) {
    return "viewer count != nodes - 1";
  }
  for (const double v : {r.mean_stalls, r.mean_stall_seconds,
                         r.mean_startup_seconds, r.total_stalls,
                         r.total_stall_seconds}) {
    if (!std::isfinite(v) || v < 0.0) return "non-finite or negative QoE";
  }
  std::size_t finished = 0;
  for (const streaming::QoeMetrics& m : r.viewers) {
    if (m.startup_time < Duration::zero() ||
        m.total_stall_duration < Duration::zero()) {
      return "negative viewer startup or stall time";
    }
    if (m.finished) {
      ++finished;
      if (!m.started) return "viewer finished without starting";
      if (m.bytes_downloaded < r.media_bytes) {
        return "finished viewer received less than the video's media bytes";
      }
    }
  }
  if (finished != r.finished_viewers) return "finished count mismatch";
  if (r.requests_served < r.seeder_served ||
      r.requests_choked < r.seeder_choked) {
    return "swarm request totals below the seeder's own";
  }
  // Every finished viewer had every segment served to it at least once,
  // and every served or choked request is a routed reply message.
  if (r.requests_served < finished * r.segment_count) {
    return "fewer served requests than finished viewers need";
  }
  if (r.messages_routed < r.requests_served + r.requests_choked) {
    return "fewer routed messages than request replies";
  }
  return {};
}

Pass run_pass(const std::vector<ScenarioConfig>& runs, bool profile) {
  Pass pass;
  Fingerprint fp;
  for (const ScenarioConfig& base : runs) {
    ScenarioConfig config = base;
    config.profile = profile;
    ScenarioResult result;
    const double start = now_s();
    std::string why;
    try {
      result = experiments::run_scenario(config);
    } catch (const std::exception& e) {
      why = std::string{"threw: "} + e.what();
    }
    const double wall = now_s() - start;
    pass.run_wall_s.push_back(wall);
    pass.wall_s += wall;
    if (why.empty()) why = check_run(config, result);
    if (!why.empty()) {
      ++pass.failed;
      std::fprintf(stderr, "simulation (seed %llu) failed: %s\n",
                   static_cast<unsigned long long>(config.seed), why.c_str());
    }
    pass.phases.add(result.profile);
    result.profile = {};
    fingerprint_run(fp, result);
    pass.results.push_back(std::move(result));
  }
  pass.fingerprint = fp.value();
  return pass;
}

// --- Paper shape checks (bench_fig2..5) ----------------------------------

struct ShapeCheck {
  std::string name;
  bool passed = false;
};

/// The twelve checks of bench_fig2..5 on the grid pooled over `passes`.
std::vector<ShapeCheck> shape_checks(const Workload& w,
                                     const std::vector<const Pass*>& passes) {
  std::map<std::string, RepeatedResult> cells;
  for (const GridCell& cell : w.cells) {
    std::vector<ScenarioResult> runs;
    for (const Pass* pass : passes) {
      for (int i = 0; i < kGridRepetitions; ++i) {
        ScenarioResult copy =
            pass->results[cell.first + static_cast<std::size_t>(i)];
        copy.viewers.clear();
        runs.push_back(std::move(copy));
      }
    }
    cells[cell.key] = experiments::aggregate_repeated(std::move(runs));
  }
  const auto at = [&](char group, int kbs,
                      const std::string& variant) -> const RepeatedResult& {
    return cells.at(cell_key(group, kbs, variant));
  };
  const auto stalls = [&](int kbs, const std::string& s) {
    return at('a', kbs, s).stalls;
  };
  const auto seconds = [&](int kbs, const std::string& s) {
    return at('a', kbs, s).stall_seconds;
  };
  const auto startup = [&](int kbs, const std::string& s) {
    return at('c', kbs, s).startup_seconds;
  };
  // Fig 5's columns: adaptive is the 4s cell of group a.
  const auto pool = [&](int kbs,
                        const std::string& policy) -> const RepeatedResult& {
    return policy == "adaptive" ? at('a', kbs, "4s") : at('b', kbs, policy);
  };

  std::vector<ShapeCheck> checks;
  // Figure 2.
  checks.push_back({"fig2.gop_worst_mid",
                    stalls(256, "gop") >= stalls(256, "4s") &&
                        stalls(256, "gop") >= stalls(256, "8s")});
  checks.push_back(
      {"fig2.two_bad_low", stalls(128, "2s") > stalls(128, "4s")});
  checks.push_back({"fig2.two_converges",
                    stalls(768, "2s") <= stalls(128, "2s") / 4 ||
                        stalls(768, "2s") <= stalls(768, "4s") + 10});
  checks.push_back({"fig2.falls_with_bandwidth",
                    stalls(768, "4s") < stalls(128, "4s") &&
                        stalls(768, "2s") < stalls(128, "2s")});
  // Figure 3.
  checks.push_back({"fig3.gop_longest_mid",
                    seconds(256, "gop") > seconds(256, "4s") &&
                        seconds(256, "gop") > seconds(256, "8s") &&
                        seconds(512, "gop") > seconds(512, "4s")});
  checks.push_back({"fig3.four_shorter_than_eight",
                    seconds(256, "4s") < seconds(256, "8s") * 1.15});
  checks.push_back({"fig3.falls_with_bandwidth",
                    seconds(768, "gop") < seconds(128, "gop") &&
                        seconds(768, "4s") < seconds(128, "4s")});
  // Figure 4.
  bool ordered = true;
  for (const int kbs : {128, 256, 512, 1024}) {
    ordered = ordered && startup(kbs, "2s") < startup(kbs, "4s") &&
              startup(kbs, "4s") < startup(kbs, "8s");
  }
  bool falls = true;
  for (const char* s : {"2s", "4s", "8s"}) {
    falls = falls && startup(1024, s) <= startup(128, s);
  }
  checks.push_back({"fig4.segments_ordered", ordered});
  checks.push_back({"fig4.low_bw_blowup",
                    startup(128, "8s") > 2.5 * startup(128, "2s")});
  checks.push_back({"fig4.falls_with_bandwidth", falls});
  // Figure 5.
  bool beats_small_pool = true;
  for (const int kbs : {256, 512, 768}) {
    beats_small_pool =
        beats_small_pool &&
        pool(kbs, "adaptive").stalls <= pool(kbs, "fixed:2").stalls;
  }
  const auto mean_stall = [&](const std::string& policy) {
    const RepeatedResult& r = pool(128, policy);
    return r.stall_seconds / std::max(1.0, r.stalls);
  };
  checks.push_back({"fig5.beats_small_pool", beats_small_pool});
  checks.push_back({"fig5.big_pool_long_stalls",
                    mean_stall("fixed:8") > 2.0 * mean_stall("adaptive") &&
                        mean_stall("fixed:8") > 2.0 * mean_stall("fixed:4")});
  return checks;
}

// --- Metrics -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Simulated totals over the workload's passes.
struct Simulated {
  double viewers = 0, started = 0, finished = 0;
  double stalls = 0, stall_s = 0;
  double delivered = 0, deliverable = 0;  // useful bytes vs one video each
  std::vector<double> startup_sorted;
  double events = 0, served = 0, choked = 0, messages = 0;
  double decisions = 0, candidates = 0, have_updates = 0;
  double pieces_aborted = 0, churn_departures = 0;
  double reallocations = 0, reallocations_scoped = 0;
  double flows_retouched = 0, flows_active_integral = 0, flows_settled = 0;
  double heap_high_water = 0, heap_compactions = 0, bytes_delivered = 0;
  double bytes_per_peer = 0;
  std::map<std::string, double> memory;  // per row, max over runs
};

Simulated simulated(const std::vector<const Pass*>& passes) {
  Simulated s;
  for (const Pass* pass : passes) {
    for (const ScenarioResult& r : pass->results) {
      s.viewers += to_d(r.viewer_count);
      s.finished += to_d(r.finished_viewers);
      s.stalls += r.total_stalls;
      s.stall_s += r.total_stall_seconds;
      for (const streaming::QoeMetrics& m : r.viewers) {
        if (m.started) {
          s.startup_sorted.push_back(m.startup_time.as_seconds());
        }
        s.delivered += static_cast<double>(std::min(
            m.bytes_downloaded - m.bytes_wasted, r.total_transfer_bytes));
        s.deliverable += static_cast<double>(r.total_transfer_bytes);
      }
      s.events += to_d(r.events_fired);
      s.served += to_d(r.requests_served);
      s.choked += to_d(r.requests_choked);
      s.messages += to_d(r.messages_routed);
      s.decisions += to_d(r.segment_picks + r.holder_picks);
      s.candidates += to_d(r.candidates_scanned);
      s.have_updates += to_d(r.control_have_updates);
      s.pieces_aborted += to_d(r.pieces_aborted);
      s.churn_departures += to_d(r.churn_departures);
      s.reallocations += to_d(r.reallocations);
      s.reallocations_scoped += to_d(r.reallocations_scoped);
      s.flows_retouched += to_d(r.flows_retouched);
      if (r.reallocate_touched_flows_ratio > 0) {
        s.flows_active_integral +=
            to_d(r.flows_retouched) / r.reallocate_touched_flows_ratio;
      }
      s.flows_settled += r.settled_flows_per_event * to_d(r.events_fired);
      s.heap_high_water =
          std::max(s.heap_high_water, to_d(r.heap_high_water));
      s.heap_compactions += to_d(r.heap_compactions);
      s.bytes_delivered += r.network_bytes_delivered;
      s.bytes_per_peer = std::max(s.bytes_per_peer, r.memory_bytes_per_peer);
      for (const auto& [row, bytes] : r.memory.subsystems) {
        double& slot = s.memory[row];
        slot = std::max(slot, to_d(bytes));
      }
    }
  }
  std::sort(s.startup_sorted.begin(), s.startup_sorted.end());
  s.started = static_cast<double>(s.startup_sorted.size());
  return s;
}

std::vector<Metric> end_to_end(double setup_s, double wall_s,
                               const Simulated& s) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"setup_s", setup_s, "s"},
      {"wall_s", wall_s, "s"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
      {"delivered_share", ratio(s.delivered, s.deliverable), "fraction"},
  };
}

/// Content-layer timings from direct, uncached calls (median of reps).
struct ContentTimings {
  double encode_s = 0;
  double splice_s = 0;
  double segments = 0;
  double overhead_ratio = 0;
};

ContentTimings time_content(const std::vector<std::string>& splicers) {
  std::vector<double> encode, splice;
  ContentTimings out;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    double t = now_s();
    const video::VideoStream stream = video::make_paper_video(kVideoSeed);
    encode.push_back(now_s() - t);
    double splice_total = 0, total = 0, media = 0, segments = 0;
    for (const std::string& spec : splicers) {
      const auto splicer = core::make_splicer(spec);
      t = now_s();
      const core::SegmentIndex index = splicer->splice(stream);
      splice_total += now_s() - t;
      segments += static_cast<double>(index.count());
      total += static_cast<double>(index.total_size());
      media += static_cast<double>(index.total_media_size());
    }
    splice.push_back(splice_total);
    out.segments = segments;
    out.overhead_ratio = ratio(total - media, media);
  }
  out.encode_s = median(encode);
  out.splice_s = median(splice);
  return out;
}

/// Per-layer metrics. Counts are totals over all passes; seconds are
/// per-pass medians of the profiled passes; shares are ratios of totals.
/// `untraced[k]` and `traced[k]` ran the same seeds.
std::vector<Metric> per_layer(const ContentTimings& content,
                              const std::vector<Pass>& untraced,
                              const std::vector<Pass>& traced,
                              const Simulated& s,
                              const std::vector<ShapeCheck>& checks) {
  double wall = 0, traced_wall = 0;
  PhaseTotals sum;
  std::vector<double> run_ms, overhead;
  for (std::size_t k = 0; k < traced.size(); ++k) {
    wall += untraced[k].wall_s;
    traced_wall += traced[k].wall_s;
    overhead.push_back(ratio(traced[k].wall_s, untraced[k].wall_s) - 1.0);
    for (const double w : untraced[k].run_wall_s) run_ms.push_back(w * 1e3);
    sum.fire_s += traced[k].phases.fire_s;
    sum.fire_self_s += traced[k].phases.fire_self_s;
    sum.reallocate_s += traced[k].phases.reallocate_s;
    sum.deliver_s += traced[k].phases.deliver_s;
  }
  std::sort(run_ms.begin(), run_ms.end());
  const auto phase = [&](double PhaseTotals::*field) {
    std::vector<double> v;
    for (const Pass& p : traced) v.push_back(p.phases.*field);
    return median(v);
  };
  std::size_t checks_passed = 0;
  for (const ShapeCheck& c : checks) checks_passed += c.passed ? 1 : 0;

  std::vector<Metric> m{
      {"video.encode_s", content.encode_s, "s"},
      {"core.splice_s", content.splice_s, "s"},
      {"core.segments", content.segments, "count"},
      {"core.overhead_ratio", content.overhead_ratio, "ratio"},
      {"experiments.runs", static_cast<double>(run_ms.size()), "count"},
      {"experiments.run_wall_ms.p50", quantile(run_ms, 0.50), "ms"},
      {"experiments.run_wall_ms.p90", quantile(run_ms, 0.90), "ms"},
      {"experiments.shape_checks_passed", to_d(checks_passed), "count"},
      {"sim.events", s.events, "count"},
      {"sim.events_per_segment", ratio(s.events, s.served), "ratio"},
      {"sim.ns_per_event", ratio(wall * 1e9, s.events), "ns"},
      {"sim.heap_high_water", s.heap_high_water, "count"},
      {"sim.heap_compactions", s.heap_compactions, "count"},
      {"sim.fire_s", phase(&PhaseTotals::fire_s), "s"},
      {"sim.fire_self_s", phase(&PhaseTotals::fire_self_s), "s"},
      {"net.reallocations", s.reallocations, "count"},
      {"net.reallocations_scoped", s.reallocations_scoped, "count"},
      {"net.touched_ratio", ratio(s.flows_retouched, s.flows_active_integral),
       "ratio"},
      {"net.settled_flows_per_event", ratio(s.flows_settled, s.events),
       "ratio"},
      {"net.reallocate_s", phase(&PhaseTotals::reallocate_s), "s"},
      {"net.star_allocate_s", phase(&PhaseTotals::star_allocate_s), "s"},
      {"net.reallocate_share", ratio(sum.reallocate_s, sum.fire_s),
       "fraction"},
      {"net.bytes_delivered", s.bytes_delivered, "bytes"},
      {"p2p.messages_routed", s.messages, "count"},
      {"p2p.messages_per_segment", ratio(s.messages, s.served), "ratio"},
      {"p2p.requests_served", s.served, "count"},
      {"p2p.requests_choked", s.choked, "count"},
      {"p2p.serve_ratio", ratio(s.served, s.served + s.choked), "fraction"},
      {"p2p.deliver_s", phase(&PhaseTotals::deliver_s), "s"},
      {"p2p.deliver_self_s", phase(&PhaseTotals::deliver_self_s), "s"},
      {"p2p.deliver_share", ratio(sum.deliver_s, sum.fire_s), "fraction"},
      {"p2p.decisions", s.decisions, "count"},
      {"p2p.candidates_per_decision", ratio(s.candidates, s.decisions),
       "ratio"},
      {"p2p.sched_s", phase(&PhaseTotals::sched_s), "s"},
      {"p2p.pieces_aborted", s.pieces_aborted, "count"},
      {"p2p.churn_departures", s.churn_departures, "count"},
      {"p2p.have_updates", s.have_updates, "count"},
      {"p2p.bytes_per_peer", s.bytes_per_peer, "bytes"},
  };
  for (const char* row :
       {"content", "net", "p2p.pool", "p2p.sched", "p2p.swarm", "sim"}) {
    const auto it = s.memory.find(row);
    m.push_back({std::string{"mem."} + row + "_bytes",
                 it != s.memory.end() ? it->second : 0.0, "bytes"});
  }
  m.push_back({"streaming.viewers", s.viewers, "count"});
  m.push_back({"streaming.viewers_started", s.started, "count"});
  m.push_back({"streaming.stalls", s.stalls, "count"});
  m.push_back({"streaming.stall_s", s.stall_s, "s"});
  m.push_back({"streaming.stalls_per_viewer", ratio(s.stalls, s.viewers),
               "count"});
  m.push_back({"streaming.stall_s_per_viewer", ratio(s.stall_s, s.viewers),
               "s"});
  m.push_back({"streaming.startup_s.p50", quantile(s.startup_sorted, 0.50),
               "s"});
  m.push_back({"streaming.startup_s.p95", quantile(s.startup_sorted, 0.95),
               "s"});
  m.push_back({"streaming.finished_share", ratio(s.finished, s.viewers),
               "fraction"});
  m.push_back({"obs.trace_overhead", median(overhead), "ratio"});
  m.push_back({"obs.unattributed_share", ratio(sum.fire_self_s, traced_wall),
               "fraction"});
  return m;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Refuses inherited variables that would swap in an oracle path or add
/// tracing cost (loop_threads is pinned per config instead).
bool environment_is_clean() {
  bool clean = true;
  for (const char* name :
       {"VSPLICE_FULL_REALLOC", "VSPLICE_WIRE_ROUNDTRIP", "VSPLICE_PROFILE",
        "VSPLICE_SPANS", "VSPLICE_TRACE"}) {
    if (const char* value = std::getenv(name); value != nullptr) {
      std::fprintf(stderr, "refusing to run: %s=%s is set\n", name, value);
      clean = false;
    }
  }
  return clean;
}

int usage() {
  std::fprintf(stderr,
               "usage: vsplice_perfbench --workload "
               "paper_grid|swarm_2000|wide_churn_500 --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !workloads().contains(workload_name) ||
      (trace != 0 && trace != 1) || seconds <= 0) {
    return usage();
  }
  if (!environment_is_clean()) return 3;
  const auto make_workload = workloads().at(workload_name);

  // --- Set-up: content for every splicer + config generation. A burst
  // of repetitions gives one median; bursts also run between passes, and
  // the lowest burst median is reported. On a shared VM the host's speed
  // can drop by up to half for seconds at a time, and a sub-millisecond
  // burst sits wholly inside one such phase.
  Workload workload;
  const auto set_up = [&] {
    std::vector<double> samples;
    for (int rep = 0; rep < kSetupRepetitions; ++rep) {
      const double t = now_s();
      experiments::ContentCache::global().clear();
      workload = make_workload(seed);
      for (const std::string& spec : workload.splicers) {
        (void)experiments::ContentCache::global().get(kVideoSeed, spec);
      }
      samples.push_back(now_s() - t);
    }
    return median(samples);
  };
  double setup_s = set_up();
  const ContentTimings content =
      trace == 1 ? time_content(workload.splicers) : ContentTimings{};

  // --- Measurement: every pass once (profiled twin under --trace 1),
  // then repeats while the time budget allows another pass.
  const std::size_t pass_count =
      trace == 1 ? std::min(workload.passes.size(), kTracedPasses)
                 : workload.passes.size();
  std::vector<Pass> untraced, traced;
  std::vector<std::vector<double>> walls(pass_count);  // per pass, per repeat
  double first_round_s = 0;
  std::size_t attempted = 0, failed = 0;
  const auto account = [&](const Pass& pass, std::uint64_t expected) {
    attempted += pass.results.size();
    failed += pass.failed;
    if (pass.fingerprint != expected) {
      ++failed;
      std::fprintf(stderr, "a pass repeated with different outputs\n");
    }
  };
  const double start = now_s();
  for (std::size_t k = 0; k < pass_count; ++k) {
    untraced.push_back(run_pass(workload.passes[k], false));
    walls[k].push_back(untraced.back().wall_s);
    first_round_s += untraced.back().wall_s;
    account(untraced.back(), untraced.back().fingerprint);
    if (trace == 0) setup_s = std::min(setup_s, set_up());
    if (trace == 1) {
      traced.push_back(run_pass(workload.passes[k], true));
      account(traced.back(), untraced.back().fingerprint);
    }
  }
  // Repeats go round in pass order, so each pass gets its median.
  const double mean_pass_s = first_round_s / static_cast<double>(pass_count);
  for (std::size_t k = 0;
       trace == 0 && now_s() - start + mean_pass_s <= seconds; ++k) {
    const std::size_t which = k % pass_count;
    const Pass again = run_pass(workload.passes[which], false);
    walls[which].push_back(again.wall_s);
    account(again, untraced[which].fingerprint);
  }
  double wall_s = 0;  // one round of passes, each at its median time
  for (const std::vector<double>& w : walls) wall_s += median(w);

  std::vector<const Pass*> all;
  for (const Pass& p : untraced) all.push_back(&p);
  std::vector<ShapeCheck> checks;
  if (!workload.cells.empty()) {
    for (std::size_t k = 0; k < pass_count; ++k) {
      std::printf("pass %zu shape checks (3 seeds per cell):", k);
      for (const ShapeCheck& c : shape_checks(workload, {all[k]})) {
        if (!c.passed) std::printf(" %s DIFFERS;", c.name.c_str());
      }
      std::printf("\n");
    }
    checks = shape_checks(workload, all);
    for (const ShapeCheck& c : checks) {
      std::printf("shape %-32s %s\n", c.name.c_str(),
                  c.passed ? "ok" : "DIFFERS");
    }
  }

  const Simulated sim = simulated(all);
  std::printf("workload %s seed %llu: pass walls (s)", workload_name.c_str(),
              static_cast<unsigned long long>(seed));
  for (const std::vector<double>& w : walls) {
    for (std::size_t r = 0; r < w.size(); ++r) {
      std::printf("%s%.3f", r == 0 ? " " : "/", w[r]);
    }
  }
  std::printf("; %.0f startup samples\n", sim.started);
  if (trace == 1) {
    std::map<std::string, double> children;
    for (const Pass& p : traced) {
      for (const auto& [name, total] : p.phases.fire_children) {
        children[name] += total;
      }
    }
    for (const auto& [name, total] : children) {
      std::printf("phase sim.fire/%-24s %9.3f s over all passes\n",
                  name.c_str(), total);
    }
  }
  Fingerprint run_fp;
  for (const Pass& p : untraced) run_fp.add(p.fingerprint);
  std::printf("fingerprint %016llx\n",
              static_cast<unsigned long long>(run_fp.value()));
  const std::vector<Metric> metrics =
      trace == 1 ? per_layer(content, untraced, traced, sim, checks)
                 : end_to_end(setup_s, wall_s, sim);
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}
