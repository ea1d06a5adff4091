// Micro + core-performance suite.
//
// Two layers:
//   1. A hand-timed "core" suite exercising the simulation hot path —
//      star allocator vs the generic max-min reference, event-queue
//      schedule/cancel churn, and an end-to-end Figure-2-style sweep run
//      serially and with the parallel runner. Always runs, prints a
//      summary, and writes BENCH_core.json (values + agreement checks)
//      for regression tooling.
//   2. The google-benchmark micro suite of component throughputs.
//
//   ./bench_micro            core suite (full size) + google-benchmark
//   ./bench_micro --quick    core suite only, at CI-friendly sizes
//
// Any other flags are forwarded to google-benchmark
// (--benchmark_filter=..., etc.).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/rng.h"
#include "obs/profiler.h"
#include "obs/span.h"
#include "core/playlist.h"
#include "core/splicer.h"
#include "experiments/parallel.h"
#include "experiments/sweep.h"
#include "net/fair_share.h"
#include "p2p/wire.h"
#include "sim/simulator.h"
#include "video/encoder.h"
#include "video/mp4.h"

namespace {

using namespace vsplice;

// ----------------------------------------------------------- core suite

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// A random star workload: `flows_n` transfers between distinct nodes of
/// a shaped star, some rate-capped. Returns matching (star, generic)
/// specs plus the link capacities.
struct StarWorkload {
  std::vector<net::StarFlowSpec> star;
  std::vector<net::FlowSpec> generic;
  std::vector<Rate> capacity;
};

StarWorkload make_star_workload(std::size_t nodes, std::size_t flows_n,
                                std::uint64_t seed) {
  StarWorkload w;
  Rng rng{seed};
  w.capacity.push_back(Rate::infinity());  // hub trunk
  for (std::size_t nd = 0; nd < nodes; ++nd) {
    w.capacity.push_back(Rate::kilobytes_per_second(rng.uniform(64, 1024)));
    w.capacity.push_back(Rate::kilobytes_per_second(rng.uniform(64, 1024)));
  }
  for (std::size_t f = 0; f < flows_n; ++f) {
    const std::size_t src = rng.index(nodes);
    std::size_t dst = rng.index(nodes);
    if (dst == src) dst = (dst + 1) % nodes;
    net::StarFlowSpec star;
    star.uplink = static_cast<std::uint32_t>(1 + 2 * src);
    star.downlink = static_cast<std::uint32_t>(2 + 2 * dst);
    if (rng.next_double() < 0.3) {
      star.cap = Rate::kilobytes_per_second(rng.uniform(32, 512));
    }
    net::FlowSpec generic;
    generic.path = {net::LinkId{0}, net::LinkId{star.uplink},
                    net::LinkId{star.downlink}};
    generic.cap = star.cap;
    w.star.push_back(star);
    w.generic.push_back(generic);
  }
  return w;
}

void run_allocator_bench(bench::BenchResults& results, bool quick) {
  const std::size_t nodes = 20;
  const std::size_t flows_n = quick ? 64 : 128;
  const int iters = quick ? 2000 : 20000;
  const StarWorkload w = make_star_workload(nodes, flows_n, 42);

  net::StarAllocator allocator;
  std::vector<Rate> star_rates;
  std::vector<Rate> generic_rates;
  const auto time_star = [&] {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      allocator.allocate(w.star, w.capacity, star_rates);
      benchmark::DoNotOptimize(star_rates.data());
    }
    return seconds_since(start);
  };
  const auto time_generic = [&] {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      generic_rates = net::max_min_allocation(w.generic, w.capacity);
      benchmark::DoNotOptimize(generic_rates.data());
    }
    return seconds_since(start);
  };
  // Warm both (scratch buffers, allocator caches), then interleave two
  // timed passes each and keep the minimum — one pass per side is at
  // the mercy of CPU frequency ramps on shared runners.
  allocator.allocate(w.star, w.capacity, star_rates);
  generic_rates = net::max_min_allocation(w.generic, w.capacity);
  double star_s = time_star();
  double generic_s = time_generic();
  star_s = std::min(star_s, time_star());
  generic_s = std::min(generic_s, time_generic());

  bool agree = star_rates.size() == generic_rates.size();
  for (std::size_t f = 0; agree && f < star_rates.size(); ++f) {
    agree = std::abs(star_rates[f].bytes_per_second() -
                     generic_rates[f].bytes_per_second()) <=
            1e-6 * (1.0 + generic_rates[f].bytes_per_second());
  }

  const double star_ns = star_s / iters * 1e9;
  const double generic_ns = generic_s / iters * 1e9;
  std::printf("allocator (%zu flows, %zu links): star %.0f ns/call, "
              "generic %.0f ns/call, %.1fx\n",
              flows_n, w.capacity.size(), star_ns, generic_ns,
              generic_ns / star_ns);
  results.add_value("alloc_flows", static_cast<double>(flows_n));
  results.add_value("alloc_star_ns", star_ns);
  results.add_value("alloc_generic_ns", generic_ns);
  results.add_value("alloc_speedup", generic_ns / star_ns);
  results.check("allocators_agree", agree,
                "star allocator matches the generic reference");
}

double run_event_loop_bench(bench::BenchResults& results, bool quick) {
  // Schedule/cancel churn shaped like the incremental reallocator's
  // traffic: every flow-rate change cancels one completion event and
  // schedules another.
  const std::size_t n = quick ? 100'000 : 1'000'000;
  const auto start = std::chrono::steady_clock::now();
  sim::Simulator sim;
  std::vector<sim::EventId> pending;
  pending.reserve(64);
  std::size_t fired = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const sim::EventId id = sim.after(
        Duration::micros(static_cast<std::int64_t>(1 + i % 977)),
        [&fired] { ++fired; });
    if (i % 2 == 0) {
      pending.push_back(id);
    } else if (!pending.empty()) {
      sim.cancel(pending.back());
      pending.pop_back();
    }
    if (i % 64 == 63) sim.run_until(sim.now() + Duration::micros(512));
  }
  sim.run();
  const double elapsed = seconds_since(start);
  const double ops_per_sec = static_cast<double>(n) * 2.0 / elapsed;
  std::printf("event loop: %zu schedule+cancel/fire pairs in %.3f s "
              "(%.1fM ops/s), %zu fired\n",
              n, elapsed, ops_per_sec / 1e6, fired);
  results.add_value("event_loop_ops", static_cast<double>(n) * 2.0);
  results.add_value("event_loop_seconds", elapsed);
  results.add_value("event_loop_mops_per_sec", ops_per_sec / 1e6);
  return elapsed / (static_cast<double>(n) * 2.0) * 1e9;  // ns per op
}

void run_profiler_overhead_bench(bench::BenchResults& results,
                                 double event_loop_ns_per_op, bool quick) {
  // The event-loop bench above already pays the *disabled* profiler cost:
  // Simulator::at/fire compile in VSPLICE_PROFILE_SCOPE, and with no
  // profiler installed each scope is one thread-local pointer read.
  // Measure that read directly and bound it against the event loop's
  // ns/op (~one scope per schedule and one per fire, so one scope per
  // counted op) — the "near-zero cost when disabled" contract.
  const std::size_t iters = quick ? 2'000'000 : 20'000'000;
  const auto time_scopes = [&] {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      VSPLICE_PROFILE_SCOPE("bench.noop");
      benchmark::DoNotOptimize(i);
    }
    return seconds_since(start);
  };
  // The loop counter + DoNotOptimize cost real time too; subtract an
  // identical loop without the scope so only the scope's marginal cost
  // is charged against the budget.
  const auto time_empty = [&] {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      benchmark::DoNotOptimize(i);
    }
    return seconds_since(start);
  };
  // Two passes each, keep the minimum: frequency ramps on shared runners.
  double scope_s = time_scopes();
  double empty_s = time_empty();
  scope_s = std::min(scope_s, time_scopes());
  empty_s = std::min(empty_s, time_empty());
  const double scope_ns =
      std::max(0.0, scope_s - empty_s) / static_cast<double>(iters) * 1e9;
  const double overhead =
      event_loop_ns_per_op > 0 ? scope_ns / event_loop_ns_per_op : 0.0;

  // And the enabled cost, for the record (not checked: it is allowed to
  // cost real time, it just must not change any figure).
  obs::Profiler profiler;
  double enabled_ns = 0;
  {
    obs::ScopedProfiler installed{&profiler};
    const std::size_t enabled_iters = iters / 10;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < enabled_iters; ++i) {
      VSPLICE_PROFILE_SCOPE("bench.noop");
      benchmark::DoNotOptimize(i);
    }
    enabled_ns = seconds_since(start) /
                 static_cast<double>(enabled_iters) * 1e9;
  }

  std::printf("profiler scope: disabled %.2f ns, enabled %.1f ns "
              "(disabled = %.2f%% of a %.0f ns event-loop op)\n",
              scope_ns, enabled_ns, overhead * 100.0,
              event_loop_ns_per_op);
  results.add_value("profiler_scope_disabled_ns", scope_ns);
  results.add_value("profiler_scope_enabled_ns", enabled_ns);
  results.add_value("profiler_disabled_overhead_ratio", overhead);
  char text[120];
  std::snprintf(text, sizeof text,
                "disabled profiler scope costs < 2%% of an event-loop op "
                "(%.2f%%)",
                overhead * 100.0);
  results.check("profiler_overhead_ok", overhead < 0.02, text);
}

void run_span_overhead_bench(bench::BenchResults& results,
                             double event_loop_ns_per_op, bool quick) {
  // Same contract as the profiler scope: with no recorder installed,
  // open_span()/close_span() are one thread-local pointer read and a
  // branch. Measure the marginal cost of a disabled open+close pair and
  // bound it against the event loop's ns/op.
  const std::size_t iters = quick ? 2'000'000 : 20'000'000;
  const auto time_spans = [&] {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      const std::uint64_t id = obs::open_span(
          obs::SpanKind::kPieceTransfer, TimePoint::origin(), 0, 1, 0);
      obs::close_span(id, TimePoint::origin());
      benchmark::DoNotOptimize(i);
    }
    return seconds_since(start);
  };
  const auto time_empty = [&] {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      benchmark::DoNotOptimize(i);
    }
    return seconds_since(start);
  };
  // Two passes each, keep the minimum: frequency ramps on shared runners.
  double span_s = time_spans();
  double empty_s = time_empty();
  span_s = std::min(span_s, time_spans());
  empty_s = std::min(empty_s, time_empty());
  const double span_ns =
      std::max(0.0, span_s - empty_s) / static_cast<double>(iters) * 1e9;
  const double overhead =
      event_loop_ns_per_op > 0 ? span_ns / event_loop_ns_per_op : 0.0;

  // The enabled cost, for the record (allowed to cost real time; the
  // differential test guarantees it cannot change any figure).
  obs::SpanRecorder recorder;
  double enabled_ns = 0;
  {
    obs::ScopedSpanRecorder installed{&recorder};
    const std::size_t enabled_iters = iters / 10;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < enabled_iters; ++i) {
      const std::uint64_t id = obs::open_span(
          obs::SpanKind::kPieceTransfer, TimePoint::origin(), 0, 1, 0);
      obs::close_span(id, TimePoint::origin());
      benchmark::DoNotOptimize(i);
    }
    enabled_ns = seconds_since(start) /
                 static_cast<double>(enabled_iters) * 1e9;
  }

  std::printf("span open+close: disabled %.2f ns, enabled %.1f ns "
              "(disabled = %.2f%% of a %.0f ns event-loop op)\n",
              span_ns, enabled_ns, overhead * 100.0, event_loop_ns_per_op);
  results.add_value("span_disabled_ns", span_ns);
  results.add_value("span_enabled_ns", enabled_ns);
  results.add_value("span_disabled_overhead_ratio", overhead);
  char text[120];
  std::snprintf(text, sizeof text,
                "disabled span open+close costs < 2%% of an event-loop op "
                "(%.2f%%)",
                overhead * 100.0);
  results.check("span_overhead_ok", overhead < 0.02, text);
}

/// One stalls-vs-bandwidth value per grid cell, for exact serial/parallel
/// comparison.
std::vector<double> sweep_fingerprint(const experiments::SweepResult& s) {
  std::vector<double> out;
  for (std::size_t b = 0; b < s.bandwidths.size(); ++b) {
    for (std::size_t c = 0; c < s.series_labels.size(); ++c) {
      const experiments::RepeatedResult& r = s.at(b, c);
      out.push_back(r.stalls);
      out.push_back(r.stall_seconds);
      out.push_back(r.startup_seconds);
    }
  }
  return out;
}

void run_e2e_bench(bench::BenchResults& results, bool quick) {
  using namespace vsplice::experiments;
  // A Figure-2-shaped sweep: full mode runs the paper grid, quick mode a
  // reduced grid sized for CI smoke.
  ScenarioConfig base;
  std::vector<Rate> bandwidths{Rate::kilobytes_per_second(128),
                               Rate::kilobytes_per_second(256)};
  std::vector<SweepSeries> series{
      {"GOP based", [](ScenarioConfig& c) { c.splicer = "gop"; }},
      {"4 sec", [](ScenarioConfig& c) { c.splicer = "4s"; }},
  };
  int repetitions = 2;
  if (quick) {
    base.nodes = 10;
  } else {
    bandwidths.push_back(Rate::kilobytes_per_second(512));
    bandwidths.push_back(Rate::kilobytes_per_second(768));
    series.push_back(
        {"2 sec", [](ScenarioConfig& c) { c.splicer = "2s"; }});
    series.push_back(
        {"8 sec", [](ScenarioConfig& c) { c.splicer = "8s"; }});
    repetitions = 3;
  }
  const int jobs = resolve_jobs(0);

  auto start = std::chrono::steady_clock::now();
  const SweepResult serial =
      run_sweep(base, bandwidths, series, repetitions, 1);
  const double serial_s = seconds_since(start);

  start = std::chrono::steady_clock::now();
  const SweepResult parallel =
      run_sweep(base, bandwidths, series, repetitions, jobs);
  const double parallel_s = seconds_since(start);

  const bool match = sweep_fingerprint(serial) == sweep_fingerprint(parallel);
  std::printf("e2e sweep (%zux%zu cells, %d reps): serial %.2f s, "
              "parallel(%d jobs) %.2f s, %.2fx\n",
              bandwidths.size(), series.size(), repetitions, serial_s, jobs,
              parallel_s, serial_s / parallel_s);
  results.add_value("e2e_cells",
                    static_cast<double>(bandwidths.size() * series.size()));
  results.add_value("e2e_repetitions", repetitions);
  results.add_value("e2e_jobs", jobs);
  results.add_value("e2e_serial_seconds", serial_s);
  results.add_value("e2e_parallel_seconds", parallel_s);
  results.add_value("e2e_speedup", serial_s / parallel_s);
  results.check("parallel_matches_serial", match,
                "parallel sweep results identical to serial");
}

int run_core_suite(bool quick) {
  std::printf("core performance suite (%s)\n", quick ? "quick" : "full");
  bench::BenchResults results{"core"};
  run_allocator_bench(results, quick);
  const double event_loop_ns = run_event_loop_bench(results, quick);
  run_profiler_overhead_bench(results, event_loop_ns, quick);
  run_span_overhead_bench(results, event_loop_ns, quick);
  run_e2e_bench(results, quick);
  results.write();
  return results.all_checks_passed() ? 0 : 1;
}

// ------------------------------------------------ google-benchmark suite

void BM_SimulatorScheduleFire(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < n; ++i) {
      sim.after(Duration::micros(static_cast<std::int64_t>(i % 977)),
                [] {});
    }
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulatorScheduleFire)->Arg(1000)->Arg(10000);

void BM_SimulatorCancelChurn(benchmark::State& state) {
  // Generation-tagged cancellation: every other event is cancelled
  // before it can fire, the pattern the incremental reallocator
  // produces.
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim::EventId previous = sim::kInvalidEventId;
    for (std::size_t i = 0; i < n; ++i) {
      const sim::EventId id = sim.after(
          Duration::micros(static_cast<std::int64_t>(1 + i % 977)), [] {});
      if (i % 2 == 1) sim.cancel(previous);
      previous = id;
    }
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulatorCancelChurn)->Arg(1000)->Arg(10000);

void BM_RngNextDouble(benchmark::State& state) {
  Rng rng{1};
  double acc = 0;
  for (auto _ : state) {
    acc += rng.next_double();
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngNextDouble);

void BM_MaxMinAllocation(benchmark::State& state) {
  const auto flows_n = static_cast<std::size_t>(state.range(0));
  Rng rng{3};
  std::vector<net::FlowSpec> flows;
  std::vector<Rate> capacity;
  const std::size_t links = 40;
  for (std::size_t l = 0; l < links; ++l) {
    capacity.push_back(Rate::kilobytes_per_second(rng.uniform(64, 1024)));
  }
  for (std::size_t f = 0; f < flows_n; ++f) {
    net::FlowSpec spec;
    spec.path = {net::LinkId{static_cast<std::uint32_t>(rng.index(links))},
                 net::LinkId{static_cast<std::uint32_t>(rng.index(links))}};
    flows.push_back(spec);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::max_min_allocation(flows, capacity));
  }
}
BENCHMARK(BM_MaxMinAllocation)->Arg(8)->Arg(32)->Arg(128);

void BM_StarAllocator(benchmark::State& state) {
  const auto flows_n = static_cast<std::size_t>(state.range(0));
  const StarWorkload w = make_star_workload(20, flows_n, 3);
  net::StarAllocator allocator;
  std::vector<Rate> rates;
  for (auto _ : state) {
    allocator.allocate(w.star, w.capacity, rates);
    benchmark::DoNotOptimize(rates.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows_n));
}
BENCHMARK(BM_StarAllocator)->Arg(8)->Arg(32)->Arg(128);

void BM_StarAllocatorGenericReference(benchmark::State& state) {
  // The same star workloads through the generic allocator — the
  // apples-to-apples baseline for BM_StarAllocator.
  const auto flows_n = static_cast<std::size_t>(state.range(0));
  const StarWorkload w = make_star_workload(20, flows_n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::max_min_allocation(w.generic, w.capacity));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows_n));
}
BENCHMARK(BM_StarAllocatorGenericReference)->Arg(8)->Arg(32)->Arg(128);

void BM_EncodePaperVideo(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(video::make_paper_video(1));
  }
}
BENCHMARK(BM_EncodePaperVideo);

void BM_SpliceDuration(benchmark::State& state) {
  const video::VideoStream stream = video::make_paper_video(1);
  const core::DurationSplicer splicer{Duration::seconds(4)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(splicer.splice(stream));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.frame_count()));
}
BENCHMARK(BM_SpliceDuration);

void BM_SpliceGop(benchmark::State& state) {
  const video::VideoStream stream = video::make_paper_video(1);
  const core::GopSplicer splicer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(splicer.splice(stream));
  }
}
BENCHMARK(BM_SpliceGop);

void BM_Mp4WriteParse(benchmark::State& state) {
  const video::VideoStream stream = video::make_paper_video(1);
  video::Mp4WriteOptions options;
  options.include_payload = false;
  for (auto _ : state) {
    const auto bytes = video::write_mp4(stream, options);
    benchmark::DoNotOptimize(video::read_mp4(bytes));
  }
}
BENCHMARK(BM_Mp4WriteParse);

void BM_PlaylistRoundTrip(benchmark::State& state) {
  const video::VideoStream stream = video::make_paper_video(1);
  const core::SegmentIndex index =
      core::DurationSplicer{Duration::seconds(2)}.splice(stream);
  const core::Playlist playlist =
      core::playlist_from_index(index, "video.mp4");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::parse_playlist(core::write_playlist(playlist)));
  }
}
BENCHMARK(BM_PlaylistRoundTrip);

void BM_WireCodec(benchmark::State& state) {
  p2p::Bitfield have{64};
  for (std::size_t i = 0; i < 64; i += 2) have.set(i);
  const std::vector<p2p::Message> messages{
      p2p::HandshakeMsg{1, 7, 64}, p2p::BitfieldMsg{have},
      p2p::HaveMsg{13}, p2p::RequestMsg{3, 1'000'000, 500'000},
      p2p::PieceMsg{3, 500'000}};
  for (auto _ : state) {
    for (const p2p::Message& msg : messages) {
      benchmark::DoNotOptimize(p2p::decode(p2p::encode(msg)));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(messages.size()));
}
BENCHMARK(BM_WireCodec);

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::vector<char*> forwarded;
  forwarded.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string{argv[i]} == "--quick") {
      quick = true;
    } else {
      forwarded.push_back(argv[i]);
    }
  }

  const int core_rc = run_core_suite(quick);
  if (quick) return core_rc;

  std::printf("\n");
  int forwarded_argc = static_cast<int>(forwarded.size());
  benchmark::Initialize(&forwarded_argc, forwarded.data());
  if (benchmark::ReportUnrecognizedArguments(forwarded_argc,
                                             forwarded.data())) {
    return 2;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return core_rc;
}
