// Thread-pool fan-out for independent simulation runs.
//
// Every scenario run owns its Simulator, Network, and swarm — nothing is
// shared between runs except read-only configs — so a sweep's grid cells
// and a repetition's seeds are embarrassingly parallel. ParallelRunner
// executes `count` indexed tasks on up to `jobs` worker threads; callers
// pre-build one config per index and write each result into its own
// pre-sized slot, so the assembled output is in submission order and
// byte-identical to what the serial loop produces (see DESIGN.md §9).
//
// Threading model: workers claim indices from an atomic counter (no
// per-task queue, no locks on the hot path). The per-run observability
// context (metrics registry, span recorder, profiler) is thread_local,
// so each worker's runs record into their own files without
// synchronization. The first exception thrown by any task is captured
// and rethrown from run() after all workers have drained; remaining
// tasks still execute (their slots stay valid), matching the
// all-or-nothing semantics tests expect.
#pragma once

#include <cstddef>
#include <functional>

namespace vsplice::experiments {

/// Maps the user-facing --jobs value to a worker count: 0 = one per
/// hardware thread (at least 1); negatives are rejected.
[[nodiscard]] int resolve_jobs(int jobs);

class ParallelRunner {
 public:
  /// `jobs` as passed on the command line (0 = auto). jobs <= 1 runs
  /// every task inline on the calling thread, in index order — the
  /// serial reference path.
  explicit ParallelRunner(int jobs);

  [[nodiscard]] int jobs() const { return jobs_; }

  /// Runs task(0) .. task(count-1), each exactly once. Parallel when
  /// jobs > 1 (never more than `count` threads). Blocks until every
  /// task finished; rethrows the first exception any task threw.
  void run(std::size_t count, const std::function<void(std::size_t)>& task);

 private:
  int jobs_;
};

}  // namespace vsplice::experiments
