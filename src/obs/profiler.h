// Hierarchical phase profiler.
//
// VSPLICE_PROFILE_SCOPE("net.reallocate") opens an RAII scope that, when
// a Profiler is installed for the current thread, accumulates into a
// call tree keyed by (parent, name): each node tracks {count, total_ns,
// max_ns}; self_ns is derived at snapshot time as total minus the
// children's totals. Nesting is captured naturally — a scope opened
// while another is active becomes its child — so one snapshot shows
// e.g. sim.fire > swarm.deliver > p2p.schedule with per-phase self time.
//
// Cost model:
//   - disabled (no profiler installed): one thread_local pointer read
//     and a branch per scope — no clock reads, no allocation.
//   - enabled: two steady_clock reads plus a child-pointer lookup; the
//     lookup is pointer-equality first (scope names are string literals,
//     so repeat visits hit the first compare), falling back to strcmp.
//
// Determinism: the profiler only *reads* the wall clock and writes into
// its own vectors. It never touches RNG state, simulated time, or any
// container the simulation iterates — enabling it cannot perturb figure
// output (same contract as SchedulerStats::engine_ns). Snapshot entries
// are ordered by a DFS with children sorted by name, so the *structure*
// of a report is deterministic even though the nanosecond values are
// wall-clock measurements.
//
// Threading: like the span recorder, installation is per-thread
// (detail::g_profiler). Each ParallelRunner worker installs its own
// Profiler; snapshots can be merged deterministically with merge().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vsplice::obs {

class Profiler;

namespace detail {
/// Thread-local active profiler; nullptr = profiling disabled.
inline thread_local Profiler* g_profiler = nullptr;
}  // namespace detail

/// One node of a flattened profile tree (DFS order, children sorted by
/// name at each level).
struct ProfileEntry {
  /// Dotted path from the root, e.g. "sim.fire/swarm.deliver".
  std::string path;
  /// The scope's own name (last path component).
  std::string name;
  /// Nesting depth; 0 for top-level scopes.
  std::size_t depth = 0;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  /// total_ns minus the sum of the children's total_ns (clamped at 0).
  std::uint64_t self_ns = 0;
  /// Longest single visit.
  std::uint64_t max_ns = 0;
};

/// A merged, deterministic view of one or more profiler trees.
struct ProfileSnapshot {
  std::vector<ProfileEntry> entries;

  [[nodiscard]] bool empty() const { return entries.empty(); }
  /// Finds an entry by exact path; nullptr when absent.
  [[nodiscard]] const ProfileEntry* find(const std::string& path) const;
  /// Indented call tree with count/total/self/max columns.
  [[nodiscard]] std::string to_text() const;
};

/// Sums two snapshots by path (counts and totals add, max takes the
/// max). Paths present in either side appear in the result; entry order
/// stays DFS-by-name.
[[nodiscard]] ProfileSnapshot merge(const ProfileSnapshot& a,
                                    const ProfileSnapshot& b);

/// Per-thread call-tree accumulator. Install with ScopedProfiler (or
/// Observability with ObsOptions::profile); scopes created while
/// installed feed into it.
class Profiler {
 public:
  Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Opens a scope named `name` (must be a string with static storage
  /// duration — the macro passes a literal). Returns the token to hand
  /// back to leave().
  std::uint32_t enter(const char* name);
  /// Closes the scope opened by the matching enter(); `elapsed_ns` is
  /// the measured wall time of the visit.
  void leave(std::uint32_t saved_current, std::uint64_t elapsed_ns);

  /// Deterministic flattened tree (DFS, children name-sorted).
  [[nodiscard]] ProfileSnapshot snapshot() const;

  /// Drops all accumulated data (tree resets to just the root).
  void reset();

 private:
  struct Node {
    const char* name = nullptr;
    std::uint32_t parent = 0;
    std::vector<std::uint32_t> children;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
  };

  std::vector<Node> nodes_;  // nodes_[0] is the synthetic root
  std::uint32_t current_ = 0;
};

/// Installs `profiler` as the current thread's profiler for the object's
/// lifetime; restores the previous one (usually nullptr) on destruction.
class ScopedProfiler {
 public:
  explicit ScopedProfiler(Profiler* profiler)
      : previous_{detail::g_profiler} {
    detail::g_profiler = profiler;
  }
  ScopedProfiler(const ScopedProfiler&) = delete;
  ScopedProfiler& operator=(const ScopedProfiler&) = delete;
  ~ScopedProfiler() { detail::g_profiler = previous_; }

 private:
  Profiler* previous_;
};

/// Monotonic wall clock in nanoseconds (steady_clock).
[[nodiscard]] std::uint64_t profile_now_ns();

/// RAII scope used by VSPLICE_PROFILE_SCOPE. When no profiler is
/// installed the constructor is a pointer read and a branch.
class ProfileScope {
 public:
  explicit ProfileScope(const char* name)
      : profiler_{detail::g_profiler} {
    if (profiler_ != nullptr) {
      saved_ = profiler_->enter(name);
      start_ns_ = profile_now_ns();
    }
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;
  ~ProfileScope() {
    if (profiler_ != nullptr) {
      profiler_->leave(saved_, profile_now_ns() - start_ns_);
    }
  }

 private:
  Profiler* profiler_;
  std::uint32_t saved_ = 0;
  std::uint64_t start_ns_ = 0;
};

}  // namespace vsplice::obs

#define VSPLICE_PROFILE_CONCAT_(a, b) a##b
#define VSPLICE_PROFILE_CONCAT(a, b) VSPLICE_PROFILE_CONCAT_(a, b)
/// Profiles the enclosing block as a phase named `name` (a string
/// literal; dots conventionally namespace by subsystem).
#define VSPLICE_PROFILE_SCOPE(name)                       \
  ::vsplice::obs::ProfileScope VSPLICE_PROFILE_CONCAT(    \
      vsplice_profile_scope_, __COUNTER__) {              \
    name                                                  \
  }
