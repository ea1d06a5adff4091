// Deterministic random number generation.
//
// Every stochastic decision in a simulation run draws from one Rng seeded
// at run start, so a (seed, configuration) pair fully determines the run.
// The generator is xoshiro256**, seeded through SplitMix64; both are tiny,
// fast and well studied, and — unlike std::mt19937 with std distributions —
// give identical streams on every platform because the distribution code
// below is ours.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace vsplice {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit word.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Normal value; sigma >= 0.
  double normal(double mu, double sigma);

  /// Log-normal value parameterized by the mean and coefficient of
  /// variation of the *resulting* distribution (both > 0). Convenient for
  /// frame-size jitter where we think in "mean size, 20% spread" terms.
  double lognormal_mean_cv(double mean, double cv);

  /// Uniformly chosen index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[index(i)]);
    }
  }

  /// Derive an independent child generator; used to give each peer its own
  /// stream so adding a peer does not perturb the draws of the others.
  Rng fork();

 private:
  std::array<std::uint64_t, 4> s_{};
  // Cached second value of the Box-Muller pair.
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace vsplice
