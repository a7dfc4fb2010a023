#pragma once

#include <cstdint>
#include <cmath>
#include <vector>

namespace ppsim::sim {

/// Deterministic pseudo-random generator (xoshiro256** seeded via splitmix64).
///
/// Every stochastic component of the simulator draws from an Rng forked from
/// the run's master seed, so a run is exactly reproducible from its seed and
/// independent components do not perturb each other's streams.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Derives an independent child stream; used to give each peer/model its
  /// own generator so event-ordering changes don't cascade.
  Rng fork(std::uint64_t stream_id);

  std::uint64_t next_u64();

  /// Uniform in [0, n). n must be > 0.
  std::uint64_t next_below(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial.
  bool chance(double p);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Standard normal via Box-Muller (no state carried between calls).
  double normal(double mean, double stddev);

  /// Log-normal such that the median is `median` and sigma is the log-space
  /// standard deviation. Handy for heavy-ish latency jitter.
  double lognormal_median(double median, double sigma);

  /// Pareto (power-law) with scale xm > 0 and shape alpha > 0.
  double pareto(double xm, double alpha);

  /// Weibull with scale lambda and shape k (stretched-exponential sessions).
  double weibull(double lambda, double k);

  /// Picks an index in [0, weights.size()) proportionally to weights.
  /// Zero/negative weights are treated as zero; if all are zero, picks
  /// uniformly.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples up to k distinct elements from `pool` (order randomized).
  /// Takes the vector by value: callers done with theirs move it in and
  /// the sample is drawn in place, without a copy.
  template <typename T>
  std::vector<T> sample(std::vector<T> pool, std::size_t k) {
    if (k >= pool.size()) {
      shuffle(pool);
      return pool;
    }
    // Partial Fisher-Yates: first k slots end up a uniform sample.
    for (std::size_t i = 0; i < k; ++i) {
      std::size_t j = i + static_cast<std::size_t>(next_below(pool.size() - i));
      using std::swap;
      swap(pool[i], pool[j]);
    }
    pool.resize(k);
    return pool;
  }

 private:
  std::uint64_t s_[4];
};

/// Stateless 64-bit mix; used for stable per-pair jitter (same inputs always
/// hash to the same value regardless of draw order).
std::uint64_t mix64(std::uint64_t x);

/// Combines two keys into one hash (order-sensitive).
std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b);

}  // namespace ppsim::sim
