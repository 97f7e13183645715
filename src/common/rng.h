#ifndef CROWDJOIN_COMMON_RNG_H_
#define CROWDJOIN_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace crowdjoin {

/// \brief One SplitMix64 step: advances `state` and returns the next
/// 64-bit output.
///
/// The stateless building block behind both `Rng` seeding and hash-derived
/// (counter-based) randomness such as `HashNoisyOracle`, kept here so the
/// magic constants exist exactly once.
inline uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// \brief Deterministic pseudo-random number generator (xoshiro256**).
///
/// Every source of randomness in the library flows through an explicitly
/// seeded `Rng` so that experiments, tests, and benchmarks are reproducible
/// bit-for-bit across runs and machines. Never uses `std::random_device`.
///
/// The state is seeded from a single 64-bit seed via SplitMix64, following
/// the reference initialization recommended by the xoshiro authors.
class Rng {
 public:
  /// Creates a generator seeded with `seed` (default: a fixed constant so
  /// default-constructed generators are still deterministic).
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit output.
  uint64_t NextUint64();

  /// Uniform integer in `[0, bound)`. `bound` must be > 0.
  /// Uses rejection sampling (Lemire) to avoid modulo bias.
  uint64_t UniformUint64(uint64_t bound);

  /// Uniform integer in `[lo, hi]` inclusive. Requires `lo <= hi`.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in `[0, 1)` with 53 bits of precision.
  double UniformDouble();

  /// Uniform double in `[lo, hi)`.
  double UniformDouble(double lo, double hi);

  /// Bernoulli trial: returns true with probability `p` (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Standard normal variate (Box–Muller; caches the spare value).
  double Normal();

  /// Normal variate with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Advances the generator past `n` `Normal()` draws: afterwards its
  /// state (spare included) is exactly what `n` `Normal()` calls leave.
  /// Every Box–Muller pair but the last makes only its uniform draws, so
  /// the skip costs no log, sin or cos per pair; it is how a range of a
  /// parallel pass finds where the noise stream stands at its first pair.
  void SkipNormals(uint64_t n);

  /// Exponential variate with the given mean (mean = 1/lambda, must be > 0).
  double Exponential(double mean);

  /// Log-normal variate: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma);

  /// Zipf-distributed integer in `[1, n]` with exponent `s` (s >= 0).
  /// Uses inverse-CDF over precomputed weights for small n; callers that
  /// need many draws with the same (n, s) should use `ZipfSampler` instead.
  uint64_t Zipf(uint64_t n, double s);

  /// Fisher–Yates shuffle of `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    if (items.size() < 2) return;
    for (size_t i = items.size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformUint64(i + 1));
      using std::swap;
      swap(items[i], items[j]);
    }
  }

  /// Picks one element index uniformly from `[0, size)`. Requires size > 0.
  size_t Index(size_t size);

  /// Returns a new generator whose seed is derived from this one's stream.
  /// Useful for giving each simulated worker / dataset its own substream.
  Rng Fork();

  /// \brief The complete generator state: xoshiro words plus the Box–Muller
  /// spare. Restoring it resumes the stream exactly where it left off,
  /// which is what campaign checkpoints persist.
  struct State {
    uint64_t s[4];
    double spare_normal;
    bool has_spare_normal;
  };

  /// Captures the current state (for checkpointing).
  State SaveState() const;

  /// Overwrites the generator with a previously saved state.
  void RestoreState(const State& state);

 private:
  uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

/// \brief Precomputed sampler for Zipf(n, s) draws.
///
/// Builds the cumulative weight table once; each draw is a binary search.
class ZipfSampler {
 public:
  /// Creates a sampler over `[1, n]` with exponent `s`. Requires n >= 1.
  ZipfSampler(uint64_t n, double s);

  /// Draws one Zipf variate in `[1, n]`.
  uint64_t Sample(Rng& rng) const;

  /// Number of support points.
  uint64_t n() const { return static_cast<uint64_t>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

}  // namespace crowdjoin

#endif  // CROWDJOIN_COMMON_RNG_H_
