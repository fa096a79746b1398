#ifndef HETESIM_COMMON_RANDOM_H_
#define HETESIM_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hetesim {

/// \brief Deterministic pseudo-random source used throughout the library.
///
/// Wraps the xoshiro256** generator (public-domain algorithm by Blackman &
/// Vigna) seeded via SplitMix64, so every dataset generator, clustering run
/// and benchmark is exactly reproducible from a single 64-bit seed. The
/// standard `<random>` distributions are deliberately avoided: their output
/// differs between standard library implementations, which would make test
/// expectations non-portable.
class Rng {
 public:
  /// Seeds the generator; identical seeds produce identical streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in `[0, bound)`; `bound` must be positive. Uses
  /// rejection sampling, so the distribution is exactly uniform.
  uint64_t Uniform(uint64_t bound);

  /// Uniform integer in `[lo, hi]` inclusive; requires `lo <= hi`.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in `[0, 1)` with 53 bits of entropy.
  double UniformDouble();

  /// Bernoulli draw with success probability `p` (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Standard normal via the Marsaglia polar method.
  double Normal();

  /// Zipf-distributed integer in `[1, n]` with exponent `s > 0` drawn by
  /// inversion over the precomputable CDF. Small `n` only; for repeated
  /// sampling prefer `ZipfSampler`.
  uint64_t Zipf(uint64_t n, double s);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(Uniform(i));
      std::swap(values[i - 1], values[j]);
    }
  }

 private:
  uint64_t state_[4];
};

/// \brief Precomputed-CDF Zipf sampler for repeated draws over a fixed
/// support `[1, n]` with exponent `s`. O(n) setup, O(log n) per sample.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s);
  /// Draws one Zipf value in `[1, n]` using `rng`.
  uint64_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace hetesim

#endif  // HETESIM_COMMON_RANDOM_H_
