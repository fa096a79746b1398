#include "common/random.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace hetesim {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(sm);
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::Uniform(uint64_t bound) {
  HETESIM_CHECK_GT(bound, 0u);
  // Rejection sampling over the largest multiple of `bound` that fits.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  HETESIM_CHECK_LE(lo, hi);
  return lo + static_cast<int64_t>(
                  Uniform(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) { return UniformDouble() < p; }

double Rng::Normal() {
  // Marsaglia polar method; the spare variate is discarded for simplicity.
  for (;;) {
    double u = 2.0 * UniformDouble() - 1.0;
    double v = 2.0 * UniformDouble() - 1.0;
    double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

uint64_t Rng::Zipf(uint64_t n, double s) {
  ZipfSampler sampler(n, s);
  return sampler.Sample(*this);
}

ZipfSampler::ZipfSampler(uint64_t n, double s) {
  HETESIM_CHECK_GT(n, 0u);
  HETESIM_CHECK_GT(s, 0.0);
  cdf_.resize(n);
  double acc = 0.0;
  for (uint64_t k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_[k - 1] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

uint64_t ZipfSampler::Sample(Rng& rng) const {
  double u = rng.UniformDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<uint64_t>(it - cdf_.begin()) + 1;
}

}  // namespace hetesim
