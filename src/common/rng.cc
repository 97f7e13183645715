#include "common/rng.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace crowdjoin {

namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
  // A theoretically-possible all-zero state would make the stream constant.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::UniformUint64(uint64_t bound) {
  CJ_CHECK(bound > 0);
  // Lemire's nearly-divisionless method.
  uint64_t x = NextUint64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = (0 - bound) % bound;
    while (l < t) {
      x = NextUint64();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  CJ_CHECK(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextUint64());  // full range
  return lo + static_cast<int64_t>(UniformUint64(span));
}

double Rng::UniformDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

double Rng::Normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = UniformDouble();
  } while (u1 <= 0.0);
  const double u2 = UniformDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double two_pi = 6.283185307179586476925286766559;
  spare_normal_ = mag * std::sin(two_pi * u2);
  has_spare_normal_ = true;
  return mag * std::cos(two_pi * u2);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

void Rng::SkipNormals(uint64_t n) {
  if (n > 0 && has_spare_normal_) {
    has_spare_normal_ = false;
    --n;
  }
  // The uniform draws of one Box–Muller pair, as `Normal()` makes them.
  for (; n > 2; n -= 2) {
    while (UniformDouble() <= 0.0) {
    }
    NextUint64();
  }
  // The last pair runs for real, so the spare (kept even when consumed)
  // matches too.
  for (; n > 0; --n) Normal();
}

double Rng::Exponential(double mean) {
  CJ_CHECK(mean > 0.0);
  double u = 0.0;
  do {
    u = UniformDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

uint64_t Rng::Zipf(uint64_t n, double s) {
  ZipfSampler sampler(n, s);
  return sampler.Sample(*this);
}

size_t Rng::Index(size_t size) {
  return static_cast<size_t>(UniformUint64(static_cast<uint64_t>(size)));
}

Rng Rng::Fork() { return Rng(NextUint64()); }

Rng::State Rng::SaveState() const {
  State state;
  for (int i = 0; i < 4; ++i) state.s[i] = s_[i];
  state.spare_normal = spare_normal_;
  state.has_spare_normal = has_spare_normal_;
  return state;
}

void Rng::RestoreState(const State& state) {
  for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
  spare_normal_ = state.spare_normal;
  has_spare_normal_ = state.has_spare_normal;
}

ZipfSampler::ZipfSampler(uint64_t n, double s) {
  CJ_CHECK(n >= 1);
  cdf_.resize(n);
  double acc = 0.0;
  for (uint64_t k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_[k - 1] = acc;
  }
  for (auto& c : cdf_) c /= acc;
  cdf_.back() = 1.0;  // guard against floating-point shortfall
}

uint64_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.UniformDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<uint64_t>(it - cdf_.begin()) + 1;
}

}  // namespace crowdjoin
