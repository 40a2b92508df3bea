#include "util/rng.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace bba::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // All-zero state is the one invalid state for xoshiro; splitmix64 cannot
  // produce four zero outputs in a row, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  BBA_ASSERT(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  BBA_ASSERT(lo <= hi, "uniform_int(lo, hi) requires lo <= hi");
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return lo + static_cast<std::int64_t>(v % range);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    if (spare_pending_) {
      spare_pending_ = false;
      return std::sqrt(-2.0 * std::log(spare_u1_)) *
             std::sin(2.0 * M_PI * spare_u2_);
    }
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return radius * std::cos(theta);
}

void Rng::skip_normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    spare_pending_ = false;
    return;
  }
  spare_u1_ = 1.0 - uniform();
  spare_u2_ = uniform();
  spare_pending_ = true;
  has_cached_normal_ = true;
}

double Rng::normal(double mean, double sigma) {
  BBA_ASSERT(sigma >= 0.0, "normal() requires sigma >= 0");
  return mean + sigma * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double mean) {
  BBA_ASSERT(mean > 0.0, "exponential() requires mean > 0");
  return -mean * std::log(1.0 - uniform());
}

bool Rng::bernoulli(double p) {
  BBA_ASSERT(p >= 0.0 && p <= 1.0, "bernoulli() requires p in [0, 1]");
  return uniform() < p;
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    BBA_ASSERT(w >= 0.0, "weighted_index() requires non-negative weights");
    total += w;
  }
  BBA_ASSERT(total > 0.0, "weighted_index() requires a positive weight");
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: x landed exactly on total
}

Rng Rng::fork(std::uint64_t stream) const {
  // Mix the parent seed with the stream id through splitmix64 so that
  // neighbouring streams are uncorrelated.
  std::uint64_t x = seed_ ^ (0xd1b54a32d192ed03ULL * (stream + 1));
  return Rng(splitmix64(x));
}

Rng Rng::substream(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                   std::uint64_t c, std::uint64_t d) {
  // Fold each coordinate into the state through one splitmix64 round,
  // salted with a distinct odd constant per position so that permuted
  // coordinates land in unrelated streams. The +1 keeps coordinate 0
  // distinguishable from an absent coordinate.
  const std::uint64_t coords[4] = {a, b, c, d};
  const std::uint64_t salts[4] = {
      0xd1b54a32d192ed03ULL, 0x8cb92ba72f3d8dd7ULL, 0x9e6c63d0876a9a47ULL,
      0xb5504f32d3b0827dULL};
  std::uint64_t x = seed;
  for (int i = 0; i < 4; ++i) {
    std::uint64_t t = x ^ (salts[i] * (coords[i] + 1));
    x = splitmix64(t);
  }
  return Rng(x);
}

}  // namespace bba::util
