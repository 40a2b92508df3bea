// Deterministic random number generation.
//
// Experiments must be bit-reproducible across platforms and compilers, so we
// implement the generator (xoshiro256**) and every distribution ourselves
// instead of relying on <random>'s unspecified distribution algorithms.
// All randomness in the library flows from an explicitly seeded Rng; there
// is no global generator.
#pragma once

#include <cstdint>
#include <vector>

namespace bba::util {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
/// implementation), seeded via splitmix64. Fast, high-quality, and
/// deterministic across platforms.
class Rng {
 public:
  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit output.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal variate (Box-Muller; consumes two uniforms per pair,
  /// caches the spare for determinism).
  double normal();

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  /// Advances the generator exactly as normal() would, without computing
  /// the variate. A fresh pair's spare is computed only if a later normal()
  /// reads it, so every later draw equals the one after normal(). A lazy
  /// trace's pre-walk (net::TraceStream) steps over its levels this way.
  void skip_normal();

  /// Log-normal: exp(N(mu, sigma)) where mu/sigma parameterize the
  /// underlying normal.
  double lognormal(double mu, double sigma);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Bernoulli trial with probability p in [0, 1].
  bool bernoulli(double p);

  /// Index drawn from the (unnormalized, non-negative) weight vector.
  /// Requires at least one strictly positive weight.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Derives an independent child generator; stream `i` is deterministic in
  /// (parent seed, i). Used to give each simulated session its own stream.
  Rng fork(std::uint64_t stream) const;

  /// Counter-based substream splitting: a generator that is a pure function
  /// of (seed, a, b, c, d). Unlike fork(), no generator object or draw
  /// sequencing is involved at all, so any thread can derive any substream
  /// in any order and always get the same stream -- the primitive that keeps
  /// parallel experiments bit-identical to sequential ones. Coordinates are
  /// mixed positionally: substream(s, 1, 2) != substream(s, 2, 1).
  static Rng substream(std::uint64_t seed, std::uint64_t a,
                       std::uint64_t b = 0, std::uint64_t c = 0,
                       std::uint64_t d = 0);

 private:
  std::uint64_t s_[4];
  std::uint64_t seed_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
  // A spare skip_normal() left uncomputed: the pair's two uniforms.
  double spare_u1_ = 0.0, spare_u2_ = 0.0;
  bool spare_pending_ = false;
};

}  // namespace bba::util
