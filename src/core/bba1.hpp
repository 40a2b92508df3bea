// BBA-1: the VBR-aware buffer-based algorithm (Sec. 5).
//
// Two changes over BBA-0: (1) the reservoir is recomputed every chunk from
// the upcoming R_min chunk sizes (Fig. 12) instead of a fixed 90 s; (2) the
// rate map becomes a chunk map (Fig. 13), and Algorithm 1 generalizes to
// compare the map's allowable size against the size of the *next upcoming
// chunk* at the neighbouring rates. Optionally accrues outage protection
// (Sec. 7.1) by right-shifting the map.
#pragma once

#include <algorithm>
#include <cstddef>

#include "abr/abr.hpp"
#include "core/reservoir.hpp"
#include "util/assert.hpp"

namespace bba::media {
struct DecisionTable;
}  // namespace bba::media

namespace bba::core {

/// Configuration shared by BBA-1 and its derivatives.
struct Bba1Config {
  ReservoirConfig reservoir;

  /// Buffer fraction where the chunk map first allows Chunk_max (the map
  /// reaches the top "when the buffer is 90% full").
  double upper_knee_fraction = 0.9;

  /// Rate index used as "previous" for the very first chunk.
  std::size_t start_index = 0;

  /// BBA-Others: the chunk map may shift right but never left (the
  /// reservoir expands but never shrinks, Sec. 7.2).
  bool monotone_reservoir = false;

  /// Sec. 7.1 outage protection: accrue `outage_accrual_s` of extra
  /// reservoir per downloaded chunk while the buffer is increasing and
  /// below `outage_accrue_below_fraction` of capacity, up to
  /// `outage_cap_s`. On by default: the paper's deployed BBA-1
  /// implementation accumulated 400 ms per chunk (Sec. 7.1).
  bool outage_protection = true;
  double outage_accrual_s = 0.4;
  double outage_cap_s = 80.0;
  double outage_accrue_below_fraction = 0.75;

  /// Keep at least this much cushion between the effective reservoir and
  /// the upper knee (the dynamic reservoir plus outage protection could
  /// otherwise swallow the whole map).
  double min_cushion_s = 60.0;
};

/// The decision of the BBA family -- the dynamic reservoir and outage
/// protection (Bba1), BBA-2's startup ramp, and BBA-Others' up-switch
/// smoothing -- with its per-session state. The only implementation: the
/// Bba1/Bba2/BbaOthers classes and core::BbaTable both run it over the
/// title's media::DecisionTable rows (core/bba_table.hpp), so both choose
/// bit-identical rates.
///
/// `Row` supplies chunk k's inputs: raw_reservoir_s() (the unclamped
/// Fig. 12 reservoir), size_bits(i) at ladder index i, num_rates(), and the
/// title's chunk_min_mean(), chunk_max_mean() and chunk_duration_s().
class BbaDecision {
 public:
  struct Params {
    Bba1Config base;
    /// BBA-2: start in the Delta-B startup ramp, which steps up when the
    /// last chunk's Delta-B exceeds a threshold decaying linearly from
    /// `threshold_at_empty` * V at an empty buffer to `threshold_at_knee` *
    /// V at the upper knee.
    bool startup = false;
    double threshold_at_empty = 0.875;
    double threshold_at_knee = 0.5;
    /// BBA-Others: hold up-switches whose lookahead window (as many chunks
    /// as the buffer holds, at most this many) would soon undo them. 0: no
    /// smoothing.
    std::size_t max_lookahead_chunks = 0;
  };

  explicit BbaDecision(const Params& params);

  // Inline, like decide() and unlike the out-of-line helpers below, which
  // take no `this`: the session player keeps a BbaTable's copy of this
  // state in registers only while its address never escapes.
  void reset() {
    in_startup_ = p_.startup;
    startup_prev_buffer_s_ = 0.0;
    effective_reservoir_s_ = p_.base.reservoir.min_s;
    outage_s_ = 0.0;
    prev_buffer_s_ = 0.0;
    has_prev_buffer_ = false;
  }

  template <class Row>
  std::size_t decide(const abr::Observation& obs, const Row& row);

  const Params& params() const { return p_; }
  double effective_reservoir_s() const { return effective_reservoir_s_; }
  double outage_protection_s() const { return outage_s_; }
  bool in_startup() const { return in_startup_; }

  /// The Delta-B step-up threshold (seconds) at the given buffer level.
  double startup_threshold_s(double buffer_s, double buffer_max_s,
                             double chunk_duration_s) const {
    const double knee = p_.base.upper_knee_fraction * buffer_max_s;
    const double frac = std::clamp(buffer_s / knee, 0.0, 1.0);
    const double threshold =
        p_.threshold_at_empty +
        (p_.threshold_at_knee - p_.threshold_at_empty) * frac;
    return threshold * chunk_duration_s;
  }

  /// Lookahead window at the given buffer level: one chunk when empty, up
  /// to `max_lookahead_chunks` when full.
  static std::size_t lookahead_chunks(double buffer_s, double chunk_duration_s,
                                      std::size_t max_lookahead_chunks);

 private:
  /// BBA-Others: the highest rate up to `candidate` whose lookahead window
  /// stays clear of its down-barrier, else `prev` (out of line: up-switches
  /// are rare).
  static std::size_t smooth_up_switch(const abr::Observation& obs,
                                      std::size_t max_lookahead_chunks,
                                      std::size_t candidate, std::size_t prev,
                                      double map_bits);

  Params p_;
  bool in_startup_ = false;
  double startup_prev_buffer_s_ = 0.0;
  double effective_reservoir_s_ = 0.0;
  double outage_s_ = 0.0;
  double prev_buffer_s_ = 0.0;
  bool has_prev_buffer_ = false;
};

template <class Row>
std::size_t BbaDecision::decide(const abr::Observation& obs, const Row& row) {
  const Bba1Config& cfg = p_.base;
  const std::size_t k = obs.chunk_index;
  const double buffer = obs.buffer_s;
  const std::size_t n_rates = row.num_rates();
  const std::size_t max_index = n_rates - 1;

  // Sec. 7.1: accrue outage protection per downloaded chunk while the
  // buffer is rising and not yet 75% full (BBA-2: only after startup).
  if (cfg.outage_protection && !in_startup_ && has_prev_buffer_ &&
      buffer > prev_buffer_s_ &&
      buffer < cfg.outage_accrue_below_fraction * obs.buffer_max_s) {
    outage_s_ = std::min(outage_s_ + cfg.outage_accrual_s, cfg.outage_cap_s);
  }
  prev_buffer_s_ = buffer;
  has_prev_buffer_ = true;
  const double dynamic = std::clamp(row.raw_reservoir_s(),
                                    cfg.reservoir.min_s, cfg.reservoir.max_s);
  const double knee = cfg.upper_knee_fraction * obs.buffer_max_s;
  double effective = std::min(dynamic + outage_s_, knee - cfg.min_cushion_s);
  if (cfg.monotone_reservoir) {
    effective = std::max(effective, effective_reservoir_s_);
  }
  effective_reservoir_s_ = effective;
  const double chunk_min = row.chunk_min_mean();
  const double chunk_max = row.chunk_max_mean();
  BBA_ASSERT(effective >= 0.0 && knee > effective,
             "chunk map needs a reservoir below the upper knee");
  BBA_ASSERT(chunk_min > 0.0 && chunk_max > chunk_min,
             "require 0 < chunk_min < chunk_max");

  // The previous rate (start_index for the first chunk), and the chunk
  // map's allowable size strictly inside the cushion (Fig. 13).
  const std::size_t prev = k == 0 ? std::min(cfg.start_index, max_index)
                                  : std::min(obs.prev_rate_index, max_index);
  auto map_bits = [&] {
    const double frac = (buffer - effective) / (knee - effective);
    return chunk_min + frac * (chunk_max - chunk_min);
  };

  if (in_startup_ && k > 0) {
    // Startup exit (Sec. 6): the buffer is decreasing, or the chunk map
    // suggests a higher rate than the one in use.
    const bool buffer_decreasing = buffer < startup_prev_buffer_s_;
    std::size_t suggestion;
    if (buffer <= effective) {
      suggestion = 0;
    } else if (buffer >= knee) {
      suggestion = max_index;
    } else {
      const double bits = map_bits();
      suggestion = 0;
      for (std::size_t i = 0; i < n_rates; ++i) {
        if (row.size_bits(i) <= bits) suggestion = i;
      }
    }
    if (buffer_decreasing || suggestion > prev) in_startup_ = false;
  }
  startup_prev_buffer_s_ = buffer;

  if (!in_startup_) {
    // Generalized Algorithm 1: switch only when the map's allowable size
    // crosses the size of the next chunk at a neighbouring rate.
    if (buffer <= effective) return 0;
    if (buffer >= knee) return max_index;
    const double bits = map_bits();
    const std::size_t rate_plus = prev < max_index ? prev + 1 : max_index;
    const std::size_t rate_minus = prev > 0 ? prev - 1 : 0;
    if (rate_plus != prev && bits >= row.size_bits(rate_plus)) {
      std::size_t candidate = prev;
      for (std::size_t i = 0; i < n_rates; ++i) {
        if (row.size_bits(i) < bits) candidate = i;
      }
      candidate = std::max(candidate, prev);
      if (p_.max_lookahead_chunks == 0) return candidate;
      return smooth_up_switch(obs, p_.max_lookahead_chunks, candidate, prev,
                              bits);
    }
    if (rate_minus != prev && bits <= row.size_bits(rate_minus)) {
      std::size_t candidate = 0;
      for (std::size_t i = n_rates; i-- > 0;) {
        if (row.size_bits(i) > bits) candidate = i;
      }
      return std::min(candidate, prev);
    }
    return prev;
  }
  if (k == 0) return prev;  // first request: nothing is known yet
  // Startup ramp: step up one rate if the last chunk filled the buffer
  // fast enough.
  return obs.delta_buffer_s >
                 startup_threshold_s(buffer, obs.buffer_max_s,
                                     row.chunk_duration_s())
             ? (prev < max_index ? prev + 1 : max_index)
             : prev;
}

/// The BBA-1 algorithm: the family's decision without the startup ramp.
class Bba1 : public abr::RateAdaptation {
 public:
  explicit Bba1(Bba1Config cfg = {});

  std::size_t choose_rate(const abr::Observation& obs) override;
  void reset() override {
    decision_.reset();
    video_ = nullptr;
  }
  std::string name() const override { return "bba1"; }

  const BbaDecision::Params& params() const { return decision_.params(); }

  /// Effective reservoir currently in force (dynamic + outage protection,
  /// after monotonicity). Exposed for tests and Fig. 12.
  double effective_reservoir_s() const {
    return decision_.effective_reservoir_s();
  }
  double outage_protection_s() const {
    return decision_.outage_protection_s();
  }

 protected:
  explicit Bba1(const BbaDecision::Params& params);

  BbaDecision decision_;

 private:
  // The title decided last and its decision table, looked up when the
  // title changes.
  const media::Video* video_ = nullptr;
  const media::DecisionTable* table_ = nullptr;
};

}  // namespace bba::core
