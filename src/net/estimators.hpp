// Throughput estimators: the capacity-estimation half of Fig. 3.
//
// Clients observe one throughput sample per downloaded chunk (chunk bits /
// download seconds). The Control algorithm smooths these samples; BBA-2's
// startup uses only the last sample ("our use of capacity estimation is
// restrained: we only look at the throughput of the last chunk").
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace bba::net {

/// Fixed-capacity FIFO of the most recent `window` samples. Storage is
/// allocated once at construction and never released: reset() just rewinds
/// the indices, so a reused estimator performs zero heap allocation per
/// session (the simulator's no-allocation invariant, docs/perf.md).
class SampleWindow {
 public:
  explicit SampleWindow(std::size_t window) : buf_(window) {}

  /// Appends a sample, evicting the oldest once the window is full.
  void push(double v) {
    if (count_ < buf_.size()) {
      buf_[wrap(head_ + count_)] = v;
      ++count_;
    } else {
      buf_[head_] = v;
      head_ = wrap(head_ + 1);
    }
  }

  void clear() {
    head_ = 0;
    count_ = 0;
  }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// i-th sample, oldest first (i < size()).
  double at(std::size_t i) const { return buf_[wrap(head_ + i)]; }

 private:
  /// Reduces a ring position below 2 * window to a slot index; a compare
  /// and subtract is cheaper than the integer division `%` compiles to.
  std::size_t wrap(std::size_t pos) const {
    return pos >= buf_.size() ? pos - buf_.size() : pos;
  }

  std::vector<double> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// Interface for per-chunk throughput estimators.
class ThroughputEstimator {
 public:
  virtual ~ThroughputEstimator() = default;

  /// Records one chunk download: average throughput and how long it took.
  virtual void add_sample(double throughput_bps, double duration_s) = 0;

  /// Current estimate (bits/s). Only valid once `has_estimate()`.
  virtual double estimate_bps() const = 0;

  virtual bool has_estimate() const = 0;

  /// Forgets all samples (e.g. after a seek).
  virtual void reset() = 0;

  virtual std::string name() const = 0;
};

/// The throughput of the most recent chunk, verbatim.
class LastSampleEstimator final : public ThroughputEstimator {
 public:
  void add_sample(double throughput_bps, double duration_s) override;
  double estimate_bps() const override;
  bool has_estimate() const override { return has_; }
  void reset() override { has_ = false; }
  std::string name() const override { return "last-sample"; }

 private:
  double last_bps_ = 0.0;
  bool has_ = false;
};

/// Arithmetic mean of the last `window` samples. Inline: Control's
/// per-chunk decision calls it from the fused session loop.
class SlidingMeanEstimator final : public ThroughputEstimator {
 public:
  explicit SlidingMeanEstimator(std::size_t window);
  void add_sample(double throughput_bps, double /*duration_s*/) override {
    BBA_ASSERT(throughput_bps >= 0.0, "throughput must be >= 0");
    samples_.push(throughput_bps);
  }
  double estimate_bps() const override {
    BBA_ASSERT(!samples_.empty(), "estimate_bps() before any sample");
    double sum = 0.0;
    for (std::size_t i = 0; i < samples_.size(); ++i) sum += samples_.at(i);
    return sum / static_cast<double>(samples_.size());
  }
  bool has_estimate() const override { return !samples_.empty(); }
  void reset() override { samples_.clear(); }
  std::string name() const override { return "sliding-mean"; }

 private:
  SampleWindow samples_;
};

/// Exponentially weighted moving average with per-sample weight `alpha`.
class EwmaEstimator final : public ThroughputEstimator {
 public:
  explicit EwmaEstimator(double alpha);
  void add_sample(double throughput_bps, double duration_s) override;
  double estimate_bps() const override;
  bool has_estimate() const override { return has_; }
  void reset() override { has_ = false; }
  std::string name() const override { return "ewma"; }

 private:
  double alpha_;
  double value_bps_ = 0.0;
  bool has_ = false;
};

/// Samples at or below this floor (notably the exact-zero throughput of an
/// outage chunk) contribute 1/kMinHarmonicSampleBps to the harmonic mean
/// instead of diverging it: the estimate degrades toward the floor during
/// an outage and RECOVERS once the outage samples age out of the window,
/// rather than pinning at zero for the rest of the session.
inline constexpr double kMinHarmonicSampleBps = 1.0;

/// Harmonic mean of the last `window` samples -- robust to upward outliers
/// (the estimator used by FESTIVE and similar systems).
class HarmonicMeanEstimator final : public ThroughputEstimator {
 public:
  explicit HarmonicMeanEstimator(std::size_t window);
  void add_sample(double throughput_bps, double duration_s) override;
  double estimate_bps() const override;
  bool has_estimate() const override { return !samples_.empty(); }
  void reset() override { samples_.clear(); }
  std::string name() const override { return "harmonic-mean"; }

 private:
  SampleWindow samples_;
};

}  // namespace bba::net
