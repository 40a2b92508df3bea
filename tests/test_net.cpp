// Tests for bba::net: capacity trace integration, generators, trace I/O,
// throughput estimators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <vector>

#include "net/capacity_trace.hpp"
#include "net/estimators.hpp"
#include "net/trace_gen.hpp"
#include "net/trace_io.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace bba::net {
namespace {

using util::kbps;
using util::mbps;

TEST(CapacityTrace, ConstantRate) {
  const CapacityTrace t = CapacityTrace::constant(mbps(2));
  EXPECT_DOUBLE_EQ(t.rate_at_bps(0.0), mbps(2));
  EXPECT_DOUBLE_EQ(t.rate_at_bps(123.456), mbps(2));
  EXPECT_DOUBLE_EQ(t.finish_time_s(0.0, mbps(2)), 1.0);
  EXPECT_DOUBLE_EQ(t.finish_time_s(10.0, mbps(4)), 12.0);
}

TEST(CapacityTrace, RateAtSegmentBoundaries) {
  const CapacityTrace t({{10.0, 100.0}, {20.0, 200.0}});
  EXPECT_DOUBLE_EQ(t.rate_at_bps(0.0), 100.0);
  EXPECT_DOUBLE_EQ(t.rate_at_bps(9.999), 100.0);
  EXPECT_DOUBLE_EQ(t.rate_at_bps(10.0), 200.0);
  EXPECT_DOUBLE_EQ(t.rate_at_bps(29.999), 200.0);
  // Loops: t=30 wraps to t=0.
  EXPECT_DOUBLE_EQ(t.rate_at_bps(30.0), 100.0);
  EXPECT_DOUBLE_EQ(t.rate_at_bps(40.0), 200.0);
}

TEST(CapacityTrace, FinishTimeSpansSegments) {
  const CapacityTrace t({{10.0, 100.0}, {10.0, 300.0}});
  // 1000 bits at 100 b/s = exactly the first segment.
  EXPECT_DOUBLE_EQ(t.finish_time_s(0.0, 1000.0), 10.0);
  // 1000 + 600 bits: 10 s + 2 s into the second segment.
  EXPECT_DOUBLE_EQ(t.finish_time_s(0.0, 1600.0), 12.0);
  // Starting mid-segment.
  EXPECT_DOUBLE_EQ(t.finish_time_s(5.0, 500.0), 10.0);
}

TEST(CapacityTrace, FinishTimeAcrossCycles) {
  const CapacityTrace t({{10.0, 100.0}, {10.0, 300.0}});  // 4000 bits/cycle
  // Two full cycles plus the first segment of the third.
  EXPECT_DOUBLE_EQ(t.finish_time_s(0.0, 9000.0), 50.0);
  // Exactly one cycle.
  EXPECT_DOUBLE_EQ(t.finish_time_s(0.0, 4000.0), 20.0);
  // Many cycles (exercises the whole-cycle fast path).
  EXPECT_DOUBLE_EQ(t.finish_time_s(0.0, 4000.0 * 1000 + 1000.0),
                   20.0 * 1000 + 10.0);
}

TEST(CapacityTrace, FinishTimeStartBeyondFirstCycle) {
  const CapacityTrace t({{10.0, 100.0}, {10.0, 300.0}});
  // t=25 wraps to 5 s into the FIRST segment of the second cycle.
  EXPECT_DOUBLE_EQ(t.rate_at_bps(25.0), 100.0);
  EXPECT_DOUBLE_EQ(t.finish_time_s(25.0, 300.0), 28.0);
  // t=35 wraps into the second segment.
  EXPECT_DOUBLE_EQ(t.rate_at_bps(35.0), 300.0);
  EXPECT_DOUBLE_EQ(t.finish_time_s(35.0, 300.0), 36.0);
}

TEST(CapacityTrace, ZeroBitsFinishImmediately) {
  const CapacityTrace t = CapacityTrace::constant(100.0);
  EXPECT_DOUBLE_EQ(t.finish_time_s(7.0, 0.0), 7.0);
}

TEST(CapacityTrace, OutageSegmentsDelayCompletion) {
  const CapacityTrace t({{10.0, 100.0}, {30.0, 0.0}});
  // 1500 bits: 1000 in first 10 s, outage 30 s, 500 more in next cycle.
  EXPECT_DOUBLE_EQ(t.finish_time_s(0.0, 1500.0), 45.0);
}

TEST(CapacityTrace, PermanentOutageIsInfinite) {
  const CapacityTrace dead({{10.0, 0.0}});
  EXPECT_TRUE(std::isinf(dead.finish_time_s(0.0, 1.0)));
}

TEST(CapacityTrace, NonLoopingRunsDry) {
  const CapacityTrace t({{10.0, 100.0}}, /*loop=*/false);
  EXPECT_DOUBLE_EQ(t.finish_time_s(0.0, 500.0), 5.0);
  EXPECT_TRUE(std::isinf(t.finish_time_s(0.0, 1001.0)));
  EXPECT_TRUE(std::isinf(t.finish_time_s(11.0, 1.0)));
  EXPECT_DOUBLE_EQ(t.rate_at_bps(11.0), 0.0);
}

TEST(CapacityTrace, BitsBetweenAndAverage) {
  const CapacityTrace t({{10.0, 100.0}, {10.0, 300.0}});
  EXPECT_DOUBLE_EQ(t.bits_between(0.0, 10.0), 1000.0);
  EXPECT_DOUBLE_EQ(t.bits_between(5.0, 15.0), 500.0 + 1500.0);
  EXPECT_DOUBLE_EQ(t.bits_between(0.0, 40.0), 8000.0);  // two cycles
  EXPECT_DOUBLE_EQ(t.bits_between(0.0, 20.0) / 20.0, 200.0);  // average
  EXPECT_DOUBLE_EQ(t.bits_between(5.0, 5.0), 0.0);
}

TEST(CapacityTrace, MinMaxRates) {
  const CapacityTrace t({{1.0, 100.0}, {1.0, 700.0}, {1.0, 300.0}});
  EXPECT_DOUBLE_EQ(t.min_rate_bps(), 100.0);
  EXPECT_DOUBLE_EQ(t.max_rate_bps(), 700.0);
}

TEST(CapacityTrace, FinishTimeConsistentWithBitsBetween) {
  util::Rng rng(8);
  MarkovTraceConfig cfg;
  cfg.duration_s = 600.0;
  const CapacityTrace t = make_markov_trace(cfg, rng);
  for (int i = 0; i < 50; ++i) {
    const double start = rng.uniform(0.0, 2000.0);
    const double bits = rng.uniform(1e4, 1e8);
    const double finish = t.finish_time_s(start, bits);
    ASSERT_TRUE(std::isfinite(finish));
    EXPECT_NEAR(t.bits_between(start, finish), bits, 1.0);
  }
}

TEST(TraceGen, StepTrace) {
  const CapacityTrace t = make_step_trace(mbps(5), kbps(350), 25.0);
  EXPECT_DOUBLE_EQ(t.rate_at_bps(10.0), mbps(5));
  EXPECT_DOUBLE_EQ(t.rate_at_bps(30.0), kbps(350));
}

TEST(TraceGen, SquareTrace) {
  const CapacityTrace t = make_square_trace(1000.0, 200.0, 5.0, 10.0);
  EXPECT_DOUBLE_EQ(t.rate_at_bps(2.0), 1000.0);
  EXPECT_DOUBLE_EQ(t.rate_at_bps(7.0), 200.0);
  EXPECT_DOUBLE_EQ(t.rate_at_bps(16.0), 1000.0);  // next cycle
  EXPECT_DOUBLE_EQ(t.cycle_duration_s(), 15.0);
}

TEST(TraceGen, MarkovRespectsBounds) {
  util::Rng rng(10);
  MarkovTraceConfig cfg;
  cfg.min_bps = kbps(300);
  cfg.max_bps = mbps(10);
  const CapacityTrace t = make_markov_trace(cfg, rng);
  EXPECT_GE(t.min_rate_bps(), kbps(300));
  EXPECT_LE(t.max_rate_bps(), mbps(10));
  EXPECT_GE(t.cycle_duration_s(), cfg.duration_s);
}

TEST(TraceGen, MarkovMedianNearConfig) {
  util::Rng rng(11);
  MarkovTraceConfig cfg;
  cfg.median_bps = mbps(3);
  cfg.sigma_log = 0.6;
  cfg.duration_s = 36000.0;
  const CapacityTrace t = make_markov_trace(cfg, rng);
  // Sampled median should approximate the configured one.
  std::vector<double> samples;
  for (double s = 0.5; s < t.cycle_duration_s(); s += 5.0) {
    samples.push_back(t.rate_at_bps(s));
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  EXPECT_NEAR(samples[samples.size() / 2] / mbps(3), 1.0, 0.2);
}

TEST(TraceGen, VariationRatioGrowsWithSigma) {
  util::Rng rng1(12);
  util::Rng rng2(12);
  MarkovTraceConfig calm;
  calm.sigma_log = 0.2;
  MarkovTraceConfig wild;
  wild.sigma_log = 1.3;
  const double calm_ratio = variation_ratio(make_markov_trace(calm, rng1));
  const double wild_ratio = variation_ratio(make_markov_trace(wild, rng2));
  EXPECT_LT(calm_ratio, wild_ratio);
  EXPECT_GT(wild_ratio, 4.0);
}

TEST(TraceGen, WithOutagesInsertsZeroCapacity) {
  util::Rng rng(13);
  OutageConfig cfg;
  cfg.mean_interval_s = 100.0;
  const CapacityTrace base = CapacityTrace::constant(mbps(5));
  // Extend the base to a long cycle first so outages land inside it.
  const CapacityTrace long_base({{3600.0, mbps(5)}});
  const CapacityTrace t = with_outages(long_base, cfg, rng);
  EXPECT_DOUBLE_EQ(t.min_rate_bps(), 0.0);
  // Total duration is extended by the inserted outages.
  EXPECT_GT(t.cycle_duration_s(), 3600.0);
  // Outage durations respect the configured range.
  for (const auto& seg : t.segments()) {
    if (seg.rate_bps == 0.0) {
      EXPECT_GE(seg.duration_s, cfg.min_outage_s);
      EXPECT_LE(seg.duration_s, cfg.max_outage_s);
    }
  }
  (void)base;
}

TEST(TraceIo, RoundTrip) {
  const std::string path = testing::TempDir() + "/bba_trace_test.csv";
  const CapacityTrace t({{10.0, 100.0}, {2.5, 12345.5}});
  ASSERT_TRUE(write_trace_csv(path, t));
  const auto back = read_trace_csv(path);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->segments().size(), 2u);
  EXPECT_DOUBLE_EQ(back->segments()[1].duration_s, 2.5);
  EXPECT_DOUBLE_EQ(back->segments()[1].rate_bps, 12345.5);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsMalformedRows) {
  const std::string path = testing::TempDir() + "/bba_trace_bad.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("duration_s,rate_bps\n10,abc\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(read_trace_csv(path).has_value());
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsNonPositiveDurations) {
  const std::string path = testing::TempDir() + "/bba_trace_bad2.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("duration_s,rate_bps\n0,100\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(read_trace_csv(path).has_value());
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsNonFiniteNumbersAndTrailingJunkInEveryColumn) {
  // Each of these used to parse: "nan" durations aborted the player,
  // "5junk" read as 5 and "inf" durations made a 0 kb/s session.
  const std::string path = testing::TempDir() + "/bba_trace_nonfinite.csv";
  auto read_row = [&](const std::string& duration, const std::string& rate) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    EXPECT_NE(f, nullptr);
    if (f == nullptr) return false;
    std::fputs(("duration_s,rate_bps\n10,100\n" + duration + "," + rate +
                "\n").c_str(),
               f);
    std::fclose(f);
    return read_trace_csv(path).has_value();
  };
  EXPECT_TRUE(read_row("5", "200"));
  for (const char* bad : {"nan", "inf", "-inf", "5junk", "1e999"}) {
    EXPECT_FALSE(read_row(bad, "200")) << "duration " << bad;
    EXPECT_FALSE(read_row("5", bad)) << "rate " << bad;
  }
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFile) {
  EXPECT_FALSE(read_trace_csv("/no/such/file.csv").has_value());
}

TEST(Estimators, LastSample) {
  LastSampleEstimator e;
  EXPECT_FALSE(e.has_estimate());
  e.add_sample(100.0, 1.0);
  EXPECT_TRUE(e.has_estimate());
  EXPECT_DOUBLE_EQ(e.estimate_bps(), 100.0);
  e.add_sample(300.0, 1.0);
  EXPECT_DOUBLE_EQ(e.estimate_bps(), 300.0);
  e.reset();
  EXPECT_FALSE(e.has_estimate());
}

TEST(Estimators, SlidingMeanWindow) {
  SlidingMeanEstimator e(3);
  e.add_sample(1.0, 1.0);
  e.add_sample(2.0, 1.0);
  EXPECT_DOUBLE_EQ(e.estimate_bps(), 1.5);
  e.add_sample(3.0, 1.0);
  EXPECT_DOUBLE_EQ(e.estimate_bps(), 2.0);
  e.add_sample(10.0, 1.0);  // evicts the 1.0
  EXPECT_DOUBLE_EQ(e.estimate_bps(), 5.0);
}

TEST(Estimators, EwmaConvergesAndSeedsWithFirstSample) {
  EwmaEstimator e(0.5);
  e.add_sample(100.0, 1.0);
  EXPECT_DOUBLE_EQ(e.estimate_bps(), 100.0);
  e.add_sample(200.0, 1.0);
  EXPECT_DOUBLE_EQ(e.estimate_bps(), 150.0);
  for (int i = 0; i < 50; ++i) e.add_sample(300.0, 1.0);
  EXPECT_NEAR(e.estimate_bps(), 300.0, 1e-6);
}

TEST(Estimators, HarmonicMeanPenalizesOutliers) {
  HarmonicMeanEstimator h(3);
  SlidingMeanEstimator m(3);
  for (double s : {100.0, 100.0, 10000.0}) {
    h.add_sample(s, 1.0);
    m.add_sample(s, 1.0);
  }
  EXPECT_LT(h.estimate_bps(), m.estimate_bps());
  EXPECT_NEAR(h.estimate_bps(), 3.0 / (0.01 + 0.01 + 0.0001), 1e-9);
}

TEST(Estimators, HarmonicMeanZeroSampleDegradesButStaysPositive) {
  // Regression: estimate_bps() used to return exactly 0.0 as soon as any
  // outage (zero-throughput) sample was in the window, which downstream
  // rate maps treat as a permanently dead link.
  HarmonicMeanEstimator h(3);
  h.add_sample(100.0, 1.0);
  h.add_sample(0.0, 1.0);
  EXPECT_GT(h.estimate_bps(), 0.0);
  // The zero sample enters as the documented floor.
  EXPECT_DOUBLE_EQ(h.estimate_bps(),
                   2.0 / (1.0 / 100.0 + 1.0 / kMinHarmonicSampleBps));
}

TEST(Estimators, HarmonicMeanRecoversAfterOutageSamplesAgeOut) {
  // Regression: a session observing one outage chunk must regain a healthy
  // rate estimate once the outage sample leaves the sliding window.
  HarmonicMeanEstimator h(3);
  h.add_sample(100.0, 1.0);
  h.add_sample(0.0, 1.0);  // the outage chunk
  const double during = h.estimate_bps();
  EXPECT_LT(during, 10.0);  // collapsed toward the floor...
  EXPECT_GT(during, 0.0);   // ...but never to exactly zero
  h.add_sample(100.0, 1.0);
  h.add_sample(100.0, 1.0);
  h.add_sample(100.0, 1.0);  // window is now all post-outage samples
  EXPECT_DOUBLE_EQ(h.estimate_bps(), 100.0);
}

// The sample ring wraps with a compare-and-subtract; both windowed
// estimators must still sum their window oldest first, so every estimate
// is bit-equal to a plain deque reference -- through evictions at every
// window size and across a reset.
TEST(Estimators, WindowedEstimatesAreBitExactAgainstADequeReference) {
  for (std::size_t window = 1; window <= 8; ++window) {
    SlidingMeanEstimator mean(window);
    HarmonicMeanEstimator harmonic(window);
    std::deque<double> ref;
    util::Rng rng(1000 + window);
    for (int i = 0; i < 1000; ++i) {
      if (i == 437) {
        mean.reset();
        harmonic.reset();
        ref.clear();
        EXPECT_FALSE(mean.has_estimate());
        EXPECT_FALSE(harmonic.has_estimate());
      }
      // Mostly lognormal throughputs, with the occasional outage chunk.
      const double s = rng.bernoulli(0.05) ? 0.0 : rng.lognormal(14.0, 1.0);
      mean.add_sample(s, 1.0);
      harmonic.add_sample(s, 1.0);
      ref.push_back(s);
      if (ref.size() > window) ref.pop_front();

      double sum = 0.0;
      double sum_inv = 0.0;
      for (double r : ref) {
        sum += r;
        sum_inv += 1.0 / std::max(r, kMinHarmonicSampleBps);
      }
      const double n = static_cast<double>(ref.size());
      EXPECT_EQ(mean.estimate_bps(), sum / n)
          << "window " << window << ", sample " << i;
      EXPECT_EQ(harmonic.estimate_bps(), n / sum_inv)
          << "window " << window << ", sample " << i;
    }
  }
}

TEST(Estimators, NamesAreStable) {
  EXPECT_EQ(LastSampleEstimator().name(), "last-sample");
  EXPECT_EQ(SlidingMeanEstimator(2).name(), "sliding-mean");
  EXPECT_EQ(EwmaEstimator(0.5).name(), "ewma");
  EXPECT_EQ(HarmonicMeanEstimator(2).name(), "harmonic-mean");
}

}  // namespace
}  // namespace bba::net
