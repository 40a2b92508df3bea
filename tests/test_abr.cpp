// Tests for bba::abr: baselines and the Control (Fig. 3) algorithm.
#include <gtest/gtest.h>

#include "abr/abr.hpp"
#include "abr/baselines.hpp"
#include "abr/control.hpp"
#include "media/video.hpp"
#include "net/estimators.hpp"
#include "util/units.hpp"

namespace bba::abr {
namespace {

using util::kbps;
using util::mbps;

const media::Video& test_video() {
  static const media::Video video = media::make_cbr_video(
      "t", media::EncodingLadder::netflix_2013(), 100, 4.0);
  return video;
}

Observation make_obs(std::size_t chunk, double buffer_s,
                     std::size_t prev_rate, double last_tput_bps,
                     double last_dl_s = 1.0) {
  Observation obs;
  obs.chunk_index = chunk;
  obs.buffer_s = buffer_s;
  obs.buffer_max_s = 240.0;
  obs.now_s = 4.0 * static_cast<double>(chunk);
  obs.prev_rate_index = prev_rate;
  obs.last_throughput_bps = last_tput_bps;
  obs.last_download_s = last_tput_bps > 0.0 ? last_dl_s : 0.0;
  obs.delta_buffer_s = 0.0;
  obs.playing = chunk > 0;
  obs.video = &test_video();
  return obs;
}

TEST(Baselines, RMinAlwaysPicksIndexZero) {
  RMinAlways abr;
  for (double buffer : {0.0, 100.0, 240.0}) {
    EXPECT_EQ(abr.choose_rate(make_obs(5, buffer, 7, mbps(50))), 0u);
  }
}

TEST(Baselines, RMaxAlwaysPicksTop) {
  RMaxAlways abr;
  const std::size_t top = test_video().ladder().max_index();
  EXPECT_EQ(abr.choose_rate(make_obs(0, 0.0, 0, 0.0)), top);
  EXPECT_EQ(abr.choose_rate(make_obs(5, 3.0, 0, kbps(100))), top);
}

TEST(Baselines, ThroughputAbrChasesEstimate) {
  ThroughputAbr abr(std::make_unique<net::LastSampleEstimator>(),
                    /*safety=*/1.0, /*start_index=*/0);
  // No sample yet: start index.
  EXPECT_EQ(abr.choose_rate(make_obs(0, 0.0, 0, 0.0)), 0u);
  // 3.1 Mb/s sample -> highest rate <= 3.1 Mb/s = 3000 kb/s (index 7).
  EXPECT_EQ(abr.choose_rate(make_obs(1, 4.0, 0, kbps(3100))), 7u);
  // 400 kb/s sample -> 375 kb/s.
  EXPECT_EQ(abr.choose_rate(make_obs(2, 4.0, 7, kbps(400))), 1u);
}

TEST(Baselines, ThroughputAbrSafetyDiscount) {
  ThroughputAbr abr(std::make_unique<net::LastSampleEstimator>(),
                    /*safety=*/0.5, /*start_index=*/0);
  // 0.5 * 3100 = 1550 -> 1050 kb/s (index 4).
  EXPECT_EQ(abr.choose_rate(make_obs(1, 4.0, 0, kbps(3100))), 4u);
}

TEST(Baselines, ThroughputAbrResetForgetsSamples) {
  ThroughputAbr abr(std::make_unique<net::LastSampleEstimator>(), 1.0, 2);
  (void)abr.choose_rate(make_obs(1, 4.0, 0, mbps(5)));
  abr.reset();
  EXPECT_EQ(abr.choose_rate(make_obs(0, 0.0, 0, 0.0)), 2u);
}

TEST(Control, AdjustmentIsConservativeAtEmptyBuffer) {
  ControlConfig cfg;
  ControlAbr abr(cfg);
  EXPECT_DOUBLE_EQ(abr.adjustment(0.0), cfg.f_at_empty);
  EXPECT_DOUBLE_EQ(abr.adjustment(cfg.knee_s), cfg.f_at_knee);
  EXPECT_DOUBLE_EQ(abr.adjustment(240.0), cfg.f_at_knee);
  // Linear in between.
  EXPECT_NEAR(abr.adjustment(cfg.knee_s / 2),
              (cfg.f_at_empty + cfg.f_at_knee) / 2, 1e-12);
}

TEST(Control, StartIndexBeforeFirstSample) {
  ControlConfig cfg;
  cfg.start_index = 2;
  ControlAbr abr(cfg);
  EXPECT_EQ(abr.choose_rate(make_obs(0, 0.0, 0, 0.0)), 2u);
}

TEST(Control, PicksHighestRateUnderAdjustedEstimate) {
  ControlConfig cfg;
  cfg.f_at_empty = 1.0;
  cfg.f_at_knee = 1.0;
  cfg.last_sample_cap = 1e9;
  cfg.up_margin = 1.0;
  ControlAbr abr(cfg);
  // One 3.1 Mb/s sample with a full buffer: target = 3.1 Mb/s -> 3000.
  EXPECT_EQ(abr.choose_rate(make_obs(1, 240.0, 0, kbps(3100))), 7u);
}

TEST(Control, BufferAdjustmentScalesTarget) {
  ControlConfig cfg;
  cfg.f_at_empty = 0.5;
  cfg.f_at_knee = 1.0;
  cfg.knee_s = 60.0;
  cfg.last_sample_cap = 1e9;
  cfg.up_margin = 1.0;
  ControlAbr low(cfg);
  ControlAbr high(cfg);
  // Same estimate, different buffers: the low buffer picks a lower rate.
  const std::size_t r_low = low.choose_rate(make_obs(1, 0.0, 0, mbps(2)));
  const std::size_t r_high = high.choose_rate(make_obs(1, 240.0, 0, mbps(2)));
  EXPECT_LT(r_low, r_high);
}

TEST(Control, DownSwitchHysteresisHolds) {
  ControlConfig cfg;
  cfg.f_at_empty = 1.0;
  cfg.f_at_knee = 1.0;
  cfg.down_threshold = 0.85;
  cfg.last_sample_cap = 1e9;
  cfg.estimator_window = 1;
  cfg.up_margin = 1.0;
  ControlAbr abr(cfg);
  // Establish 3000 kb/s (index 7).
  EXPECT_EQ(abr.choose_rate(make_obs(1, 240.0, 0, kbps(3100))), 7u);
  // Estimate dips to 2700: within 0.85 * 3000 = 2550 -> hold.
  EXPECT_EQ(abr.choose_rate(make_obs(2, 240.0, 7, kbps(2700))), 7u);
  // Estimate collapses to 1000 -> down to 750 (index 3).
  EXPECT_EQ(abr.choose_rate(make_obs(3, 240.0, 7, kbps(1000))), 3u);
}

TEST(Control, UpMarginSuppressesBoundaryFlap) {
  ControlConfig cfg;
  cfg.f_at_empty = 1.0;
  cfg.f_at_knee = 1.0;
  cfg.up_margin = 1.15;
  cfg.last_sample_cap = 1e9;
  cfg.estimator_window = 1;
  ControlAbr abr(cfg);
  // From 2350 (index 6): an estimate of 3050 barely clears 3000 but not
  // the 15% margin -> hold.
  (void)abr.choose_rate(make_obs(1, 240.0, 0, kbps(2350)));
  EXPECT_EQ(abr.choose_rate(make_obs(2, 240.0, 6, kbps(3050))), 6u);
  // A 4.0 Mb/s estimate clears 3000 * 1.15 -> up.
  EXPECT_EQ(abr.choose_rate(make_obs(3, 240.0, 6, kbps(4000))), 7u);
}

TEST(Control, FreshSampleCapTempersStaleMean) {
  ControlConfig cfg;
  cfg.f_at_empty = 1.0;
  cfg.f_at_knee = 1.0;
  cfg.estimator_window = 8;
  cfg.last_sample_cap = 1.5;
  cfg.up_margin = 1.0;
  ControlAbr abr(cfg);
  // Eight fast samples...
  std::size_t rate = 0;
  for (std::size_t k = 1; k <= 8; ++k) {
    rate = abr.choose_rate(make_obs(k, 240.0, rate, mbps(8)));
  }
  EXPECT_EQ(rate, test_video().ladder().max_index());
  // ...then one 400 kb/s chunk: the mean is still ~7 Mb/s, but the cap
  // pins the estimate to 600 kb/s -> immediate deep down-switch.
  const std::size_t after =
      abr.choose_rate(make_obs(9, 240.0, rate, kbps(400)));
  EXPECT_LE(after, 2u);  // at most 560 kb/s
}

TEST(Control, ResetClearsEstimator) {
  ControlAbr abr;
  (void)abr.choose_rate(make_obs(1, 100.0, 0, mbps(5)));
  EXPECT_GT(abr.estimate_bps(), 0.0);
  abr.reset();
  EXPECT_DOUBLE_EQ(abr.estimate_bps(), 0.0);
}

TEST(Control, NameAndEstimateAccessors) {
  ControlAbr abr;
  EXPECT_EQ(abr.name(), "control");
  EXPECT_DOUBLE_EQ(abr.estimate_bps(), 0.0);
}

}  // namespace
}  // namespace bba::abr
