// Tests for the core map machinery: RateMap (Figs. 5/6), ChunkMap
// (Fig. 13), and the dynamic reservoir calculation (Fig. 12).
#include <gtest/gtest.h>

#include "core/chunk_map.hpp"
#include "core/rate_map.hpp"
#include "core/reservoir.hpp"
#include "media/vbr.hpp"
#include "media/video.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace bba::core {
namespace {

using util::kbps;

TEST(RateMap, PinnedAtBothEnds) {
  const RateMap map(90.0, 126.0, kbps(235), kbps(5000));
  EXPECT_DOUBLE_EQ(map.rate_at_bps(0.0), kbps(235));
  EXPECT_DOUBLE_EQ(map.rate_at_bps(90.0), kbps(235));
  EXPECT_DOUBLE_EQ(map.rate_at_bps(216.0), kbps(5000));
  EXPECT_DOUBLE_EQ(map.rate_at_bps(240.0), kbps(5000));
}

TEST(RateMap, LinearAcrossCushion) {
  const RateMap map(90.0, 126.0, kbps(235), kbps(5000));
  const double mid = map.rate_at_bps(90.0 + 63.0);
  EXPECT_NEAR(mid, (kbps(235) + kbps(5000)) / 2.0, 1.0);
}

TEST(RateMap, StrictlyIncreasingInCushion) {
  const RateMap map(90.0, 126.0, kbps(235), kbps(5000));
  double prev = map.rate_at_bps(90.0);
  for (double b = 91.0; b < 216.0; b += 1.0) {
    const double f = map.rate_at_bps(b);
    EXPECT_GT(f, prev);
    prev = f;
  }
}

TEST(RateMap, Bba0DefaultGeometry) {
  const RateMap map = RateMap::bba0_default(kbps(235), kbps(5000));
  EXPECT_DOUBLE_EQ(map.reservoir_s(), 90.0);
  EXPECT_DOUBLE_EQ(map.cushion_s(), 126.0);
  EXPECT_DOUBLE_EQ(map.upper_reservoir_start_s(), 216.0);
}

TEST(RateMap, SafeAreaBoundary) {
  const RateMap map = RateMap::bba0_default(kbps(235), kbps(5000));
  // Below the reservoir: the map pins to R_min (treated as safe).
  EXPECT_TRUE(map.is_safe_at(50.0, 4.0));
  // Just above the reservoir the continuous map is nominally risky
  // (a chunk takes at least V seconds of buffer).
  EXPECT_FALSE(map.is_safe_at(92.0, 4.0));
  // Deep in the cushion the map is safe: V*f(B)/Rmin << B - r.
  EXPECT_TRUE(map.is_safe_at(150.0, 4.0));
  EXPECT_TRUE(map.is_safe_at(216.0, 4.0));
}

TEST(ChunkMap, PinnedAndLinear) {
  const ChunkMap map(20.0, 216.0, 1000.0, 21000.0);
  EXPECT_DOUBLE_EQ(map.max_chunk_bits(0.0), 1000.0);
  EXPECT_DOUBLE_EQ(map.max_chunk_bits(20.0), 1000.0);
  EXPECT_DOUBLE_EQ(map.max_chunk_bits(216.0), 21000.0);
  EXPECT_DOUBLE_EQ(map.max_chunk_bits(240.0), 21000.0);
  EXPECT_DOUBLE_EQ(map.max_chunk_bits(118.0), 11000.0);  // midpoint
  EXPECT_DOUBLE_EQ(map.cushion_s(), 196.0);
}

TEST(ChunkMap, MonotoneEverywhere) {
  const ChunkMap map(8.0, 216.0, 940e3, 20e6);
  double prev = 0.0;
  for (double b = 0.0; b <= 240.0; b += 0.5) {
    const double bits = map.max_chunk_bits(b);
    EXPECT_GE(bits, prev);
    prev = bits;
  }
}

TEST(Reservoir, ZeroForCbr) {
  const media::EncodingLadder ladder = media::EncodingLadder::netflix_2013();
  const auto table = media::make_cbr_table(ladder, 300, 4.0);
  // CBR: consumption at R_min exactly equals resupply -> raw = 0, clamped
  // to the 8 s minimum.
  EXPECT_NEAR(raw_reservoir_s(table, 0, ladder.rmin_bps(), 0, 480.0), 0.0,
              1e-9);
  const ReservoirConfig cfg;
  EXPECT_DOUBLE_EQ(compute_reservoir_s(table, 0, ladder.rmin_bps(), 0, cfg),
                   8.0);
}

TEST(Reservoir, PositiveForDemandingWindow) {
  const media::EncodingLadder ladder = media::EncodingLadder::netflix_2013();
  // All chunks 1.5x the average: downloading at R_min loses 2 s per chunk.
  const auto table = media::make_vbr_table(
      ladder, std::vector<double>(300, 1.5), 4.0);
  const double raw = raw_reservoir_s(table, 0, ladder.rmin_bps(), 0, 480.0);
  // 120 chunks in the window, each consuming 6 s while resupplying 4 s.
  EXPECT_NEAR(raw, 120.0 * 2.0, 1e-6);
}

TEST(Reservoir, NegativeForEasyWindow) {
  const media::EncodingLadder ladder = media::EncodingLadder::netflix_2013();
  const auto table = media::make_vbr_table(
      ladder, std::vector<double>(300, 0.5), 4.0);
  const double raw = raw_reservoir_s(table, 0, ladder.rmin_bps(), 0, 480.0);
  EXPECT_NEAR(raw, -120.0 * 2.0, 1e-6);
  const ReservoirConfig cfg;
  EXPECT_DOUBLE_EQ(compute_reservoir_s(table, 0, ladder.rmin_bps(), 0, cfg),
                   cfg.min_s);
}

TEST(Reservoir, ClampsAtMaximum) {
  const media::EncodingLadder ladder = media::EncodingLadder::netflix_2013();
  const auto table = media::make_vbr_table(
      ladder, std::vector<double>(300, 2.2), 4.0);
  const ReservoirConfig cfg;
  EXPECT_DOUBLE_EQ(compute_reservoir_s(table, 0, ladder.rmin_bps(), 0, cfg),
                   cfg.max_s);
}

TEST(Reservoir, WindowTruncatesAtVideoEnd) {
  const media::EncodingLadder ladder = media::EncodingLadder::netflix_2013();
  const auto table = media::make_vbr_table(
      ladder, std::vector<double>(50, 1.5), 4.0);
  // Only 10 chunks remain.
  const double raw = raw_reservoir_s(table, 0, ladder.rmin_bps(), 40, 480.0);
  EXPECT_NEAR(raw, 10.0 * 2.0, 1e-6);
  // Past the end: nothing to absorb.
  EXPECT_DOUBLE_EQ(raw_reservoir_s(table, 0, ladder.rmin_bps(), 50, 480.0),
                   0.0);
}

TEST(Reservoir, ShorterLookaheadSeesLess) {
  const media::EncodingLadder ladder = media::EncodingLadder::netflix_2013();
  std::vector<double> complexity(300, 1.0);
  // A demanding stretch from chunk 60 to 120.
  for (std::size_t k = 60; k < 120; ++k) complexity[k] = 2.0;
  const auto table = media::make_vbr_table(ladder, complexity, 4.0);
  // A 60 s lookahead (15 chunks) from chunk 0 sees none of it; 480 s
  // (120 chunks) sees half of it.
  EXPECT_NEAR(raw_reservoir_s(table, 0, ladder.rmin_bps(), 0, 60.0), 0.0,
              1e-6);
  EXPECT_GT(raw_reservoir_s(table, 0, ladder.rmin_bps(), 0, 480.0), 100.0);
}

}  // namespace
}  // namespace bba::core
