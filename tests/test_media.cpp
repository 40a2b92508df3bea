// Tests for bba::media: encoding ladder, chunk tables, decision tables, VBR
// generation, video library.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/reservoir.hpp"
#include "media/chunk_table.hpp"
#include "media/decision_table.hpp"
#include "media/encoding_ladder.hpp"
#include "media/vbr.hpp"
#include "media/video.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace bba::media {
namespace {

using util::kbps;

TEST(EncodingLadder, SortsInput) {
  EncodingLadder ladder({kbps(1000), kbps(250), kbps(500)});
  EXPECT_DOUBLE_EQ(ladder.rate_bps(0), kbps(250));
  EXPECT_DOUBLE_EQ(ladder.rate_bps(2), kbps(1000));
  EXPECT_DOUBLE_EQ(ladder.rmin_bps(), kbps(250));
  EXPECT_DOUBLE_EQ(ladder.rmax_bps(), kbps(1000));
}

TEST(EncodingLadder, Netflix2013Shape) {
  const EncodingLadder ladder = EncodingLadder::netflix_2013();
  EXPECT_EQ(ladder.size(), 9u);
  EXPECT_DOUBLE_EQ(ladder.rmin_bps(), kbps(235));
  EXPECT_DOUBLE_EQ(ladder.rmax_bps(), kbps(5000));
  // The paper's description: "typically 235 kb/s ... 5 Mb/s".
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_GT(ladder.rate_bps(i), ladder.rate_bps(i - 1));
  }
}

TEST(EncodingLadder, Rmin560Variant) {
  const EncodingLadder ladder = EncodingLadder::netflix_2013_rmin560();
  EXPECT_DOUBLE_EQ(ladder.rmin_bps(), kbps(560));
  EXPECT_DOUBLE_EQ(ladder.rmax_bps(), kbps(5000));
}

TEST(EncodingLadder, UpDownSaturate) {
  const EncodingLadder ladder = EncodingLadder::netflix_2013();
  EXPECT_EQ(ladder.up(0), 1u);
  EXPECT_EQ(ladder.up(ladder.max_index()), ladder.max_index());
  EXPECT_EQ(ladder.down(0), 0u);
  EXPECT_EQ(ladder.down(3), 2u);
}

TEST(EncodingLadder, HighestNotAbove) {
  const EncodingLadder ladder = EncodingLadder::netflix_2013();
  EXPECT_EQ(ladder.highest_not_above(kbps(235)), 0u);
  EXPECT_EQ(ladder.highest_not_above(kbps(100)), 0u);  // below R_min -> 0
  EXPECT_EQ(ladder.highest_not_above(kbps(600)), 2u);  // 560
  EXPECT_EQ(ladder.highest_not_above(kbps(99999)), ladder.max_index());
}

TEST(EncodingLadder, LowestNotBelow) {
  const EncodingLadder ladder = EncodingLadder::netflix_2013();
  EXPECT_EQ(ladder.lowest_not_below(kbps(100)), 0u);
  EXPECT_EQ(ladder.lowest_not_below(kbps(560)), 2u);
  EXPECT_EQ(ladder.lowest_not_below(kbps(99999)), ladder.max_index());
}

TEST(EncodingLadder, StrictSelectionsOfAlgorithm1) {
  const EncodingLadder ladder = EncodingLadder::netflix_2013();
  // max{Ri : Ri < x}: strictly below.
  EXPECT_EQ(ladder.highest_below(kbps(560)), 1u);   // 375
  EXPECT_EQ(ladder.highest_below(kbps(561)), 2u);   // 560
  EXPECT_EQ(ladder.highest_below(kbps(100)), 0u);   // none strictly below
  // min{Ri : Ri > x}: strictly above.
  EXPECT_EQ(ladder.lowest_above(kbps(560)), 3u);    // 750
  EXPECT_EQ(ladder.lowest_above(kbps(559)), 2u);    // 560
  EXPECT_EQ(ladder.lowest_above(kbps(99999)), ladder.max_index());
}

ChunkTable tiny_table() {
  // Two rates, three chunks each.
  return ChunkTable({{100.0, 200.0, 300.0}, {1000.0, 2000.0, 3000.0}}, 4.0);
}

TEST(ChunkTable, BasicAccessors) {
  const ChunkTable t = tiny_table();
  EXPECT_EQ(t.num_rates(), 2u);
  EXPECT_EQ(t.num_chunks(), 3u);
  EXPECT_DOUBLE_EQ(t.chunk_duration_s(), 4.0);
  EXPECT_DOUBLE_EQ(t.video_duration_s(), 12.0);
  EXPECT_DOUBLE_EQ(t.size_bits(1, 2), 3000.0);
}

TEST(ChunkTable, MeanAndMax) {
  const ChunkTable t = tiny_table();
  EXPECT_DOUBLE_EQ(t.mean_size_bits(0), 200.0);
  EXPECT_DOUBLE_EQ(t.max_size_bits(0), 300.0);
  EXPECT_DOUBLE_EQ(t.max_to_avg_ratio(0), 1.5);
}

TEST(ChunkTable, WindowQueriesTruncateAtEnd) {
  const ChunkTable t = tiny_table();
  EXPECT_DOUBLE_EQ(t.max_size_in_window_bits(0, 1, 100), 300.0);
  EXPECT_DOUBLE_EQ(t.sum_size_in_window_bits(0, 1, 100), 500.0);
  EXPECT_DOUBLE_EQ(t.sum_size_in_window_bits(0, 0, 2), 300.0);
  EXPECT_DOUBLE_EQ(t.max_size_in_window_bits(1, 2, 1), 3000.0);
}

ChunkTable irregular_table(std::size_t chunks) {
  // Sizes with non-terminating binary fractions so that any change to the
  // summation order would show up bitwise.
  util::Rng rng(7);
  std::vector<std::vector<double>> sizes(3);
  for (auto& row : sizes) {
    row.reserve(chunks);
    for (std::size_t k = 0; k < chunks; ++k) {
      row.push_back(1e5 + 9e5 * rng.uniform());
    }
  }
  return ChunkTable(std::move(sizes), 4.0);
}

// A ladder to pair with irregular_table's three rates.
EncodingLadder irregular_ladder() {
  return EncodingLadder({kbps(235), kbps(750), kbps(1750)});
}

// Every row of the title's decision table is bitwise what a decision
// would read without it: the reservoir column is the core::raw_reservoir_s
// scan, and each size column the chunk table's size.
void expect_rows_match_scan(const Video& video) {
  const ChunkTable& chunks = video.chunks();
  const EncodingLadder& ladder = video.ladder();
  const double V = video.chunk_duration_s();
  for (std::size_t window : {std::size_t{1}, std::size_t{7},
                             std::size_t{120}, std::size_t{500}}) {
    SCOPED_TRACE(testing::Message() << video.name() << " window " << window);
    const double lookahead_s = static_cast<double>(window) * V;
    ASSERT_EQ(core::reservoir_window_chunks(lookahead_s, V), window);
    const DecisionTable& t = video.decision_table(window);
    ASSERT_EQ(t.window_chunks, window);
    ASSERT_EQ(t.n_rates, ladder.size());
    ASSERT_EQ(t.szt.size(), chunks.num_chunks() * t.row_stride);
    for (std::size_t k = 0; k < chunks.num_chunks(); ++k) {
      const double* row = t.szt.data() + k * t.row_stride;
      // EXPECT_EQ on doubles is exact equality.
      EXPECT_EQ(row[0], core::raw_reservoir_s(chunks, ladder.min_index(),
                                              ladder.rmin_bps(), k,
                                              lookahead_s))
          << "k " << k;
      for (std::size_t r = 0; r < ladder.size(); ++r) {
        EXPECT_EQ(row[1 + r], chunks.size_bits(r, k))
            << "k " << k << " rate " << r;
      }
    }
  }
}

TEST(DecisionTable, RowsMatchReservoirScanAndSizesBitForBit) {
  const VideoLibrary library = VideoLibrary::standard(2014);
  for (std::size_t i = 0; i < library.size(); ++i) {
    expect_rows_match_scan(library.at(i));
  }
  expect_rows_match_scan(
      Video("irregular", irregular_ladder(), irregular_table(257)));
}

TEST(DecisionTable, CopiesShareValuesAndAddressesStayStable) {
  const Video original("irregular", irregular_ladder(), irregular_table(64));
  const Video early_copy = original;  // copied before any table exists
  bool built = false;
  const DecisionTable* first = &original.decision_table(16, &built);
  EXPECT_TRUE(built);
  const std::vector<double> rows = first->szt;

  // Building other windows leaves the first table where it was.
  original.decision_table(8);
  original.decision_table(500);
  EXPECT_EQ(&original.decision_table(16, &built), first);
  EXPECT_FALSE(built);
  EXPECT_EQ(first->szt, rows);

  const Video late_copy = original;
  EXPECT_EQ(late_copy.decision_table(16).szt, rows);
  EXPECT_EQ(early_copy.decision_table(16).szt, rows);
  EXPECT_EQ(early_copy.decision_table(8).szt,
            original.decision_table(8).szt);
  Video source = late_copy;
  const Video moved = std::move(source);
  EXPECT_EQ(moved.decision_table(16).szt, rows);
}

TEST(Vbr, ComplexityHasMeanOne) {
  util::Rng rng(1);
  const auto xs = generate_complexity(2000, VbrConfig{}, rng);
  double sum = 0.0;
  for (double x : xs) sum += x;
  EXPECT_NEAR(sum / static_cast<double>(xs.size()), 1.0, 1e-9);
}

TEST(Vbr, ComplexityRespectsClampApproximately) {
  util::Rng rng(2);
  VbrConfig cfg;
  const auto xs = generate_complexity(2000, cfg, rng);
  for (double x : xs) {
    EXPECT_GE(x, cfg.min_ratio * 0.9);
    EXPECT_LE(x, cfg.max_ratio * 1.1);
  }
}

TEST(Vbr, MaxToAvgRatioNearTwo) {
  util::Rng rng(3);
  const EncodingLadder ladder = EncodingLadder::netflix_2013();
  const auto table =
      make_vbr_table(ladder, generate_complexity(1500, VbrConfig{}, rng),
                     4.0);
  for (std::size_t r = 0; r < ladder.size(); ++r) {
    EXPECT_GT(table.max_to_avg_ratio(r), 1.5);
    EXPECT_LT(table.max_to_avg_ratio(r), 2.5);
  }
}

TEST(Vbr, NominalRateEqualsMeanChunkRate) {
  util::Rng rng(4);
  const EncodingLadder ladder = EncodingLadder::netflix_2013();
  const auto table =
      make_vbr_table(ladder, generate_complexity(1000, VbrConfig{}, rng),
                     4.0);
  for (std::size_t r = 0; r < ladder.size(); ++r) {
    EXPECT_NEAR(table.mean_size_bits(r) / 4.0, ladder.rate_bps(r),
                1e-6 * ladder.rate_bps(r));
  }
}

TEST(Vbr, ComplexitySharedAcrossLadder) {
  util::Rng rng(5);
  const EncodingLadder ladder = EncodingLadder::netflix_2013();
  const auto complexity = generate_complexity(100, VbrConfig{}, rng);
  const auto table = make_vbr_table(ladder, complexity, 4.0);
  // size(r, k) / nominal(r) must be identical for all rates.
  for (std::size_t k = 0; k < 100; ++k) {
    const double ref = table.size_bits(0, k) / (ladder.rate_bps(0) * 4.0);
    for (std::size_t r = 1; r < ladder.size(); ++r) {
      EXPECT_NEAR(table.size_bits(r, k) / (ladder.rate_bps(r) * 4.0), ref,
                  1e-12);
    }
  }
}

TEST(Vbr, CreditsProfileStartsNearMinimum) {
  util::Rng rng(6);
  VbrConfig cfg;
  const auto xs = generate_complexity_with_credits(1000, 50, cfg, rng);
  double credits_mean = 0.0;
  for (std::size_t k = 0; k < 50; ++k) credits_mean += xs[k];
  credits_mean /= 50.0;
  double rest_mean = 0.0;
  for (std::size_t k = 50; k < 1000; ++k) rest_mean += xs[k];
  rest_mean /= 950.0;
  EXPECT_LT(credits_mean, 0.5 * rest_mean);
}

TEST(Vbr, CbrTableIsExactlyNominal) {
  const EncodingLadder ladder = EncodingLadder::netflix_2013();
  const auto table = make_cbr_table(ladder, 10, 4.0);
  for (std::size_t r = 0; r < ladder.size(); ++r) {
    for (std::size_t k = 0; k < 10; ++k) {
      EXPECT_DOUBLE_EQ(table.size_bits(r, k), ladder.rate_bps(r) * 4.0);
    }
    EXPECT_DOUBLE_EQ(table.max_to_avg_ratio(r), 1.0);
  }
}

TEST(Vbr, DeterministicForSameSeed) {
  util::Rng a(9);
  util::Rng b(9);
  const auto xa = generate_complexity(500, VbrConfig{}, a);
  const auto xb = generate_complexity(500, VbrConfig{}, b);
  EXPECT_EQ(xa, xb);
}

TEST(Video, InvariantsAndAccessors) {
  const EncodingLadder ladder = EncodingLadder::netflix_2013();
  const Video v = make_cbr_video("t", ladder, 60, 4.0);
  EXPECT_EQ(v.name(), "t");
  EXPECT_EQ(v.num_chunks(), 60u);
  EXPECT_DOUBLE_EQ(v.duration_s(), 240.0);
  EXPECT_DOUBLE_EQ(v.chunk_duration_s(), 4.0);
  EXPECT_EQ(v.ladder().size(), v.chunks().num_rates());
}

TEST(VideoLibrary, StandardContentsAndDeterminism) {
  const VideoLibrary lib1 = VideoLibrary::standard(11);
  const VideoLibrary lib2 = VideoLibrary::standard(11);
  ASSERT_EQ(lib1.size(), lib2.size());
  ASSERT_GE(lib1.size(), 5u);
  for (std::size_t i = 0; i < lib1.size(); ++i) {
    EXPECT_EQ(lib1.at(i).name(), lib2.at(i).name());
    EXPECT_DOUBLE_EQ(lib1.at(i).chunks().size_bits(0, 0),
                     lib2.at(i).chunks().size_bits(0, 0));
  }
}

TEST(VideoLibrary, ActionBurstierThanDrama) {
  const VideoLibrary lib = VideoLibrary::standard(11);
  const Video* drama = nullptr;
  const Video* action = nullptr;
  for (std::size_t i = 0; i < lib.size(); ++i) {
    if (lib.at(i).name() == "drama-0") drama = &lib.at(i);
    if (lib.at(i).name() == "action-0") action = &lib.at(i);
  }
  ASSERT_NE(drama, nullptr);
  ASSERT_NE(action, nullptr);
  EXPECT_GT(action->chunks().max_to_avg_ratio(0),
            drama->chunks().max_to_avg_ratio(0));
}

TEST(VideoLibrary, PickReturnsMemberTitles) {
  const VideoLibrary lib = VideoLibrary::standard(11);
  util::Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    const Video& v = lib.pick(rng);
    bool found = false;
    for (std::size_t j = 0; j < lib.size(); ++j) {
      if (&lib.at(j) == &v) found = true;
    }
    EXPECT_TRUE(found);
  }
}

}  // namespace
}  // namespace bba::media
