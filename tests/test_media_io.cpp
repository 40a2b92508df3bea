// Tests for chunk-table CSV I/O (replaying real encodings).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "media/table_io.hpp"
#include "media/vbr.hpp"
#include "media/video.hpp"
#include "util/rng.hpp"

namespace bba::media {
namespace {

TEST(TableIo, RoundTripPreservesEverything) {
  util::Rng rng(7);
  const Video original = make_vbr_video(
      "rt", EncodingLadder::netflix_2013(), 120, 4.0, VbrConfig{}, rng);
  const std::string path = testing::TempDir() + "/bba_table_rt.csv";
  ASSERT_TRUE(write_chunk_table_csv(path, original));
  const auto back = read_chunk_table_csv(path, "rt-back");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->name(), "rt-back");
  ASSERT_EQ(back->ladder().size(), original.ladder().size());
  ASSERT_EQ(back->num_chunks(), original.num_chunks());
  EXPECT_DOUBLE_EQ(back->chunk_duration_s(), original.chunk_duration_s());
  for (std::size_t r = 0; r < original.ladder().size(); ++r) {
    EXPECT_DOUBLE_EQ(back->ladder().rate_bps(r),
                     original.ladder().rate_bps(r));
    for (std::size_t k = 0; k < original.num_chunks(); ++k) {
      EXPECT_NEAR(back->chunks().size_bits(r, k),
                  original.chunks().size_bits(r, k),
                  1e-6 * original.chunks().size_bits(r, k));
    }
  }
  std::remove(path.c_str());
}

TEST(TableIo, MissingFileFails) {
  EXPECT_FALSE(read_chunk_table_csv("/no/such/table.csv", "x").has_value());
}

void write_lines(const std::string& path, const char* content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(content, f);
  std::fclose(f);
}

TEST(TableIo, RejectsUnsortedLadder) {
  const std::string path = testing::TempDir() + "/bba_table_bad1.csv";
  write_lines(path,
              "chunk_duration_s,4\nrate_bps,500000,250000\n0,100,200\n");
  EXPECT_FALSE(read_chunk_table_csv(path, "x").has_value());
  std::remove(path.c_str());
}

TEST(TableIo, RejectsRaggedRows) {
  const std::string path = testing::TempDir() + "/bba_table_bad2.csv";
  write_lines(path,
              "chunk_duration_s,4\nrate_bps,250000,500000\n0,100\n");
  EXPECT_FALSE(read_chunk_table_csv(path, "x").has_value());
  std::remove(path.c_str());
}

TEST(TableIo, RejectsNonPositiveSizes) {
  const std::string path = testing::TempDir() + "/bba_table_bad3.csv";
  write_lines(path,
              "chunk_duration_s,4\nrate_bps,250000,500000\n0,100,0\n");
  EXPECT_FALSE(read_chunk_table_csv(path, "x").has_value());
  std::remove(path.c_str());
}

TEST(TableIo, RejectsBadHeader) {
  const std::string path = testing::TempDir() + "/bba_table_bad4.csv";
  write_lines(path, "wrong,4\nrate_bps,250000\n0,100\n");
  EXPECT_FALSE(read_chunk_table_csv(path, "x").has_value());
  std::remove(path.c_str());
}

TEST(TableIo, RejectsNonFiniteNumbersAndTrailingJunkInEveryColumn) {
  const std::string path = testing::TempDir() + "/bba_table_nonfinite.csv";
  // One table with a replaceable token in each numeric column: the chunk
  // duration, a ladder rate, and a chunk size.
  auto read_table = [&](const std::string& duration, const std::string& rate,
                        const std::string& size) {
    write_lines(path, ("chunk_duration_s," + duration +
                       "\nrate_bps,250000," + rate + "\n0,500000," + size +
                       "\n")
                          .c_str());
    return read_chunk_table_csv(path, "x").has_value();
  };
  EXPECT_TRUE(read_table("2", "500000", "1000000"));
  for (const char* bad : {"nan", "inf", "-inf", "5junk", "1e999"}) {
    EXPECT_FALSE(read_table(bad, "500000", "1000000")) << "duration " << bad;
    EXPECT_FALSE(read_table("2", bad, "1000000")) << "rate " << bad;
    EXPECT_FALSE(read_table("2", "500000", bad)) << "size " << bad;
  }
  std::remove(path.c_str());
}

TEST(TableIo, AcceptsMinimalValidTable) {
  const std::string path = testing::TempDir() + "/bba_table_min.csv";
  write_lines(path,
              "# a comment\nchunk_duration_s,2\n"
              "rate_bps,250000,500000\n0,500000,1000000\n1,400000,900000\n");
  const auto video = read_chunk_table_csv(path, "min");
  ASSERT_TRUE(video.has_value());
  EXPECT_EQ(video->num_chunks(), 2u);
  EXPECT_DOUBLE_EQ(video->chunk_duration_s(), 2.0);
  EXPECT_DOUBLE_EQ(video->chunks().size_bits(1, 1), 900000.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bba::media
