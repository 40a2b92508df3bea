// Tests for chunk-table CSV I/O (replaying real encodings).
#include <gtest/gtest.h>
#include <sys/wait.h>

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

// A one-rate ladder leaves no rate to switch to: every ABR here asserts
// R_min < R_max.
constexpr const char* kOneRateTable =
    "chunk_duration_s,4\nrate_bps,250000\n0,1000000\n1,900000\n";
// Sorted rates whose mean chunk size at R_max is not above the one at
// R_min: BBA's chunk map needs Chunk_min < Chunk_max.
constexpr const char* kFlatTable =
    "chunk_duration_s,4\nrate_bps,250000,500000\n"
    "0,1000000,600000\n1,800000,1200000\n";

TEST(TableIo, RejectsOneRateTable) {
  const std::string path = testing::TempDir() + "/bba_table_one_rate.csv";
  write_lines(path, kOneRateTable);
  EXPECT_FALSE(read_chunk_table_csv(path, "x").has_value());
  std::remove(path.c_str());
}

TEST(TableIo, RejectsTopRateNoLargerThanBottom) {
  const std::string path = testing::TempDir() + "/bba_table_flat.csv";
  write_lines(path, kFlatTable);  // equal means
  EXPECT_FALSE(read_chunk_table_csv(path, "x").has_value());
  write_lines(path,
              "chunk_duration_s,4\nrate_bps,250000,500000\n"
              "0,1000000,600000\n1,800000,700000\n");  // smaller at R_max
  EXPECT_FALSE(read_chunk_table_csv(path, "x").has_value());
  std::remove(path.c_str());
}

// bba_session reports such a table and exits 1; the BBA family used to
// abort on it.
TEST(TableIo, SessionToolRejectsUnplayableTables) {
  const std::string path = testing::TempDir() + "/bba_table_cli.csv";
  for (const char* table : {kOneRateTable, kFlatTable}) {
    write_lines(path, table);
    for (const char* abr : {"bba0", "bba1", "bba2", "bba-others"}) {
      SCOPED_TRACE(testing::Message() << abr << " on " << table);
      const std::string cmd = std::string(BBA_SESSION_BIN) + " --video " +
                              path + " --abr " + abr + " 2>&1";
      std::FILE* p = popen(cmd.c_str(), "r");
      ASSERT_NE(p, nullptr);
      std::string log;
      char buf[4096];
      std::size_t n;
      while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) log.append(buf, n);
      const int rc = pclose(p);
      ASSERT_TRUE(WIFEXITED(rc)) << log;
      EXPECT_EQ(WEXITSTATUS(rc), 1) << log;
      EXPECT_NE(log.find("could not read video"), std::string::npos) << log;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bba::media
