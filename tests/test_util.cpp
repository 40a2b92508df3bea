// Tests for bba::util: deterministic RNG, CSV, table formatting, units,
// binary I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/binio.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace bba::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(0, 5);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all six values appear in 1000 draws
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.uniform_int(7, 7), 7);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(5);
  constexpr int kN = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.02);
}

TEST(Rng, NormalScalesMeanAndSigma) {
  Rng rng(5);
  constexpr int kN = 100000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / kN, 10.0, 0.05);
}

TEST(Rng, SkipNormalLeavesTheStateNormalLeaves) {
  // Interleaved with uniforms as a trace's dwells are, from a fresh
  // generator and from one holding a spare: every later draw -- uniform,
  // normal, and the spare a skip left uncomputed -- equals the draws after
  // the same sequence with normal().
  for (const bool spare_first : {false, true}) {
    for (int skips = 0; skips <= 5; ++skips) {
      Rng drawn(17), skipped(17);
      if (spare_first) {
        drawn.normal();
        skipped.normal();
      }
      for (int i = 0; i < skips; ++i) {
        EXPECT_EQ(drawn.exponential(3.0), skipped.exponential(3.0));
        drawn.normal();
        skipped.skip_normal();
      }
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(drawn.normal(), skipped.normal()) << skips << " " << i;
        EXPECT_EQ(drawn.uniform(), skipped.uniform()) << skips << " " << i;
      }
    }
  }
}

TEST(Rng, LognormalMedianIsExpMu) {
  Rng rng(9);
  constexpr int kN = 50001;
  std::vector<double> xs(kN);
  for (auto& x : xs) x = rng.lognormal(std::log(4.0), 0.8);
  std::nth_element(xs.begin(), xs.begin() + kN / 2, xs.end());
  EXPECT_NEAR(xs[kN / 2], 4.0, 0.15);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(13);
  constexpr int kN = 100000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.1);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(17);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(19);
  std::vector<double> weights{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / kN, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / kN, 0.75, 0.02);
}

TEST(Rng, ForkIsDeterministic) {
  Rng parent(123);
  Rng c1 = parent.fork(7);
  Rng c2 = Rng(123).fork(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(c1.next_u64(), c2.next_u64());
  }
}

TEST(Rng, ForkStreamsAreIndependent) {
  Rng parent(123);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1.next_u64() == c2.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkDoesNotPerturbParent) {
  Rng a(55);
  Rng b(55);
  (void)a.fork(3);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Csv, ParseSimpleLine) {
  const CsvRow row = parse_csv_line("a, b ,c");
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], "a");
  EXPECT_EQ(row[1], "b");
  EXPECT_EQ(row[2], "c");
}

TEST(Csv, ParseEmptyFields) {
  const CsvRow row = parse_csv_line(",x,");
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], "");
  EXPECT_EQ(row[1], "x");
  EXPECT_EQ(row[2], "");
}

TEST(Csv, RoundTripThroughFile) {
  const std::string path = testing::TempDir() + "/bba_csv_test.csv";
  {
    CsvWriter out(path);
    ASSERT_TRUE(out.ok());
    out.comment("a comment");
    out.row(std::vector<std::string>{"h1", "h2"});
    out.row(std::vector<double>{1.5, 2.25});
    out.row(std::vector<double>{-3.0, 1e6});
  }
  std::vector<CsvRow> rows;
  CsvRow header;
  ASSERT_TRUE(read_csv(path, rows, /*expect_header=*/true, &header));
  ASSERT_EQ(header.size(), 2u);
  EXPECT_EQ(header[0], "h1");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(std::stod(rows[0][0]), 1.5);
  EXPECT_DOUBLE_EQ(std::stod(rows[1][1]), 1e6);
  std::remove(path.c_str());
}

TEST(Csv, ParseNumTakesWholeFiniteTokensOnly) {
  double v = -1.0;
  EXPECT_TRUE(parse_num("5", &v));
  EXPECT_EQ(v, 5.0);
  EXPECT_TRUE(parse_num("-2.5e3", &v));
  EXPECT_EQ(v, -2500.0);
  for (const char* bad : {"", "nan", "NaN", "inf", "-inf", "infinity",
                          "1e999", "5junk", "5 ", "abc", "0x"}) {
    v = 7.0;
    EXPECT_FALSE(parse_num(bad, &v)) << '"' << bad << '"';
    EXPECT_EQ(v, 7.0) << "a rejected token must not write: " << bad;
  }
}

TEST(Csv, MissingFileReturnsFalse) {
  std::vector<CsvRow> rows;
  EXPECT_FALSE(read_csv("/nonexistent/definitely/missing.csv", rows));
}

TEST(Csv, SkipsCommentsAndBlankLines) {
  const std::string path = testing::TempDir() + "/bba_csv_comments.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# comment\n\n1,2\n  \n# another\n3,4\n", f);
    std::fclose(f);
  }
  std::vector<CsvRow> rows;
  ASSERT_TRUE(read_csv(path, rows));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "4");
  std::remove(path.c_str());
}

TEST(Table, AlignsColumnsAndCountsRows) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  EXPECT_EQ(t.row_count(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  // Header and separator and two rows -> four lines.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_NE(t.to_string().find("only"), std::string::npos);
}

TEST(Format, PrintfStyle) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(fmt_double(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(kbps(235), 235e3);
  EXPECT_DOUBLE_EQ(mbps(3), 3e6);
  EXPECT_DOUBLE_EQ(to_kbps(5e6), 5000.0);
  EXPECT_DOUBLE_EQ(to_mbps(5e6), 5.0);
  EXPECT_DOUBLE_EQ(bits_to_megabytes(8e6), 1.0);
  EXPECT_DOUBLE_EQ(minutes(2), 120.0);
  EXPECT_DOUBLE_EQ(hours(1), 3600.0);
  EXPECT_DOUBLE_EQ(to_hours(1800), 0.5);
}

// --- Binary I/O and the container framing ----------------------------------

Cursor cursor_over(const std::string& bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  return Cursor{p, p + bytes.size()};
}

TEST(Binio, Crc32CheckValue) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

/// The textbook bit-at-a-time CRC32, the reference the sliced one must
/// reproduce.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.next_u64());
  }
  return bytes;
}

TEST(Binio, Crc32MatchesReferenceAtEveryLengthAndOffset) {
  // Every tail length and every start offset against the 16-byte stride.
  const std::vector<unsigned char> bytes = random_bytes(64 + 16, 2014);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t n = 0; n <= 64; ++n) {
      EXPECT_EQ(crc32(bytes.data() + offset, n),
                crc32_bitwise(bytes.data() + offset, n))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Binio, Crc32MatchesReferenceOnAMebibyte) {
  const std::vector<unsigned char> bytes = random_bytes(1 << 20, 1729);
  EXPECT_EQ(crc32(bytes.data(), bytes.size()),
            crc32_bitwise(bytes.data(), bytes.size()));
}

TEST(Binio, VarintRoundTripsAtTheEdges) {
  const std::uint64_t values[] = {0, 127, 128, std::uint64_t{1} << 63,
                                  ~std::uint64_t{0}};
  const std::size_t lengths[] = {1, 1, 2, 10, 10};
  for (std::size_t i = 0; i < 5; ++i) {
    std::string bytes;
    put_varint(bytes, values[i]);
    EXPECT_EQ(bytes.size(), lengths[i]) << values[i];
    Cursor c = cursor_over(bytes);
    EXPECT_EQ(c.varint(), values[i]);
    EXPECT_FALSE(c.fail);
    EXPECT_EQ(c.p, c.end);
  }
}

TEST(Binio, CursorFailsCleanlyOnTruncatedAndOverlongVarints) {
  std::string truncated;
  put_varint(truncated, 300);
  truncated.pop_back();  // the first byte still promises a continuation
  Cursor t = cursor_over(truncated);
  EXPECT_EQ(t.varint(), 0u);
  EXPECT_TRUE(t.fail);

  // Eleven continuation bytes: longer than any 64-bit value.
  const std::string overlong(11, '\x80');
  Cursor o = cursor_over(overlong);
  EXPECT_EQ(o.varint(), 0u);
  EXPECT_TRUE(o.fail);

  // Ten bytes whose last one carries bits past 2^64.
  std::string wide(9, '\xff');
  wide += '\x02';
  Cursor w = cursor_over(wide);
  EXPECT_EQ(w.varint(), 0u);
  EXPECT_TRUE(w.fail);

  // A string whose length runs past the end, and reads past the end.
  std::string short_str;
  put_varint(short_str, 5);
  short_str += "abc";
  Cursor s = cursor_over(short_str);
  std::string out;
  EXPECT_FALSE(s.str(&out));
  EXPECT_TRUE(s.fail);
  EXPECT_EQ(s.u32(), 0u);
  EXPECT_EQ(s.f64(), 0.0);
}

TEST(Binio, ContainerFramingRoundTripAndBounds) {
  static constexpr char kMagic[8] = {'T', 'E', 'S', 'T', 'F', 'I', 'L', 'E'};
  static constexpr char kTrailer[8] = {'T', 'E', 'S', 'T', 'I', 'D', 'X', '0'};
  constexpr std::uint32_t kRecord = 0x31434552;
  constexpr std::uint32_t kFooter = 0x58444946;
  std::string file;
  put_header(file, kMagic, 3);
  const std::uint64_t offset = file.size();
  put_record(file, kRecord, "payload");
  const std::uint64_t length = file.size() - offset;
  put_footer(file, kFooter, "index", kTrailer);

  const auto* base = reinterpret_cast<const unsigned char*>(file.data());
  EXPECT_EQ(check_header(base, kMagic, 3), nullptr);
  EXPECT_STREQ(check_header(base, kMagic, 4), "unsupported version");
  FooterSpan span;
  ASSERT_EQ(locate_footer(base + file.size() - kContainerTrailerSize,
                          file.size(), kTrailer, &span),
            nullptr);
  EXPECT_EQ(span.length, 5u);
  EXPECT_EQ(span.records_end(), offset + length);
  EXPECT_EQ(check_footer(base + span.records_end(), kFooter, span), nullptr);

  ASSERT_TRUE(record_in_bounds(offset, length, span.records_end()));
  const std::string_view record =
      std::string_view(file).substr(offset, length);
  Cursor c;
  ASSERT_EQ(check_record(record, kRecord, &c), nullptr);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(c.p),
                        static_cast<std::size_t>(c.end - c.p)),
            "payload");
  EXPECT_STREQ(check_record(record, kFooter, &c), "bad magic");
  EXPECT_STREQ(check_record(record.substr(0, length - 1), kRecord, &c),
               "length mismatch");

  // Index entries whose end would wrap past 2^64 are out of bounds.
  EXPECT_FALSE(record_in_bounds(offset, ~std::uint64_t{0} - 7,
                                span.records_end()));
  EXPECT_FALSE(record_in_bounds(~std::uint64_t{0} - 4095, length,
                                span.records_end()));

  std::string flipped = file;
  flipped[offset + kRecordFramingSize] ^= 0x01;
  EXPECT_STREQ(check_record(std::string_view(flipped).substr(offset, length),
                            kRecord, &c),
               "CRC mismatch");
}

}  // namespace
}  // namespace bba::util
