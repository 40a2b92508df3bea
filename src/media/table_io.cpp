#include "media/table_io.hpp"

#include "util/csv.hpp"
#include "util/table.hpp"

namespace bba::media {

bool write_chunk_table_csv(const std::string& path, const Video& video) {
  util::CsvWriter out(path);
  if (!out.ok()) return false;
  out.comment(util::format("bba chunk table: chunk_duration_s=%g",
                           video.chunk_duration_s()));
  std::vector<std::string> header{"chunk_duration_s",
                                  util::format("%.10g",
                                               video.chunk_duration_s())};
  out.row(header);
  std::vector<std::string> ladder_row{"rate_bps"};
  for (std::size_t r = 0; r < video.ladder().size(); ++r) {
    ladder_row.push_back(util::format("%.10g", video.ladder().rate_bps(r)));
  }
  out.row(ladder_row);
  for (std::size_t k = 0; k < video.num_chunks(); ++k) {
    std::vector<std::string> row{util::format("%zu", k)};
    for (std::size_t r = 0; r < video.ladder().size(); ++r) {
      row.push_back(util::format("%.10g", video.chunks().size_bits(r, k)));
    }
    out.row(row);
  }
  return true;
}

std::optional<Video> read_chunk_table_csv(const std::string& path,
                                          std::string name) {
  std::vector<util::CsvRow> rows;
  if (!util::read_csv(path, rows) || rows.size() < 3) return std::nullopt;

  // Row 0: chunk_duration_s,<V>.
  if (rows[0].size() != 2 || rows[0][0] != "chunk_duration_s") {
    return std::nullopt;
  }
  double chunk_duration_s = 0.0;
  if (!util::parse_num(rows[0][1], &chunk_duration_s) ||
      chunk_duration_s <= 0.0) {
    return std::nullopt;
  }

  // Row 1: rate_bps,<r0>,<r1>,...
  if (rows[1].size() < 2 || rows[1][0] != "rate_bps") return std::nullopt;
  std::vector<double> rates;
  for (std::size_t i = 1; i < rows[1].size(); ++i) {
    double rate = 0.0;
    if (!util::parse_num(rows[1][i], &rate) || rate <= 0.0) {
      return std::nullopt;
    }
    if (!rates.empty() && rate <= rates.back()) return std::nullopt;
    rates.push_back(rate);
  }

  // Remaining rows: chunk index + one size per rate.
  const std::size_t num_chunks = rows.size() - 2;
  std::vector<std::vector<double>> sizes(rates.size(),
                                         std::vector<double>(num_chunks));
  for (std::size_t k = 0; k < num_chunks; ++k) {
    const util::CsvRow& row = rows[k + 2];
    if (row.size() != rates.size() + 1) return std::nullopt;
    for (std::size_t r = 0; r < rates.size(); ++r) {
      double bits = 0.0;
      if (!util::parse_num(row[r + 1], &bits) || bits <= 0.0) {
        return std::nullopt;
      }
      sizes[r][k] = bits;
    }
  }
  // Every decision needs a ladder to choose from, and BBA's chunk map
  // needs Chunk_max above Chunk_min.
  if (rates.size() < 2) return std::nullopt;
  ChunkTable chunks(std::move(sizes), chunk_duration_s);
  if (chunks.mean_size_bits(rates.size() - 1) <= chunks.mean_size_bits(0)) {
    return std::nullopt;
  }
  return Video(std::move(name), EncodingLadder(rates), std::move(chunks));
}

}  // namespace bba::media
