// Minimal CSV reading/writing for trace files and per-chunk logs.
//
// The dialect is deliberately simple (no quoting): fields are numbers or
// plain identifiers, separated by commas; '#'-prefixed lines are comments.
// That is all the library's file formats need, and it keeps round-tripping
// exact.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace bba::util {

/// One parsed CSV row: raw string fields.
using CsvRow = std::vector<std::string>;

/// Parses one whole token as a finite number: the entire text must be a
/// strtod number ("5junk", "", "nan", "inf" and out-of-range values such as
/// "1e999" are rejected). Writes *out only on success. The one number rule
/// of every text reader in the library (trace CSV, chunk-table CSV, fault
/// specs).
bool parse_num(std::string_view text, double* out);

/// Parses a single CSV line into fields. No quoting; leading/trailing
/// whitespace of each field is trimmed.
CsvRow parse_csv_line(const std::string& line);

/// Reads all data rows of a CSV file. Skips blank lines and lines starting
/// with '#'. If `expect_header` is true the first data line is treated as a
/// header and returned through `header` (which may be null to discard it).
/// Returns false if the file cannot be opened.
bool read_csv(const std::string& path, std::vector<CsvRow>& rows,
              bool expect_header = false, CsvRow* header = nullptr);

/// Incremental CSV writer.
class CsvWriter {
 public:
  /// Opens `path` for writing (truncates). Check `ok()` before use.
  explicit CsvWriter(const std::string& path);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  bool ok() const { return file_ != nullptr; }

  /// Writes a '#'-prefixed comment line.
  void comment(const std::string& text);

  /// Writes a row of string fields.
  void row(const std::vector<std::string>& fields);

  /// Writes a row of numeric fields with '%.10g' formatting.
  void row(const std::vector<double>& fields);

 private:
  std::FILE* file_;
};

}  // namespace bba::util
