// Minimal CSV reading/writing for trace files and per-chunk logs.
//
// The dialect is deliberately simple (no quoting): fields are numbers or
// plain identifiers, separated by commas; '#'-prefixed lines are comments.
// That is all the library's file formats need, and it keeps round-tripping
// exact.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace bba::util {

/// One parsed CSV row: raw string fields.
using CsvRow = std::vector<std::string>;

// The one number rule: every numeric token the library reads from outside
// the program (trace CSV, chunk-table CSV, fault and alert specs, CLI flags,
// the bba.timeline.v1 / bba.alerts.v1 / JSONL readers) goes through
// parse_num or parse_u64. Both take the whole token or nothing: no
// whitespace, no trailing garbage, and *out is written only on success.

/// Parses one whole token as a finite decimal number: an optional '-',
/// then digits, '.', and an exponent. "5junk", "", " 5", "+5", hex, "nan",
/// "inf" and out-of-range values such as "1e999" are rejected.
bool parse_num(std::string_view text, double* out);

/// Parses one whole token as an unsigned 64-bit integer: decimal digits
/// only (no sign, no whitespace), and a value above 2^64 - 1 is rejected
/// rather than clamped.
bool parse_u64(std::string_view text, std::uint64_t* out);

/// parse_u64 for a flag's value, the flag named by `source`. A malformed
/// value is a usage error: one line on stderr, then exit 2.
std::uint64_t parse_u64_or_exit(const char* source, const char* text);

/// The value of the flag argv[i], with `i` advanced over it. A flag given
/// last, with no value, is a usage error: one line on stderr, then exit 2.
const char* flag_value_or_exit(int argc, char** argv, int& i);

/// Parses a single CSV line into fields. No quoting; leading/trailing
/// whitespace of each field is trimmed.
CsvRow parse_csv_line(const std::string& line);

/// Reads all data rows of a CSV file. Skips blank lines and lines starting
/// with '#'. If `expect_header` is true the first data line is treated as a
/// header and returned through `header` (which may be null to discard it).
/// Returns false if the file cannot be opened.
bool read_csv(const std::string& path, std::vector<CsvRow>& rows,
              bool expect_header = false, CsvRow* header = nullptr);

/// Incremental CSV writer. A failed write is recorded, not reported per
/// call: close() says whether every byte landed.
class CsvWriter {
 public:
  /// Opens `path` for writing (truncates). Check `ok()` before use.
  explicit CsvWriter(const std::string& path);
  ~CsvWriter();

  CsvWriter(const CsvWriter&) = delete;
  CsvWriter& operator=(const CsvWriter&) = delete;

  /// False when the file did not open or a write has failed.
  bool ok() const { return file_ != nullptr && !failed_; }

  /// Writes a '#'-prefixed comment line.
  void comment(const std::string& text);

  /// Writes a row of string fields.
  void row(const std::vector<std::string>& fields);

  /// Writes a row of numeric fields with '%.10g' formatting.
  void row(const std::vector<double>& fields);

  /// Closes the file. False when it never opened, a write failed, or the
  /// close itself failed (a full disk often shows only here).
  bool close();

 private:
  std::FILE* file_;
  bool failed_ = false;
};

}  // namespace bba::util
