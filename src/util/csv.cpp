#include "util/csv.hpp"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace bba::util {

bool parse_num(std::string_view text, double* out) {
  // strtod alone would also take leading whitespace, a '+', hex and the
  // inf/nan spellings; the character set keeps the token to what the
  // library's writers print.
  if (text.empty()) return false;
  if (!std::isdigit(static_cast<unsigned char>(text[0])) && text[0] != '-' &&
      text[0] != '.') {
    return false;
  }
  for (const char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c)) &&
        std::strchr("+-.eE", c) == nullptr) {
      return false;
    }
  }
  const std::string buf(text);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool parse_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

std::uint64_t parse_u64_or_exit(const char* source, const char* text) {
  std::uint64_t v = 0;
  if (!parse_u64(text, &v)) {
    std::fprintf(stderr, "%s: expects an unsigned integer, got '%s'\n",
                 source, text);
    std::exit(2);
  }
  return v;
}

const char* flag_value_or_exit(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "%s needs a value\n", argv[i]);
    std::exit(2);
  }
  return argv[++i];
}

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

CsvRow parse_csv_line(const std::string& line) {
  CsvRow fields;
  std::string::size_type start = 0;
  while (true) {
    const auto comma = line.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(trim(line.substr(start)));
      break;
    }
    fields.push_back(trim(line.substr(start, comma - start)));
    start = comma + 1;
  }
  return fields;
}

bool read_csv(const std::string& path, std::vector<CsvRow>& rows,
              bool expect_header, CsvRow* header) {
  std::ifstream in(path);
  if (!in) return false;
  rows.clear();
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    const std::string trimmed = trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    CsvRow fields = parse_csv_line(trimmed);
    if (expect_header && !saw_header) {
      saw_header = true;
      if (header != nullptr) *header = std::move(fields);
      continue;
    }
    rows.push_back(std::move(fields));
  }
  return true;
}

CsvWriter::CsvWriter(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {}

CsvWriter::~CsvWriter() { close(); }

void CsvWriter::comment(const std::string& text) {
  if (file_ == nullptr) return;
  failed_ |= std::fprintf(file_, "# %s\n", text.c_str()) < 0;
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  if (file_ == nullptr) return;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    failed_ |=
        std::fprintf(file_, "%s%s", i > 0 ? "," : "", fields[i].c_str()) < 0;
  }
  failed_ |= std::fputc('\n', file_) == EOF;
}

void CsvWriter::row(const std::vector<double>& fields) {
  if (file_ == nullptr) return;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    failed_ |= std::fprintf(file_, "%s%.10g", i > 0 ? "," : "", fields[i]) < 0;
  }
  failed_ |= std::fputc('\n', file_) == EOF;
}

bool CsvWriter::close() {
  if (file_ == nullptr) return false;
  failed_ |= std::fclose(file_) != 0;
  file_ = nullptr;
  return !failed_;
}

}  // namespace bba::util
