#include "util/csv.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace bba::util {

bool parse_num(std::string_view text, double* out) {
  if (text.empty()) return false;
  const std::string buf(text);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
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

CsvWriter::~CsvWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void CsvWriter::comment(const std::string& text) {
  if (file_ == nullptr) return;
  std::fprintf(file_, "# %s\n", text.c_str());
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  if (file_ == nullptr) return;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    std::fprintf(file_, "%s%s", i > 0 ? "," : "", fields[i].c_str());
  }
  std::fprintf(file_, "\n");
}

void CsvWriter::row(const std::vector<double>& fields) {
  if (file_ == nullptr) return;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    std::fprintf(file_, "%s%.10g", i > 0 ? "," : "", fields[i]);
  }
  std::fprintf(file_, "\n");
}

}  // namespace bba::util
