// Bound checks for the CLI tools' numeric flags.
//
// Every numeric token goes through the library's one number rule,
// util::parse_u64 / util::parse_num (util/csv.hpp): the whole token or a
// failure, never a silent 0 for "pony" or a wrapped "-5". These helpers
// add the flags' bounds, and the callers print a one-line error naming the
// flag.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/csv.hpp"

namespace bba::tools {

/// Count that must be >= 1 (e.g. --sessions, --days, --batch-sessions).
inline bool parse_count(const char* s, std::size_t* out) {
  std::uint64_t v = 0;
  if (!util::parse_u64(s, &v) || v == 0) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

/// Count that may be 0 (e.g. --threads, where 0 = hardware concurrency).
inline bool parse_count0(const char* s, std::size_t* out) {
  std::uint64_t v = 0;
  if (!util::parse_u64(s, &v)) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

/// Double strictly inside (0, 1) (e.g. --confidence).
inline bool parse_unit_open(const char* s, double* out) {
  double v = 0.0;
  if (!util::parse_num(s, &v) || !(v > 0.0 && v < 1.0)) return false;
  *out = v;
  return true;
}

/// Grid coordinates "DAY,WINDOW,SESSION", each an unsigned integer. With
/// `rest` non-null a fourth ",TEXT" field is allowed and returned there
/// (empty when absent).
inline bool parse_coords(std::string_view s, std::uint64_t out[3],
                         std::string* rest = nullptr) {
  for (int i = 0; i < 3; ++i) {
    const std::size_t comma = s.find(',');
    if (i < 2 && comma == std::string_view::npos) return false;
    if (!util::parse_u64(s.substr(0, comma), &out[i])) return false;
    s = comma == std::string_view::npos ? std::string_view()
                                        : s.substr(comma + 1);
    if (i == 2 && comma != std::string_view::npos) {
      if (rest == nullptr || s.empty()) return false;
      rest->assign(s);
    }
  }
  if (rest != nullptr && s.empty()) rest->clear();
  return true;
}

}  // namespace bba::tools
