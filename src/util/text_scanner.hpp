// Strict reader for the repo's own machine-written text: the
// bba.timeline.v1 and bba.alerts.v1 artifacts and the JSONL session
// headers. The text twin of util::Cursor.
//
// The writers emit one fixed member order and no optional whitespace, so
// the reader expects exactly that: every token must sit where the caller
// asks for it, nothing is skipped, and numbers follow the one number rule
// (util::parse_u64 / util::parse_num over the token's extent). The first
// mismatch records a position-anchored diagnostic and every later call
// fails, so a run of reads needs one check at its end.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/csv.hpp"

namespace bba::util {

class TextScanner {
 public:
  explicit TextScanner(std::string_view text) : rest_(text) {}

  /// The exact bytes `s`.
  bool lit(std::string_view s) { return accept(s) || fail(s); }
  /// A run of decimal digits that util::parse_u64 accepts.
  bool u64(std::uint64_t* out) {
    const std::string_view t = token("0123456789");
    if (t.empty() || !parse_u64(t, out)) return fail("unsigned integer");
    rest_.remove_prefix(t.size());
    return true;
  }
  /// A number token that util::parse_num accepts (finite only).
  bool f64(double* out) {
    const std::string_view t = token("0123456789+-.eE");
    if (t.empty() || !parse_num(t, out)) return fail("number");
    rest_.remove_prefix(t.size());
    return true;
  }
  /// A double-quoted string. The writers' names carry no escapes or
  /// control bytes, so neither is accepted.
  bool quoted(std::string* out) {
    if (!lit("\"")) return false;
    std::size_t n = 0;
    while (n < rest_.size() && rest_[n] != '"') {
      const unsigned char c = static_cast<unsigned char>(rest_[n]);
      if (c < 0x20 || c == '\\') return fail("plain string character");
      ++n;
    }
    if (n == rest_.size()) return fail("closing quote");
    out->assign(rest_.substr(0, n));
    rest_.remove_prefix(n + 1);
    return true;
  }
  /// `true` or `false`.
  bool flag(bool* out) {
    if (accept("true")) {
      *out = true;
    } else if (accept("false")) {
      *out = false;
    } else {
      return fail("true or false");
    }
    return true;
  }
  /// Consumes `s` if the text continues with it; a miss is not an error.
  bool accept(std::string_view s) {
    if (!ok() || rest_.substr(0, s.size()) != s) return false;
    rest_.remove_prefix(s.size());
    return true;
  }

  /// Whether the next byte is `c` (consumes nothing).
  bool peek(char c) const { return ok() && !rest_.empty() && rest_[0] == c; }
  bool at_end() const { return rest_.empty(); }
  bool ok() const { return error_.empty(); }
  /// "expected 'X' near: <the next 24 bytes>", from the first failure.
  const std::string& error() const { return error_; }

 private:
  /// The longest prefix made of `chars` (not consumed).
  std::string_view token(const char* chars) const {
    if (!ok()) return {};
    std::size_t n = 0;
    while (n < rest_.size() && rest_[n] != '\0' &&
           std::strchr(chars, rest_[n]) != nullptr) {
      ++n;
    }
    return rest_.substr(0, n);
  }
  bool fail(std::string_view expected) {
    if (error_.empty()) {
      error_ = "expected '" + std::string(expected) + "' near: " +
               std::string(rest_.substr(0, std::min<std::size_t>(
                                               24, rest_.size())));
    }
    return false;
  }

  std::string_view rest_;
  std::string error_;
};

}  // namespace bba::util
