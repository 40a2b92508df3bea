// Little-endian binary I/O and the CRC'd container both binary file formats
// share: btrace session traces (obs/btrace.hpp) and bbackpt checkpoints
// (exp/checkpoint.hpp). Each format keeps its own schema and its own I/O
// (btrace seeks a FILE*, bbackpt parses from memory); the byte layout they
// have in common lives here once.
//
// Container layout (docs/file_formats.md), little-endian throughout:
//
//   [16-byte header]   8-byte file magic, u32 version, u32 reserved (0)
//   [record]*          u32 record magic, u32 payload length,
//                      u32 CRC32(payload), payload
//   [footer]           u32 footer magic, footer body (the format's index)
//   [20-byte trailer]  u32 CRC32(footer body), u64 footer body length,
//                      8-byte trailer magic
//
// The trailer is fixed-size and lands at EOF, so a reader finds the index
// with one seek. The read-side checks return nullptr on success or a short
// diagnostic that the format prefixes with its file name.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace bba::util {

inline constexpr std::size_t kContainerHeaderSize = 16;
inline constexpr std::size_t kRecordFramingSize = 12;
inline constexpr std::size_t kContainerTrailerSize = 20;
/// Header, footer magic and trailer: the smallest file with a footer.
inline constexpr std::size_t kContainerMinSize =
    kContainerHeaderSize + 4 + kContainerTrailerSize;

// --- Primitives -------------------------------------------------------------

inline void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out.append(b, 4);
}

inline void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out.append(b, 8);
}

/// Raw IEEE-754 bits: a restored double is the exact bit pattern.
inline void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// The longest LEB128 varint of a u64.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Writes `v` as a varint at `p`, which has room for kMaxVarintBytes, and
/// returns the end of what it wrote.
inline char* write_varint(char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(0x80 | (v & 0x7f));
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

inline void put_varint(std::string& out, std::uint64_t v) {
  char b[kMaxVarintBytes];
  out.append(b, static_cast<std::size_t>(write_varint(b, v) - b));
}

/// Varint length, then the bytes.
inline void put_string(std::string& out, std::string_view s) {
  put_varint(out, s.size());
  out += s;
}

/// Appends a run of values to `out` through a raw pointer into space
/// reserved once up front, instead of one std::string append per byte.
/// `max_bytes` must bound what is written (kMaxVarintBytes per varint, 8
/// per f64); finish() trims `out` to the bytes actually written.
class RawAppender {
 public:
  RawAppender(std::string& out, std::size_t max_bytes)
      : out_(out), base_(out.size()) {
    out.resize(base_ + max_bytes);
    p_ = out.data() + base_;
  }

  void varint(std::uint64_t v) { p_ = write_varint(p_, v); }
  void f64(double v) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) *p_++ = static_cast<char>(bits >> (8 * i));
  }
  void finish() { out_.resize(static_cast<std::size_t>(p_ - out_.data())); }
  /// Finishes with nothing appended.
  void discard() { out_.resize(base_); }

 private:
  std::string& out_;
  std::size_t base_;
  char* p_ = nullptr;
};

inline std::uint32_t load_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

inline std::uint64_t load_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// CRC32 (IEEE 802.3, the zlib polynomial).
std::uint32_t crc32(const void* data, std::size_t n);

/// Bounds-checked reader over [p, end). A read past `end` or a malformed
/// varint sets `fail` and returns zero/empty, so a run of reads needs one
/// check at its end.
struct Cursor {
  const unsigned char* p = nullptr;
  const unsigned char* end = nullptr;
  bool fail = false;

  bool need(std::size_t n) {
    if (static_cast<std::size_t>(end - p) < n) {
      fail = true;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!need(1)) return 0;
    return *p++;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    const std::uint32_t v = load_u32(p);
    p += 4;
    return v;
  }
  double f64() {
    if (!need(8)) return 0.0;
    const std::uint64_t v = load_u64(p);
    p += 8;
    return std::bit_cast<double>(v);
  }
  /// Fails on truncation, on more than ten bytes, and on a tenth byte
  /// carrying bits past 2^64.
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64 && p != end; shift += 7) {
      const unsigned char c = *p++;
      v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
      if ((c & 0x80) == 0) {
        if (shift == 63 && c > 1) break;
        return v;
      }
    }
    fail = true;
    return 0;
  }
  /// A put_string value, viewed in place.
  bool view(std::string_view* out) {
    const std::uint64_t n = varint();
    if (fail || !need(static_cast<std::size_t>(n))) return false;
    *out = std::string_view(reinterpret_cast<const char*>(p),
                            static_cast<std::size_t>(n));
    p += n;
    return true;
  }
  bool str(std::string* out) {
    std::string_view v;
    if (!view(&v)) return false;
    out->assign(v);
    return true;
  }
};

// --- Container writing ------------------------------------------------------

void put_header(std::string& out, const char (&magic)[8],
                std::uint32_t version);
/// One framed record; the payload must fit the u32 length field.
void put_record(std::string& out, std::uint32_t magic,
                std::string_view payload);
/// Footer magic, footer body, trailer.
void put_footer(std::string& out, std::uint32_t magic, std::string_view body,
                const char (&trailer_magic)[8]);

// --- Container reading ------------------------------------------------------

/// Checks the kContainerHeaderSize bytes at `p`.
const char* check_header(const unsigned char* p, const char (&magic)[8],
                         std::uint32_t version);

/// Where the footer body sits in the file, read from the trailer.
struct FooterSpan {
  std::uint64_t begin = 0;  ///< file offset of the body (after its magic)
  std::uint64_t length = 0;
  std::uint32_t crc = 0;
  /// End of the record region: the footer magic's offset.
  std::uint64_t records_end() const { return begin - 4; }
};

/// Reads the kContainerTrailerSize bytes at `trailer`, the end of a
/// `file_size`-byte file (file_size >= kContainerMinSize).
const char* locate_footer(const unsigned char* trailer,
                          std::uint64_t file_size,
                          const char (&trailer_magic)[8], FooterSpan* out);

/// Checks the footer magic and body CRC; `p` points at the footer magic.
const char* check_footer(const unsigned char* p, std::uint32_t magic,
                         const FooterSpan& span);

/// True when an index entry's record [offset, offset + length) holds at
/// least a framing and lies between the header and `records_end`. No sum
/// is formed, so a crafted offset or length cannot wrap past the check.
bool record_in_bounds(std::uint64_t offset, std::uint64_t length,
                      std::uint64_t records_end);

/// Checks one whole record held in memory (framing included): its magic,
/// that its length field matches `record.size()`, and its payload CRC. On
/// success *payload covers the payload.
const char* check_record(std::string_view record, std::uint32_t magic,
                         Cursor* payload);

/// Reads a whole file. The error names the path.
bool read_file(const std::string& path, std::string* out, std::string* error);

}  // namespace bba::util
