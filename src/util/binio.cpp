#include "util/binio.hpp"

#include <array>
#include <cstdio>
#include <cstring>

#include "util/assert.hpp"

namespace bba::util {

namespace {

// Slicing-by-8: table k maps a byte to its CRC contribution k bytes
// further along the stream, so eight bytes fold with eight independent
// lookups per step instead of a dependent chain of eight. Table 0 is the
// classic bytewise table; the two agree on every input.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  const CrcTables& t = kCrcTables;
  std::uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    c = t[7][(c ^ p[0]) & 0xFFu] ^ t[6][((c >> 8) ^ p[1]) & 0xFFu] ^
        t[5][((c >> 16) ^ p[2]) & 0xFFu] ^ t[4][(c >> 24) ^ p[3]] ^
        t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void put_header(std::string& out, const char (&magic)[8],
                std::uint32_t version) {
  out.append(magic, 8);
  put_u32(out, version);
  put_u32(out, 0);  // reserved
}

void put_record(std::string& out, std::uint32_t magic,
                std::string_view payload) {
  BBA_ASSERT(payload.size() <= 0xFFFFFFFFu, "record payload exceeds 4 GiB");
  put_u32(out, magic);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload.data(), payload.size()));
  out += payload;
}

void put_footer(std::string& out, std::uint32_t magic, std::string_view body,
                const char (&trailer_magic)[8]) {
  put_u32(out, magic);
  out += body;
  put_u32(out, crc32(body.data(), body.size()));
  put_u64(out, body.size());
  out.append(trailer_magic, 8);
}

const char* check_header(const unsigned char* p, const char (&magic)[8],
                         std::uint32_t version) {
  if (std::memcmp(p, magic, 8) != 0) return "bad magic";
  if (load_u32(p + 8) != version) return "unsupported version";
  return nullptr;
}

const char* locate_footer(const unsigned char* trailer,
                          std::uint64_t file_size,
                          const char (&trailer_magic)[8], FooterSpan* out) {
  if (std::memcmp(trailer + 12, trailer_magic, 8) != 0) {
    return "missing footer index (truncated file?)";
  }
  out->crc = load_u32(trailer);
  out->length = load_u64(trailer + 4);
  if (out->length > file_size - kContainerMinSize) {
    return "corrupt footer (length out of range)";
  }
  out->begin = file_size - kContainerTrailerSize - out->length;
  return nullptr;
}

const char* check_footer(const unsigned char* p, std::uint32_t magic,
                         const FooterSpan& span) {
  if (load_u32(p) != magic) return "corrupt footer (bad magic)";
  if (crc32(p + 4, static_cast<std::size_t>(span.length)) != span.crc) {
    return "corrupt footer (CRC mismatch)";
  }
  return nullptr;
}

bool record_in_bounds(std::uint64_t offset, std::uint64_t length,
                      std::uint64_t records_end) {
  return offset >= kContainerHeaderSize && length >= kRecordFramingSize &&
         offset <= records_end && length <= records_end - offset;
}

const char* check_record(std::string_view record, std::uint32_t magic,
                         Cursor* payload) {
  const auto* p = reinterpret_cast<const unsigned char*>(record.data());
  if (record.size() < kRecordFramingSize || load_u32(p) != magic) {
    return "bad magic";
  }
  const std::uint32_t length = load_u32(p + 4);
  if (length != record.size() - kRecordFramingSize) return "length mismatch";
  if (crc32(p + kRecordFramingSize, length) != load_u32(p + 8)) {
    return "CRC mismatch";
  }
  *payload = Cursor{p + kRecordFramingSize, p + record.size()};
  return nullptr;
}

bool read_file(const std::string& path, std::string* out,
               std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    *error = path + ": cannot open";
    return false;
  }
  out->clear();
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, got);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) *error = path + ": read error";
  return ok;
}

}  // namespace bba::util
