#include "obs/btrace.hpp"

#include <cstring>

#include "net/fault_inject.hpp"
#include "obs/trace_jsonl.hpp"
#include "util/assert.hpp"

namespace bba::obs {

namespace {

using util::Cursor;
using util::put_f64;
using util::put_string;
using util::put_varint;

/// Zigzag maps a wrapped (mod 2^64) delta to an unsigned varint-friendly
/// value: small positive and small negative deltas both encode short. The
/// pair is a bijection on u64, so *any* delta round-trips -- there is no
/// overflow case to special-case.
std::uint64_t zz(std::uint64_t d) { return (d << 1) ^ (0 - (d >> 63)); }
std::uint64_t unzz(std::uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }

// --- Column codecs --------------------------------------------------------
// A "num column" is a sequence of jsonl::Num values. Fast-path values store
// their microsecond integer as zigzag varints of order-1 deltas (or
// delta-of-deltas for monotone time columns, where consecutive deltas are
// near-equal and the second difference is near zero); the rare %.10g
// escapes are listed up front as (index, raw f64) pairs and skipped by the
// delta chain, so one outlier cannot blow up its neighbours' deltas.
//
// Encoders read column values through `get(i)`, i in [0, n), so chunk
// columns encode straight from the ChunkRecords, and write through one
// util::RawAppender per column.

template <class Get>
void put_num_col(std::string& out, std::size_t n, Get&& get, bool order2) {
  std::uint64_t prev = 0, prev_d = 0;
  auto put_micro = [&](util::RawAppender& a, std::uint64_t m) {
    const std::uint64_t d = m - prev;  // wrapped; zigzag is total
    a.varint(zz(order2 ? d - prev_d : d));
    prev_d = d;
    prev = m;
  };

  // Escapes are rare: encode optimistically with none, quantizing each
  // value once, and start over only when one turns up.
  {
    util::RawAppender a(out, (n + 1) * util::kMaxVarintBytes);
    a.varint(0);
    std::size_t i = 0;
    for (; i < n; ++i) {
      const jsonl::Num v = jsonl::Num::of(get(i));
      if (!v.is_micro) break;
      put_micro(a, v.micro);
    }
    if (i == n) {
      a.finish();
      return;
    }
    a.discard();
  }

  // Per value at worst an index delta and a raw f64.
  util::RawAppender a(out, (n + 1) * (util::kMaxVarintBytes + 8));
  std::uint64_t n_esc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!jsonl::Num::of(get(i)).is_micro) ++n_esc;
  }
  a.varint(n_esc);
  std::size_t prev_idx = 0;
  bool first = true;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = get(i);
    if (jsonl::Num::of(v).is_micro) continue;
    a.varint(first ? i : i - prev_idx);
    first = false;
    prev_idx = i;
    a.f64(v);
  }
  prev = prev_d = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const jsonl::Num v = jsonl::Num::of(get(i));
    if (v.is_micro) put_micro(a, v.micro);
  }
  a.finish();
}

bool get_num_col(Cursor& c, std::size_t n, bool order2,
                 std::vector<jsonl::Num>* out) {
  out->clear();
  out->reserve(n);
  const std::uint64_t n_esc = c.varint();
  if (c.fail || n_esc > n) return false;
  std::vector<std::size_t> esc_idx(static_cast<std::size_t>(n_esc));
  std::vector<double> esc_val(static_cast<std::size_t>(n_esc));
  std::size_t idx = 0;
  for (std::size_t i = 0; i < n_esc; ++i) {
    idx = i == 0 ? static_cast<std::size_t>(c.varint())
                 : idx + static_cast<std::size_t>(c.varint());
    esc_idx[i] = idx;
    esc_val[i] = c.f64();
  }
  if (c.fail || (n_esc != 0 && idx >= n)) return false;
  std::size_t e = 0;
  std::uint64_t prev = 0, prev_d = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (e < n_esc && esc_idx[e] == i) {
      out->push_back(jsonl::Num::of(esc_val[e]));
      ++e;
      continue;
    }
    const std::uint64_t t = c.varint();
    std::uint64_t d;
    if (order2) {
      d = prev_d + unzz(t);
      prev_d = d;
    } else {
      d = unzz(t);
    }
    prev += d;
    out->push_back(jsonl::Num::from_micro(prev));
  }
  return !c.fail && e == n_esc;
}

template <class Get>
void put_u64_col(std::string& out, std::size_t n, Get&& get) {
  util::RawAppender a(out, n * util::kMaxVarintBytes);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = get(i);
    a.varint(zz(v - prev));
    prev = v;
  }
  a.finish();
}

void put_u64_col(std::string& out, const std::vector<std::uint64_t>& vals) {
  put_u64_col(out, vals.size(), [&](std::size_t i) { return vals[i]; });
}

void put_num_col(std::string& out, const std::vector<double>& vals,
                 bool order2) {
  put_num_col(out, vals.size(), [&](std::size_t i) { return vals[i]; },
              order2);
}

bool get_u64_col(Cursor& c, std::size_t n, std::vector<std::uint64_t>* out) {
  out->clear();
  out->reserve(n);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prev += unzz(c.varint());
    out->push_back(prev);
  }
  return !c.fail;
}

// --- Block payload prefix -------------------------------------------------
// The leading bytes every block shares: session coordinates, group name,
// flags. The collector parses just this much to index a block; the reader
// parses it again as the start of a full decode.

constexpr std::uint8_t kFlagSampled = 1u << 0;
constexpr std::uint8_t kFlagAnomaly = 1u << 1;
constexpr std::uint8_t kFlagStarted = 1u << 2;
constexpr std::uint8_t kFlagAbandoned = 1u << 3;
constexpr std::uint8_t kFlagFaults = 1u << 4;
constexpr std::uint8_t kFlagFaultLoops = 1u << 5;
constexpr std::uint8_t kFlagAlert = 1u << 6;

struct BlockPrefix {
  std::uint64_t seed = 0, day = 0, window = 0, session = 0;
  std::string_view group;
  std::uint8_t flags = 0;
};

bool parse_prefix(Cursor& c, BlockPrefix* out) {
  out->seed = c.varint();
  out->day = c.varint();
  out->window = c.varint();
  out->session = c.varint();
  if (!c.view(&out->group)) return false;
  out->flags = c.u8();
  return !c.fail;
}

/// The footer index entry of the block at `offset`. Groups intern in
/// first-appearance order, so a front-to-back rescan assigns the ids the
/// writing collector did.
BtraceEntry index_entry(const BlockPrefix& prefix, std::uint64_t offset,
                        std::uint64_t length,
                        std::vector<std::string>& groups) {
  BtraceEntry e;
  e.seed = prefix.seed;
  e.day = prefix.day;
  e.window = prefix.window;
  e.session = prefix.session;
  while (e.group_id < groups.size() && groups[e.group_id] != prefix.group) {
    ++e.group_id;
  }
  if (e.group_id == groups.size()) groups.emplace_back(prefix.group);
  e.sampled = (prefix.flags & kFlagSampled) != 0;
  e.anomaly = (prefix.flags & kFlagAnomaly) != 0;
  e.offset = offset;
  e.length = length;
  return e;
}

}  // namespace

// --- BinaryTraceSink ------------------------------------------------------

namespace {

/// walk_session_lines visitor recording the emission order as a tag stream
/// and gathering the non-chunk line fields into columns. Chunk lines carry
/// no payload here: the chunk columns encode straight from the sink's
/// chunk buffer, which the walk visits in index order.
struct CollectVisitor {
  std::vector<std::uint8_t>& tags;
  std::vector<std::uint64_t>& off_k;
  std::vector<double>& off_start;
  std::vector<double>& off_wait;
  std::vector<std::uint64_t>& sw_k;
  std::vector<double>& sw_t;
  std::vector<std::uint64_t>& sw_from;
  std::vector<std::uint64_t>& sw_to;
  std::vector<std::uint64_t>& st_k;
  std::vector<double>& st_start;
  std::vector<double>& st_dur;
  std::vector<std::uint8_t>& st_fault;

  void off(std::uint64_t k, double start_s, double wait_s) {
    tags.push_back(0);
    off_k.push_back(k);
    off_start.push_back(start_s);
    off_wait.push_back(wait_s);
  }
  void rate_switch(std::uint64_t k, double t_s, std::uint64_t from,
                   std::uint64_t to) {
    tags.push_back(1);
    sw_k.push_back(k);
    sw_t.push_back(t_s);
    sw_from.push_back(from);
    sw_to.push_back(to);
  }
  void stall(std::uint64_t k, double start_s, double dur_s, int fault_flag) {
    tags.push_back(2);
    st_k.push_back(k);
    st_start.push_back(start_s);
    st_dur.push_back(dur_s);
    if (fault_flag >= 0) st_fault.push_back(fault_flag != 0 ? 1 : 0);
  }
  void chunk(const sim::ChunkRecord&, double) { tags.push_back(3); }
};

}  // namespace

bool BinaryTraceSink::finish(std::string* out) const {
  BBA_ASSERT(ended_, "finish() requires a completed session");
  if (!emit_ || out == nullptr) return emit_;

  tags_.clear();
  off_k_.clear();
  off_start_.clear();
  off_wait_.clear();
  sw_k_.clear();
  sw_t_.clear();
  sw_from_.clear();
  sw_to_.clear();
  st_k_.clear();
  st_start_.clear();
  st_dur_.clear();
  st_fault_.clear();
  jsonl::walk_session_lines(
      chunks_, played_at_chunk_, rebuffers_,
      /*with_fault_flags=*/faults_ != nullptr,
      CollectVisitor{tags_, off_k_, off_start_, off_wait_, sw_k_, sw_t_,
                     sw_from_, sw_to_, st_k_, st_start_, st_dur_, st_fault_});

  std::string& p = payload_;
  p.clear();
  put_varint(p, seed_);
  put_varint(p, day_);
  put_varint(p, window_);
  put_varint(p, session_);
  put_string(p, group_);
  std::uint8_t flags = 0;
  if (sampled_) flags |= kFlagSampled;
  if (anomalous_) flags |= kFlagAnomaly;
  if (summary_.started) flags |= kFlagStarted;
  if (summary_.abandoned) flags |= kFlagAbandoned;
  if (faults_ != nullptr) {
    flags |= kFlagFaults;
    if (fault_loops_) flags |= kFlagFaultLoops;
  }
  if (!alert_marker_.empty()) flags |= kFlagAlert;
  p += static_cast<char>(flags);
  // Summary doubles are stored as raw IEEE bits: the JSONL header prints
  // them with %.10g (not the microsecond fast path), so the exact double
  // is the only representation that reproduces those bytes.
  put_f64(p, summary_.chunk_duration_s);
  put_f64(p, summary_.join_s);
  put_f64(p, summary_.played_s);
  put_f64(p, summary_.wall_s);
  put_f64(p, rebuffer_total_s_);
  if (!alert_marker_.empty()) {
    // The monitor's marker line, verbatim: the reader re-emits it after
    // the header so `bba_trace cat` round-trips alert captures exactly.
    put_string(p, alert_marker_);
  }
  if (faults_ != nullptr) {
    put_f64(p, fault_cycle_s_);
    put_varint(p, faults_->size());
    for (const net::InjectedFault& f : *faults_) {
      p += static_cast<char>(static_cast<std::uint8_t>(f.kind));
      put_f64(p, f.start_s);
      put_f64(p, f.duration_s);
      put_f64(p, f.factor);
    }
  }

  put_varint(p, tags_.size());
  p.append(reinterpret_cast<const char*>(tags_.data()), tags_.size());

  put_u64_col(p, off_k_);
  put_num_col(p, off_start_, /*order2=*/false);
  put_num_col(p, off_wait_, /*order2=*/false);

  put_u64_col(p, sw_k_);
  put_num_col(p, sw_t_, /*order2=*/false);
  put_u64_col(p, sw_from_);
  put_u64_col(p, sw_to_);

  put_u64_col(p, st_k_);
  put_num_col(p, st_start_, /*order2=*/false);
  put_num_col(p, st_dur_, /*order2=*/false);
  if (faults_ != nullptr) {
    // Stall fault-attribution bits, LSB-first, one bit per stall line.
    std::uint8_t byte = 0;
    for (std::size_t i = 0; i < st_fault_.size(); ++i) {
      byte |= static_cast<std::uint8_t>((st_fault_[i] & 1u) << (i % 8));
      if (i % 8 == 7) {
        p += static_cast<char>(byte);
        byte = 0;
      }
    }
    if (st_fault_.size() % 8 != 0) p += static_cast<char>(byte);
  }

  const std::vector<sim::ChunkRecord>& ch = chunks_;
  const std::size_t n = ch.size();
  put_u64_col(p, n, [&](std::size_t i) {
    return static_cast<std::uint64_t>(ch[i].index);
  });
  put_u64_col(p, n, [&](std::size_t i) {
    return static_cast<std::uint64_t>(ch[i].rate_index);
  });
  put_num_col(p, n, [&](std::size_t i) { return ch[i].rate_bps; }, false);
  put_num_col(p, n, [&](std::size_t i) { return ch[i].size_bits; }, false);
  put_num_col(p, n, [&](std::size_t i) { return ch[i].download_s; }, false);
  put_num_col(p, n, [&](std::size_t i) { return ch[i].throughput_bps; },
              false);
  put_num_col(p, n, [&](std::size_t i) { return ch[i].buffer_after_s; },
              false);
  // Chunk times are monotone with near-constant stride; delta-of-delta
  // brings their varints down to a byte or two each.
  put_num_col(p, n, [&](std::size_t i) { return ch[i].request_s; }, true);
  put_num_col(p, n, [&](std::size_t i) { return ch[i].finish_s; }, true);
  put_num_col(p, n, [&](std::size_t i) { return ch[i].position_s; }, true);
  put_num_col(p, played_at_chunk_, /*order2=*/true);

  util::put_record(*out, kBtraceBlockMagic, p);
  return true;
}

// --- BinaryTraceCollector -------------------------------------------------

BinaryTraceCollector::BinaryTraceCollector(TraceConfig cfg)
    : TraceCollector(std::move(cfg)) {
  if (config().resume) {
    // The interrupted run already wrote the header (its bytes are part of
    // the checkpointed tallies); resume_from() restores offset_ and the
    // index. Until then the collector must not be written to.
    return;
  }
  std::string header;
  util::put_header(header, kBtraceMagic, kBtraceVersion);
  TraceCollector::write(header);
  offset_ = header.size();
}

BinaryTraceCollector::~BinaryTraceCollector() { finalize(); }

std::unique_ptr<SessionTraceSink> BinaryTraceCollector::make_sink() const {
  return std::make_unique<BinaryTraceSink>();
}

void BinaryTraceCollector::write(const std::string& blocks) {
  BBA_ASSERT(!finalized_, "btrace write() after finalize()");
  const unsigned char* base =
      reinterpret_cast<const unsigned char*>(blocks.data());
  std::size_t pos = 0;
  while (pos < blocks.size()) {
    // Only BinaryTraceSink::finish output reaches this collector, so a
    // malformed block is a harness bug, not an input error.
    BBA_ASSERT(blocks.size() - pos >= kBtraceBlockFramingSize,
               "truncated btrace block framing");
    BBA_ASSERT(util::load_u32(base + pos) == kBtraceBlockMagic,
               "btrace write() fed non-block bytes");
    const std::size_t length =
        kBtraceBlockFramingSize + util::load_u32(base + pos + 4);
    BBA_ASSERT(blocks.size() - pos >= length,
               "truncated btrace block payload");
    Cursor c{base + pos + kBtraceBlockFramingSize, base + pos + length};
    BlockPrefix prefix;
    BBA_ASSERT(parse_prefix(c, &prefix), "unparseable btrace block prefix");
    entries_.push_back(index_entry(prefix, offset_ + pos, length, groups_));
    pos += length;
  }
  offset_ += blocks.size();
  TraceCollector::write(blocks);
}

void BinaryTraceCollector::finalize() {
  if (finalized_) return;
  finalized_ = true;
  std::string footer;
  put_varint(footer, groups_.size());
  for (const std::string& g : groups_) put_string(footer, g);
  put_varint(footer, entries_.size());
  std::uint64_t prev_offset = 0;
  bool first = true;
  for (const BtraceEntry& e : entries_) {
    put_varint(footer, e.seed);
    put_varint(footer, e.day);
    put_varint(footer, e.window);
    put_varint(footer, e.session);
    put_varint(footer, e.group_id);
    std::uint8_t flags = 0;
    if (e.sampled) flags |= kFlagSampled;
    if (e.anomaly) flags |= kFlagAnomaly;
    footer += static_cast<char>(flags);
    put_varint(footer, first ? e.offset : e.offset - prev_offset);
    first = false;
    prev_offset = e.offset;
    put_varint(footer, e.length);
  }
  std::string tail;
  util::put_footer(tail, kBtraceFooterMagic, footer, kBtraceTrailerMagic);
  TraceCollector::write(tail);
  TraceCollector::flush();
}

bool BinaryTraceCollector::resume_from(const TraceResumeState& st,
                                       std::string* error) {
  BBA_ASSERT(!finalized_, "btrace resume_from after finalize()");
  BBA_ASSERT(entries_.empty(), "btrace resume_from after write()");
  if (!TraceCollector::resume_from(st, error)) return false;
  offset_ = st.file_size;
  if (config().path.empty()) return true;
  // Rebuild the in-memory footer index from the truncated file. The scan
  // visits blocks front to back, so groups intern in first-appearance
  // order -- exactly the order the interrupted collector assigned ids.
  BtraceReader reader;
  if (!reader.open_scan(config().path, error)) {
    *error = "rescanning truncated trace: " + *error;
    return false;
  }
  groups_ = reader.groups();
  entries_.reserve(reader.session_count());
  for (std::size_t i = 0; i < reader.session_count(); ++i) {
    entries_.push_back(reader.entry(i));
  }
  return true;
}

// --- BtraceReader ---------------------------------------------------------

BtraceReader::~BtraceReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool BtraceReader::sniff(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char magic[sizeof kBtraceMagic];
  const bool ok =
      std::fread(magic, 1, sizeof magic, f) == sizeof magic &&
      std::memcmp(magic, kBtraceMagic, sizeof magic) == 0;
  std::fclose(f);
  return ok;
}

bool BtraceReader::read_at(std::uint64_t offset, void* out, std::size_t n) {
  return std::fseek(file_, static_cast<long>(offset), SEEK_SET) == 0 &&
         std::fread(out, 1, n, file_) == n;
}

bool BtraceReader::open_file(const std::string& path, std::string* error) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  entries_.clear();
  groups_.clear();
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  std::fseek(file_, 0, SEEK_END);
  file_size_ = static_cast<std::uint64_t>(std::ftell(file_));
  if (file_size_ < kBtraceFileHeaderSize) {
    *error = path + ": not a btrace file (shorter than the file header)";
    return false;
  }
  unsigned char header[kBtraceFileHeaderSize];
  const char* what =
      read_at(0, header, sizeof header)
          ? util::check_header(header, kBtraceMagic, kBtraceVersion)
          : "cannot read file header";
  if (what != nullptr) *error = path + ": " + what;
  return what == nullptr;
}

bool BtraceReader::open(const std::string& path, std::string* error) {
  if (!open_file(path, error)) return false;
  const auto fail = [&](const char* what) {
    entries_.clear();
    groups_.clear();
    *error = path + ": " + what;
    return false;
  };
  if (file_size_ < util::kContainerMinSize) {
    return fail("missing footer index (truncated file?)");
  }
  unsigned char trailer[kBtraceTrailerSize];
  if (!read_at(file_size_ - kBtraceTrailerSize, trailer, sizeof trailer)) {
    return fail("cannot read trailer");
  }
  util::FooterSpan span;
  if (const char* what = util::locate_footer(trailer, file_size_,
                                             kBtraceTrailerMagic, &span)) {
    return fail(what);
  }
  std::string footer(static_cast<std::size_t>(4 + span.length), '\0');
  const auto* f = reinterpret_cast<const unsigned char*>(footer.data());
  if (!read_at(span.records_end(), footer.data(), footer.size())) {
    return fail("cannot read footer");
  }
  if (const char* what = util::check_footer(f, kBtraceFooterMagic, span)) {
    return fail(what);
  }
  Cursor c{f + 4, f + footer.size()};
  const std::uint64_t n_groups = c.varint();
  for (std::uint64_t i = 0; i < n_groups && !c.fail; ++i) {
    c.str(&groups_.emplace_back());
  }
  const std::uint64_t n_sessions = c.fail ? 0 : c.varint();
  std::uint64_t prev_offset = 0;
  for (std::uint64_t i = 0; i < n_sessions && !c.fail; ++i) {
    BtraceEntry e;
    e.seed = c.varint();
    e.day = c.varint();
    e.window = c.varint();
    e.session = c.varint();
    e.group_id = static_cast<std::uint32_t>(c.varint());
    const std::uint8_t flags = c.u8();
    e.sampled = (flags & kFlagSampled) != 0;
    e.anomaly = (flags & kFlagAnomaly) != 0;
    e.offset = i == 0 ? c.varint() : prev_offset + c.varint();
    prev_offset = e.offset;
    e.length = c.varint();
    if (c.fail || e.group_id >= groups_.size() ||
        !util::record_in_bounds(e.offset, e.length, span.records_end())) {
      c.fail = true;
      break;
    }
    entries_.push_back(e);
  }
  if (c.fail || c.p != c.end) return fail("corrupt footer (malformed index)");
  return true;
}

bool BtraceReader::open_scan(const std::string& path, std::string* error) {
  if (!open_file(path, error)) return false;
  std::uint64_t pos = kBtraceFileHeaderSize;
  while (file_size_ - pos >= kBtraceBlockFramingSize) {
    blockbuf_.resize(kBtraceBlockFramingSize);
    if (!read_at(pos, blockbuf_.data(), kBtraceBlockFramingSize)) {
      *error = path + ": cannot read block framing";
      return false;
    }
    const auto* framing =
        reinterpret_cast<const unsigned char*>(blockbuf_.data());
    // The block sequence ends at the first non-block magic: the footer on
    // a finalized file, or EOF-adjacent garbage on a truncated one (scan
    // recovers every intact block before the damage).
    if (util::load_u32(framing) != kBtraceBlockMagic) break;
    const std::uint64_t length =
        kBtraceBlockFramingSize + std::uint64_t{util::load_u32(framing + 4)};
    // A payload running past EOF is the crash-mid-write signature: keep
    // the intact blocks already recovered. (A CRC mismatch below is real
    // corruption, not truncation, and still fails the scan.)
    if (length > file_size_ - pos) break;
    blockbuf_.resize(static_cast<std::size_t>(length));
    if (!read_at(pos + kBtraceBlockFramingSize,
                 blockbuf_.data() + kBtraceBlockFramingSize,
                 blockbuf_.size() - kBtraceBlockFramingSize)) {
      *error = path + ": cannot read block payload";
      return false;
    }
    Cursor c;
    BlockPrefix prefix;
    const char* what = util::check_record(blockbuf_, kBtraceBlockMagic, &c);
    if (what == nullptr && !parse_prefix(c, &prefix)) {
      what = "unparseable prefix";
    }
    if (what != nullptr) {
      *error = path + ": corrupt block (" + what + ") at offset " +
               std::to_string(pos);
      return false;
    }
    entries_.push_back(index_entry(prefix, pos, length, groups_));
    pos += length;
  }
  return true;
}

bool BtraceReader::load_block(std::size_t i, Cursor* payload,
                              std::string* error) {
  BBA_ASSERT(i < entries_.size(), "btrace block index out of range");
  const BtraceEntry& entry = entries_[i];
  blockbuf_.resize(static_cast<std::size_t>(entry.length));
  if (!read_at(entry.offset, blockbuf_.data(), blockbuf_.size())) {
    *error = "cannot read block at offset " + std::to_string(entry.offset);
    return false;
  }
  const char* what = util::check_record(blockbuf_, kBtraceBlockMagic, payload);
  if (what != nullptr) {
    *error = std::string("corrupt block (") + what + ") at offset " +
             std::to_string(entry.offset);
  }
  return what == nullptr;
}

bool BtraceReader::read_block(std::size_t i, std::string* out,
                              std::string* error) {
  Cursor c;
  BlockPrefix prefix;
  if (!load_block(i, &c, error)) return false;
  if (!parse_prefix(c, &prefix)) {
    *error = "corrupt block (unparseable prefix) at offset " +
             std::to_string(entries_[i].offset);
    return false;
  }
  out->append(blockbuf_);
  return true;
}

bool BtraceReader::read_session(std::size_t i, std::string* jsonl_out,
                                SessionCounts* counts, std::string* error) {
  Cursor c;
  if (!load_block(i, &c, error)) return false;
  const auto corrupt = [&](const char* what) {
    *error = std::string("corrupt block (") + what + ") at offset " +
             std::to_string(entries_[i].offset);
    return false;
  };

  BlockPrefix prefix;
  if (!parse_prefix(c, &prefix)) return corrupt("unparseable prefix");
  const bool has_faults = (prefix.flags & kFlagFaults) != 0;
  const double v_s = c.f64();
  const double join_s = c.f64();
  const double played_s = c.f64();
  const double wall_s = c.f64();
  const double rebuffer_s = c.f64();
  std::string_view alert_marker;
  if ((prefix.flags & kFlagAlert) != 0) {
    if (!c.view(&alert_marker)) return corrupt("truncated alert marker");
  }
  double fault_cycle_s = 0.0;
  std::uint64_t n_faults = 0;
  struct FaultRow {
    std::uint8_t kind;
    double start_s, dur_s, factor;
  };
  std::vector<FaultRow> faults;
  if (has_faults) {
    fault_cycle_s = c.f64();
    n_faults = c.varint();
    // 25 bytes per fault row; bounding first keeps reserve() sane on a
    // corrupt count.
    if (c.fail ||
        n_faults > static_cast<std::uint64_t>(c.end - c.p) / 25) {
      return corrupt("truncated fault table");
    }
    faults.reserve(static_cast<std::size_t>(n_faults));
    for (std::uint64_t f = 0; f < n_faults; ++f) {
      FaultRow row;
      row.kind = c.u8();
      row.start_s = c.f64();
      row.dur_s = c.f64();
      row.factor = c.f64();
      if (row.kind > static_cast<std::uint8_t>(net::FaultKind::kFailover)) {
        return corrupt("unknown fault kind");
      }
      faults.push_back(row);
    }
  }

  const std::uint64_t n_lines = c.varint();
  if (c.fail || !c.need(static_cast<std::size_t>(n_lines))) {
    return corrupt("truncated tag stream");
  }
  const unsigned char* tags = c.p;
  c.p += n_lines;
  std::size_t n_off = 0, n_switch = 0, n_stall = 0, n_chunk = 0;
  for (std::uint64_t t = 0; t < n_lines; ++t) {
    switch (tags[t]) {
      case 0: ++n_off; break;
      case 1: ++n_switch; break;
      case 2: ++n_stall; break;
      case 3: ++n_chunk; break;
      default: return corrupt("unknown event tag");
    }
  }

  std::vector<std::uint64_t> off_k, sw_k, sw_from, sw_to, st_k, ck_k, ck_rate;
  std::vector<jsonl::Num> off_start, off_wait, sw_t, st_start, st_dur;
  std::vector<jsonl::Num> ck_rate_bps, ck_bits, ck_dl, ck_tput, ck_buf,
      ck_req, ck_fin, ck_pos, ck_played;
  std::vector<std::uint8_t> st_fault;
  if (!get_u64_col(c, n_off, &off_k) ||
      !get_num_col(c, n_off, false, &off_start) ||
      !get_num_col(c, n_off, false, &off_wait) ||
      !get_u64_col(c, n_switch, &sw_k) ||
      !get_num_col(c, n_switch, false, &sw_t) ||
      !get_u64_col(c, n_switch, &sw_from) ||
      !get_u64_col(c, n_switch, &sw_to) ||
      !get_u64_col(c, n_stall, &st_k) ||
      !get_num_col(c, n_stall, false, &st_start) ||
      !get_num_col(c, n_stall, false, &st_dur)) {
    return corrupt("truncated event columns");
  }
  if (has_faults) {
    const std::size_t n_bytes = (n_stall + 7) / 8;
    if (!c.need(n_bytes)) return corrupt("truncated stall fault bits");
    st_fault.resize(n_stall);
    for (std::size_t s = 0; s < n_stall; ++s) {
      st_fault[s] = (c.p[s / 8] >> (s % 8)) & 1u;
    }
    c.p += n_bytes;
  }
  if (!get_u64_col(c, n_chunk, &ck_k) ||
      !get_u64_col(c, n_chunk, &ck_rate) ||
      !get_num_col(c, n_chunk, false, &ck_rate_bps) ||
      !get_num_col(c, n_chunk, false, &ck_bits) ||
      !get_num_col(c, n_chunk, false, &ck_dl) ||
      !get_num_col(c, n_chunk, false, &ck_tput) ||
      !get_num_col(c, n_chunk, false, &ck_buf) ||
      !get_num_col(c, n_chunk, true, &ck_req) ||
      !get_num_col(c, n_chunk, true, &ck_fin) ||
      !get_num_col(c, n_chunk, true, &ck_pos) ||
      !get_num_col(c, n_chunk, true, &ck_played)) {
    return corrupt("truncated chunk columns");
  }
  if (c.fail || c.p != c.end) return corrupt("trailing bytes");

  if (counts != nullptr) {
    counts->chunks = n_chunk;
    counts->stalls = n_stall;
    counts->offs = n_off;
    counts->switches = n_switch;
    counts->faults = n_faults;
  }
  if (jsonl_out == nullptr) return true;

  std::string& o = *jsonl_out;
  jsonl::SessionHeader h;
  h.seed = prefix.seed;
  h.day = prefix.day;
  h.window = prefix.window;
  h.session = prefix.session;
  h.group = prefix.group;
  h.sampled = (prefix.flags & kFlagSampled) != 0;
  h.anomaly = (prefix.flags & kFlagAnomaly) != 0;
  h.started = (prefix.flags & kFlagStarted) != 0;
  h.abandoned = (prefix.flags & kFlagAbandoned) != 0;
  h.v_s = v_s;
  h.join_s = join_s;
  h.played_s = played_s;
  h.wall_s = wall_s;
  h.rebuffer_s = rebuffer_s;
  h.rebuffer_count = n_stall;
  h.chunks = n_chunk;
  if (has_faults) {
    h.has_faults = true;
    h.fault_count = n_faults;
    h.trace_cycle_s = jsonl::Num::of(fault_cycle_s);
    h.trace_loops = (prefix.flags & kFlagFaultLoops) != 0;
  }
  jsonl::append_session_line(o, h);
  o += alert_marker;
  for (const FaultRow& f : faults) {
    jsonl::append_fault_line(
        o, net::fault_kind_name(static_cast<net::FaultKind>(f.kind)),
        jsonl::Num::of(f.start_s), jsonl::Num::of(f.dur_s),
        jsonl::Num::of(f.factor));
  }

  // Replay the recorded line order; each tag consumes the next value from
  // its columns.
  std::size_t oi = 0, wi = 0, si = 0, ci = 0;
  for (std::uint64_t t = 0; t < n_lines; ++t) {
    switch (tags[t]) {
      case 0:
        jsonl::append_off_line(o, off_k[oi], off_start[oi], off_wait[oi]);
        ++oi;
        break;
      case 1:
        jsonl::append_switch_line(o, sw_k[wi], sw_t[wi], sw_from[wi],
                                  sw_to[wi]);
        ++wi;
        break;
      case 2:
        jsonl::append_stall_line(o, st_k[si], st_start[si], st_dur[si],
                                 has_faults ? (st_fault[si] != 0 ? 1 : 0)
                                            : -1);
        ++si;
        break;
      case 3: {
        jsonl::ChunkLine line;
        line.k = ck_k[ci];
        line.rate = ck_rate[ci];
        line.rate_bps = ck_rate_bps[ci];
        line.bits = ck_bits[ci];
        line.req_s = ck_req[ci];
        line.fin_s = ck_fin[ci];
        line.dl_s = ck_dl[ci];
        line.tput_bps = ck_tput[ci];
        line.buf_s = ck_buf[ci];
        line.pos_s = ck_pos[ci];
        line.played_s = ck_played[ci];
        jsonl::append_chunk_line(o, line);
        ++ci;
        break;
      }
      default: break;
    }
  }
  return true;
}

}  // namespace bba::obs
