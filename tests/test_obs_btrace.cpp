// Columnar binary traces: JSONL round trip, footer index, thread
// invariance, corruption rejection (reader and bba_merge), and collector
// I/O-error surfacing.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/bba2.hpp"
#include "exp/abtest.hpp"
#include "media/video.hpp"
#include "net/capacity_trace.hpp"
#include "net/fault_inject.hpp"
#include "obs/btrace.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/player.hpp"
#include "sim/session_sink.hpp"
#include "util/binio.hpp"
#include "util/rng.hpp"

namespace bba {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string temp_path(const char* tag, const char* ext) {
  return testing::TempDir() + "obs_btrace_" + tag + ext;
}

/// Decodes every session of a btrace file to JSONL via the footer index;
/// fails the test on any error.
std::string cat_btrace(const std::string& path) {
  obs::BtraceReader reader;
  std::string error, out;
  EXPECT_TRUE(reader.open(path, &error)) << error;
  for (std::size_t i = 0; i < reader.session_count(); ++i) {
    EXPECT_TRUE(reader.read_session(i, &out, nullptr, &error)) << error;
  }
  return out;
}

// --- Harness round trip ---------------------------------------------------

exp::AbTestConfig tiny_config(std::size_t threads, bool faults) {
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 3;
  cfg.days = 1;
  cfg.seed = 99;
  cfg.threads = threads;
  if (faults) {
    EXPECT_TRUE(net::parse_fault_plan(
        "outage:every=45,dur=25..45;spike:every=120,dur=5..15,"
        "depth=0.05..0.2",
        &cfg.population.faults));
  }
  return cfg;
}

std::vector<exp::Group> tiny_groups() {
  std::vector<exp::Group> groups;
  groups.push_back({"control", exp::make_control_factory()});
  groups.push_back({"bba2", exp::make_bba2_factory()});
  return groups;
}

/// Runs the tiny experiment with the given collector format, leaving the
/// trace file at `path`.
void run_with_format(bool btrace, std::size_t threads,
                     const std::string& path, std::uint64_t sample,
                     bool faults) {
  obs::Observability handle;
  obs::TraceConfig tc;
  tc.path = path;
  tc.sample = sample;
  if (btrace) {
    handle.trace = std::make_unique<obs::BinaryTraceCollector>(tc);
  } else {
    handle.trace = std::make_unique<obs::TraceCollector>(tc);
  }
  ASSERT_TRUE(handle.trace->ok());
  obs::install(&handle);
  const media::VideoLibrary library = media::VideoLibrary::standard(3);
  exp::run_ab_test(tiny_groups(), library,
                   tiny_config(threads, faults));
  obs::install(nullptr);
}

TEST(BtraceRoundTrip, CatReproducesJsonlSinkBytes) {
  const std::string jp = temp_path("rt", ".jsonl");
  const std::string bp = temp_path("rt", ".btrace");
  run_with_format(false, 2, jp, 2, false);
  run_with_format(true, 2, bp, 2, false);
  const std::string jsonl = read_file(jp);
  ASSERT_FALSE(jsonl.empty());
  EXPECT_EQ(cat_btrace(bp), jsonl);
}

TEST(BtraceRoundTrip, CatReproducesJsonlSinkBytesWithFaults) {
  const std::string jp = temp_path("rtf", ".jsonl");
  const std::string bp = temp_path("rtf", ".btrace");
  run_with_format(false, 2, jp, 2, true);
  run_with_format(true, 2, bp, 2, true);
  const std::string jsonl = read_file(jp);
  ASSERT_FALSE(jsonl.empty());
  // The faulted schema round-trips too: fault header keys, fault event
  // lines, and the stall attribution flag.
  EXPECT_NE(jsonl.find("\"ev\":\"fault\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"fault\":"), std::string::npos);
  EXPECT_EQ(cat_btrace(bp), jsonl);
}

/// Runs the tiny experiment with a metrics registry installed, and a btrace
/// collector tracing every session when `traced`.
exp::AbTestResult run_counted(bool traced, bool faults,
                              obs::MetricsSnapshot* snapshot) {
  obs::Observability handle;
  handle.metrics = std::make_unique<obs::MetricsRegistry>(4);
  if (traced) {
    obs::TraceConfig tc;
    tc.sample = 1;  // every session, serialized and discarded
    handle.trace = std::make_unique<obs::BinaryTraceCollector>(tc);
  }
  obs::install(&handle);
  const media::VideoLibrary library = media::VideoLibrary::standard(3);
  exp::AbTestResult result =
      exp::run_ab_test(tiny_groups(), library, tiny_config(2, faults));
  obs::install(nullptr);
  *snapshot = handle.metrics->snapshot();
  return result;
}

TEST(BtraceRegistry, TracingEverySessionCountsEachSessionOnce) {
  for (const bool faults : {false, true}) {
    SCOPED_TRACE(faults ? "faulted" : "plain");
    obs::MetricsSnapshot plain, traced;
    const exp::AbTestResult a = run_counted(false, faults, &plain);
    const exp::AbTestResult b = run_counted(true, faults, &traced);

    using obs::Counter;
    ASSERT_GT(plain.counter(Counter::kSessions), 0u);
    for (const Counter c :
         {Counter::kSessions, Counter::kSessionsAbandoned,
          Counter::kChunksDownloaded, Counter::kRebuffers,
          Counter::kRateSwitches, Counter::kOffPeriods,
          Counter::kCursorQueries, Counter::kCursorRewinds}) {
      EXPECT_EQ(plain.counter(c), traced.counter(c))
          << obs::counter_name(c);
    }
    // Two workers can race to build the same chunk-table memo entry, so the
    // split between hits and builds depends on timing; their sum does not.
    EXPECT_EQ(plain.counter(Counter::kReservoirMemoHits) +
                  plain.counter(Counter::kReservoirMemoBuilds),
              traced.counter(Counter::kReservoirMemoHits) +
                  traced.counter(Counter::kReservoirMemoBuilds));

    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t g = 0; g < a.cells.size(); ++g) {
      ASSERT_EQ(a.cells[g].size(), b.cells[g].size());
      for (std::size_t d = 0; d < a.cells[g].size(); ++d) {
        ASSERT_EQ(a.cells[g][d].size(), b.cells[g][d].size());
        for (std::size_t w = 0; w < a.cells[g][d].size(); ++w) {
          EXPECT_EQ(std::memcmp(&a.cells[g][d][w], &b.cells[g][d][w],
                                sizeof(exp::WindowMetrics)),
                    0)
              << "cell " << g << "/" << d << "/" << w;
        }
      }
    }
  }
}

TEST(BtraceRoundTrip, FileBytesIdenticalAcrossThreadCounts) {
  const std::string p1 = temp_path("t1", ".btrace");
  const std::string p4 = temp_path("t4", ".btrace");
  run_with_format(true, 1, p1, 2, false);
  run_with_format(true, 4, p4, 2, false);
  const std::string bytes = read_file(p1);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, read_file(p4));
}

TEST(BtraceRoundTrip, CompressesAtLeastFiveFoldAtFullSampling) {
  const std::string jp = temp_path("full", ".jsonl");
  const std::string bp = temp_path("full", ".btrace");
  run_with_format(false, 2, jp, 1, false);
  run_with_format(true, 2, bp, 1, false);
  const std::size_t jsonl_size = read_file(jp).size();
  const std::size_t btrace_size = read_file(bp).size();
  ASSERT_GT(btrace_size, 0u);
  EXPECT_GE(static_cast<double>(jsonl_size),
            5.0 * static_cast<double>(btrace_size));
}

// --- Single-session round trips (anomalous + hostile values) --------------

net::CapacityTrace cliff_trace() {
  return net::CapacityTrace({{60.0, 8e6}, {36000.0, 1e3}}, false);
}

TEST(BtraceRoundTrip, AnomalousSessionMatchesJsonl) {
  util::Rng rng(11);
  const media::Video video = media::make_vbr_video(
      "t", media::EncodingLadder::netflix_2013(), 400, 4.0,
      media::VbrConfig{}, rng);
  const net::CapacityTrace trace = cliff_trace();
  sim::PlayerConfig player;
  player.watch_duration_s = 3600.0;
  player.give_up_stall_s = 120.0;

  obs::TraceConfig cfg;
  cfg.path = temp_path("anom", ".btrace");
  cfg.sample = 0;  // only the anomaly trigger can emit

  std::string jsonl;
  {
    core::Bba2 abr;
    obs::SessionTraceSink sink;
    sink.begin(cfg, 1, 0, 0, 0, "bba2", false);
    sim::simulate_session(video, trace, abr, player, sink);
    ASSERT_TRUE(sink.anomalous());
    ASSERT_TRUE(sink.finish(&jsonl));
  }
  {
    core::Bba2 abr;
    obs::BinaryTraceCollector collector(cfg);
    auto sink = collector.make_sink();
    sink->begin(cfg, 1, 0, 0, 0, "bba2", false);
    sim::simulate_session(video, trace, abr, player, *sink);
    std::string block;
    ASSERT_TRUE(sink->finish(&block));
    collector.write(block);
    collector.finalize();
  }
  obs::BtraceReader reader;
  std::string error, out;
  ASSERT_TRUE(reader.open(cfg.path, &error)) << error;
  ASSERT_EQ(reader.session_count(), 1u);
  EXPECT_TRUE(reader.entry(0).anomaly);
  ASSERT_TRUE(reader.read_session(0, &out, nullptr, &error)) << error;
  EXPECT_EQ(out, jsonl);
}

/// Feeds both sinks a synthetic session whose values exercise the %.10g
/// escape path (negative, huge, non-finite) next to fast-path values, plus
/// a group name needing JSON escaping.
TEST(BtraceRoundTrip, EscapeValuesAndHostileGroupNameMatchJsonl) {
  obs::TraceConfig cfg;
  cfg.path = temp_path("esc", ".btrace");
  cfg.sample = 1;

  std::vector<sim::ChunkRecord> chunks(4);
  const double values[4] = {-1.5, 9.5e12, 123.456789,
                            std::numeric_limits<double>::infinity()};
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    sim::ChunkRecord& c = chunks[i];
    c.index = i;
    c.rate_index = i % 2;  // forces switch lines
    c.rate_bps = values[i];
    c.size_bits = values[(i + 1) % 4];
    c.request_s = 4.0 * static_cast<double>(i) + 0.25;
    c.finish_s = c.request_s + 1.5;
    c.download_s = 1.5;
    c.throughput_bps = values[(i + 2) % 4];
    c.buffer_after_s = 8.0;
    c.off_wait_s = i == 2 ? 0.75 : 0.0;  // forces an off line
    c.position_s = 4.0 * static_cast<double>(i);
  }
  const sim::RebufferEvent stall{5.0, 2.25, 1, false};
  sim::SessionSummary summary;
  summary.chunk_duration_s = 4.0;
  summary.join_s = 0.5;
  summary.played_s = 16.0;
  summary.wall_s = 20.0;
  summary.started = true;

  auto feed = [&](sim::SessionSink& sink) {
    sink.on_session_start(4.0);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      if (i == 1) sink.on_rebuffer(stall);
      sink.on_chunk(chunks[i], 4.0 * static_cast<double>(i));
    }
    sink.on_session_end(summary);
  };

  std::string jsonl;
  {
    obs::SessionTraceSink sink;
    sink.begin(cfg, 7, 1, 2, 3, "we\"ird\\grp", true);
    feed(sink);
    ASSERT_TRUE(sink.finish(&jsonl));
  }
  {
    obs::BinaryTraceCollector collector(cfg);
    auto sink = collector.make_sink();
    sink->begin(cfg, 7, 1, 2, 3, "we\"ird\\grp", true);
    feed(*sink);
    std::string block;
    ASSERT_TRUE(sink->finish(&block));
    collector.write(block);
    collector.finalize();
  }
  EXPECT_NE(jsonl.find("-1.5"), std::string::npos);
  EXPECT_NE(jsonl.find("inf"), std::string::npos);
  EXPECT_EQ(cat_btrace(cfg.path), jsonl);
}

// --- Footer index ---------------------------------------------------------

TEST(BtraceIndex, FooterLookupAgreesWithLinearScan) {
  const std::string path = temp_path("idx", ".btrace");
  run_with_format(true, 2, path, 2, false);

  obs::BtraceReader indexed, scanned;
  std::string error;
  ASSERT_TRUE(indexed.open(path, &error)) << error;
  ASSERT_TRUE(scanned.open_scan(path, &error)) << error;
  ASSERT_GT(indexed.session_count(), 0u);
  ASSERT_EQ(indexed.session_count(), scanned.session_count());
  EXPECT_EQ(indexed.groups(), scanned.groups());
  for (std::size_t i = 0; i < indexed.session_count(); ++i) {
    const obs::BtraceEntry& a = indexed.entry(i);
    const obs::BtraceEntry& b = scanned.entry(i);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.day, b.day);
    EXPECT_EQ(a.window, b.window);
    EXPECT_EQ(a.session, b.session);
    EXPECT_EQ(a.group_id, b.group_id);
    EXPECT_EQ(a.sampled, b.sampled);
    EXPECT_EQ(a.anomaly, b.anomaly);
    EXPECT_EQ(a.offset, b.offset);
    EXPECT_EQ(a.length, b.length);
    std::string via_index, via_scan;
    ASSERT_TRUE(indexed.read_session(i, &via_index, nullptr, &error))
        << error;
    ASSERT_TRUE(scanned.read_session(i, &via_scan, nullptr, &error))
        << error;
    EXPECT_EQ(via_index, via_scan);
  }
}

TEST(BtraceIndex, CountsMatchJsonlLines) {
  const std::string path = temp_path("cnt", ".btrace");
  run_with_format(true, 2, path, 2, false);
  obs::BtraceReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(path, &error)) << error;
  for (std::size_t i = 0; i < reader.session_count(); ++i) {
    std::string out;
    obs::BtraceReader::SessionCounts c;
    ASSERT_TRUE(reader.read_session(i, &out, &c, &error)) << error;
    auto occurrences = [&](const char* needle) {
      std::uint64_t n = 0;
      for (std::size_t pos = out.find(needle); pos != std::string::npos;
           pos = out.find(needle, pos + 1)) {
        ++n;
      }
      return n;
    };
    EXPECT_EQ(occurrences("\"ev\":\"chunk\""), c.chunks);
    EXPECT_EQ(occurrences("\"ev\":\"stall\""), c.stalls);
    EXPECT_EQ(occurrences("\"ev\":\"off\""), c.offs);
    EXPECT_EQ(occurrences("\"ev\":\"switch\""), c.switches);
    EXPECT_EQ(occurrences("\"ev\":\"fault\""), c.faults);
  }
}

// --- Corruption rejection -------------------------------------------------

TEST(BtraceCorruption, RejectsBadMagicAndEmptyFiles) {
  const std::string path = temp_path("junk", ".btrace");
  write_file(path, "definitely not a btrace file, but long enough to read");
  EXPECT_FALSE(obs::BtraceReader::sniff(path));
  obs::BtraceReader reader;
  std::string error;
  EXPECT_FALSE(reader.open(path, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;

  write_file(path, "");
  error.clear();
  EXPECT_FALSE(reader.open(path, &error));
  EXPECT_FALSE(error.empty());
}

TEST(BtraceCorruption, TruncationLosesFooterButScanRecovers) {
  const std::string path = temp_path("trunc", ".btrace");
  run_with_format(true, 2, path, 2, false);
  const std::string bytes = read_file(path);
  obs::BtraceReader whole;
  std::string error;
  ASSERT_TRUE(whole.open(path, &error)) << error;
  const std::size_t n = whole.session_count();
  ASSERT_GT(n, 1u);

  // Chop mid-footer: the indexed open must refuse, the scan must still
  // recover every intact block.
  const std::string cut = temp_path("trunc_cut", ".btrace");
  write_file(cut, bytes.substr(0, bytes.size() - 10));
  obs::BtraceReader reader;
  EXPECT_FALSE(reader.open(cut, &error));
  EXPECT_NE(error.find("missing footer"), std::string::npos) << error;
  ASSERT_TRUE(reader.open_scan(cut, &error)) << error;
  EXPECT_EQ(reader.session_count(), n);

  // Chop mid-block: scan keeps the sessions before the damage.
  const std::size_t mid_block =
      static_cast<std::size_t>(whole.entry(1).offset + whole.entry(1).length)
      - 4;
  write_file(cut, bytes.substr(0, mid_block));
  EXPECT_FALSE(reader.open(cut, &error));
  ASSERT_TRUE(reader.open_scan(cut, &error)) << error;
  EXPECT_EQ(reader.session_count(), 1u);
}

TEST(BtraceCorruption, BlockCrcMismatchIsDetected) {
  const std::string path = temp_path("crc", ".btrace");
  run_with_format(true, 2, path, 2, false);
  std::string bytes = read_file(path);
  obs::BtraceReader whole;
  std::string error;
  ASSERT_TRUE(whole.open(path, &error)) << error;
  ASSERT_GT(whole.session_count(), 1u);

  // Flip one payload byte of session 1. The footer is untouched, so open
  // still succeeds; reading the damaged session must fail, its neighbours
  // must not.
  const std::size_t flip = static_cast<std::size_t>(
      whole.entry(1).offset + obs::kBtraceBlockFramingSize + 20);
  bytes[flip] = static_cast<char>(bytes[flip] ^ 0x5a);
  const std::string bad = temp_path("crc_bad", ".btrace");
  write_file(bad, bytes);

  obs::BtraceReader reader;
  ASSERT_TRUE(reader.open(bad, &error)) << error;
  std::string out;
  EXPECT_TRUE(reader.read_session(0, &out, nullptr, &error)) << error;
  EXPECT_FALSE(reader.read_session(1, &out, nullptr, &error));
  EXPECT_NE(error.find("CRC mismatch"), std::string::npos) << error;
  // The scan hits the same CRC failure.
  EXPECT_FALSE(reader.open_scan(bad, &error));
  EXPECT_NE(error.find("CRC mismatch"), std::string::npos) << error;
}

/// The file at `path` with its footer index re-encoded after `edit` and its
/// footer CRC recomputed, so only the edited entries are wrong.
std::string with_rewritten_footer(
    const std::string& path,
    const std::function<void(std::vector<obs::BtraceEntry>&)>& edit) {
  obs::BtraceReader reader;
  std::string error;
  EXPECT_TRUE(reader.open(path, &error)) << error;
  std::vector<obs::BtraceEntry> entries;
  for (std::size_t i = 0; i < reader.session_count(); ++i) {
    entries.push_back(reader.entry(i));
  }
  const obs::BtraceEntry& last = entries.back();
  const std::uint64_t records_end = last.offset + last.length;
  edit(entries);
  std::string body;
  util::put_varint(body, reader.groups().size());
  for (const std::string& g : reader.groups()) util::put_string(body, g);
  util::put_varint(body, entries.size());
  std::uint64_t prev_offset = 0;
  for (const obs::BtraceEntry& e : entries) {
    for (const std::uint64_t v : {e.seed, e.day, e.window, e.session,
                                  std::uint64_t{e.group_id}}) {
      util::put_varint(body, v);
    }
    body += static_cast<char>((e.sampled ? 1 : 0) | (e.anomaly ? 2 : 0));
    util::put_varint(body, e.offset - prev_offset);  // wraps like the reader
    prev_offset = e.offset;
    util::put_varint(body, e.length);
  }
  std::string bytes = read_file(path).substr(0, records_end);
  util::put_footer(bytes, obs::kBtraceFooterMagic, body,
                   obs::kBtraceTrailerMagic);
  return bytes;
}

TEST(BtraceCorruption, WrappingFooterEntryIsRejectedAtOpen) {
  const std::string path = temp_path("wrap", ".btrace");
  run_with_format(true, 2, path, 2, false);
  // The rewriter is exact: an unedited index reproduces the file.
  EXPECT_EQ(with_rewritten_footer(path, [](auto&) {}), read_file(path));

  // A CRC-valid entry whose offset + length wraps past 2^64 back into the
  // file. Reading it would size a 2^64-byte buffer.
  const std::string bad = temp_path("wrap_bad", ".btrace");
  write_file(bad, with_rewritten_footer(path, [](auto& entries) {
               entries[0].length = ~std::uint64_t{0} - 7;
             }));
  obs::BtraceReader reader;
  std::string error;
  EXPECT_FALSE(reader.open(bad, &error));
  EXPECT_NE(error.find("corrupt footer"), std::string::npos) << error;
}

// --- bba_merge block validation -------------------------------------------

/// Runs `bba_merge traces` and returns its exit code (-1 if it did not
/// exit normally); its stderr lands in *log.
int run_merge(const std::vector<std::string>& inputs, const std::string& out,
              std::string* log) {
  std::string cmd = std::string(BBA_MERGE_BIN) + " traces --out " + out;
  for (const std::string& in : inputs) cmd += " " + in;
  cmd += " 2>&1";
  log->clear();
  std::FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return -1;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) log->append(buf, n);
  const int rc = pclose(p);
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(BtraceMerge, RejectsAShardWithACorruptBlock) {
  const std::string path = temp_path("merge_ok", ".btrace");
  const std::string out = temp_path("merge_out", ".btrace");
  run_with_format(true, 2, path, 2, false);
  std::string log;
  // An unsharded trace merges onto itself byte for byte.
  ASSERT_EQ(run_merge({path}, out, &log), 0) << log;
  EXPECT_EQ(read_file(out), read_file(path));

  obs::BtraceReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(path, &error)) << error;
  ASSERT_GT(reader.session_count(), 1u);
  const std::uint64_t offset = reader.entry(1).offset;
  std::string bytes = read_file(path);
  const std::size_t flip =
      static_cast<std::size_t>(offset + obs::kBtraceBlockFramingSize + 20);
  bytes[flip] = static_cast<char>(bytes[flip] ^ 0x5a);
  const std::string bad = temp_path("merge_crc", ".btrace");
  write_file(bad, bytes);
  EXPECT_EQ(run_merge({bad}, out, &log), 1) << log;
  EXPECT_NE(log.find(bad + ": corrupt block (CRC mismatch) at offset " +
                     std::to_string(offset)),
            std::string::npos)
      << log;
}

TEST(BtraceMerge, RejectsAFooterEntryThatMissesItsBlock) {
  const std::string path = temp_path("merge_idx", ".btrace");
  run_with_format(true, 2, path, 2, false);
  // A CRC-valid index whose second entry points one byte into its block.
  std::uint64_t offset = 0;
  const std::string bad = temp_path("merge_idx_bad", ".btrace");
  write_file(bad, with_rewritten_footer(path, [&](auto& entries) {
               offset = ++entries[1].offset;
             }));
  std::string log;
  EXPECT_EQ(run_merge({bad}, temp_path("merge_idx_out", ".btrace"), &log), 1)
      << log;
  EXPECT_NE(log.find(bad + ": corrupt block (bad magic) at offset " +
                     std::to_string(offset)),
            std::string::npos)
      << log;
}

// --- Collector I/O-error surfacing (regression) ---------------------------

TEST(TraceCollectorErrors, FailedWritesFlipOkAndCount) {
  // /dev/full accepts fopen but fails writes at flush time -- exactly the
  // full-disk failure the collector previously swallowed.
  obs::TraceConfig cfg;
  cfg.path = "/dev/full";
  obs::TraceCollector collector(cfg);
  if (!collector.ok()) GTEST_SKIP() << "/dev/full not available";
  std::string line(1 << 16, 'x');
  line += '\n';
  collector.write(line);
  collector.flush();
  if (collector.ok()) GTEST_SKIP() << "/dev/full did not reject writes";
  EXPECT_GE(collector.write_errors(), 1u);
  // The stats fragment reports the failure and the format tag.
  const std::string stats = collector.stats_json();
  EXPECT_NE(stats.find("\"write_errors\":"), std::string::npos);
  EXPECT_NE(stats.find("\"format\":\"jsonl\""), std::string::npos);
  EXPECT_EQ(stats.find("\"write_errors\":0"), std::string::npos);
}

TEST(TraceCollectorErrors, FormatTagInStats) {
  obs::TraceConfig cfg;  // no path: discards, never errors
  obs::TraceCollector jsonl_collector(cfg);
  EXPECT_NE(jsonl_collector.stats_json().find("\"format\":\"jsonl\""),
            std::string::npos);
  EXPECT_NE(jsonl_collector.stats_json().find("\"write_errors\":0"),
            std::string::npos);
  obs::BinaryTraceCollector btrace_collector(cfg);
  EXPECT_NE(btrace_collector.stats_json().find("\"format\":\"btrace\""),
            std::string::npos);
}

}  // namespace
}  // namespace bba
