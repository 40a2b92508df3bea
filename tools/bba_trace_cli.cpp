// bba_trace: the btrace toolkit -- inspect and convert columnar binary
// session traces written with --trace-format btrace.
//
//   bba_trace cat   FILE [--scan]          binary -> JSONL on stdout, the
//                                          exact bytes the JSONL sink would
//                                          have written for the same run
//   bba_trace stats FILE                   sessions / anomalies / events /
//                                          per-group tallies / compression
//   bba_trace index FILE [--scan]          one line per session from the
//                                          footer index
//   bba_trace pick  FILE DAY,WINDOW,SESSION[,GROUP]
//   bba_trace pick  FILE --nth N           extract session(s) as JSONL
//
// --scan ignores the footer and walks the block framings front-to-back:
// recovery for truncated files, and the cross-check that index and blocks
// agree. `cat` output pipes straight into tools/trace_check.py --trace -.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli_parse.hpp"
#include "obs/btrace.hpp"

namespace {

using bba::obs::BtraceEntry;
using bba::obs::BtraceReader;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s cat   FILE [--scan]   convert to JSONL on stdout\n"
      "       %s stats FILE            summary JSON on stdout\n"
      "       %s index FILE [--scan]   list sessions\n"
      "       %s pick  FILE DAY,WINDOW,SESSION[,GROUP] | --nth N\n"
      "FILE is a btrace container (bba_abtest/bba_session/bba_paper_report\n"
      "--trace-out ... --trace-format btrace). --scan rebuilds the session\n"
      "list from the blocks instead of the footer index (recovers truncated\n"
      "files).\n",
      argv0, argv0, argv0, argv0);
  return 2;
}

bool open_reader(BtraceReader& reader, const std::string& path, bool scan) {
  std::string error;
  const bool ok =
      scan ? reader.open_scan(path, &error) : reader.open(path, &error);
  if (!ok) std::fprintf(stderr, "bba_trace: %s\n", error.c_str());
  return ok;
}

/// Emits session i's JSONL to stdout; false (with stderr message) on
/// corruption or I/O failure.
bool emit_session(BtraceReader& reader, std::size_t i, std::string& buf) {
  buf.clear();
  std::string error;
  if (!reader.read_session(i, &buf, nullptr, &error)) {
    std::fprintf(stderr, "bba_trace: %s\n", error.c_str());
    return false;
  }
  if (std::fwrite(buf.data(), 1, buf.size(), stdout) != buf.size()) {
    std::fprintf(stderr, "bba_trace: write to stdout failed\n");
    return false;
  }
  return true;
}

int cmd_cat(const std::string& path, bool scan) {
  BtraceReader reader;
  if (!open_reader(reader, path, scan)) return 1;
  std::string buf;
  for (std::size_t i = 0; i < reader.session_count(); ++i) {
    if (!emit_session(reader, i, buf)) return 1;
  }
  return 0;
}

int cmd_stats(const std::string& path) {
  BtraceReader reader;
  if (!open_reader(reader, path, /*scan=*/false)) return 1;
  std::uint64_t anomalies = 0, sampled = 0, bytes = 0, jsonl_bytes = 0;
  BtraceReader::SessionCounts totals;
  std::vector<std::uint64_t> group_sessions(reader.groups().size(), 0);
  std::string buf, error;
  for (std::size_t i = 0; i < reader.session_count(); ++i) {
    const BtraceEntry& e = reader.entry(i);
    if (e.anomaly) ++anomalies;
    if (e.sampled) ++sampled;
    bytes += e.length;
    group_sessions[e.group_id] += 1;
    buf.clear();
    BtraceReader::SessionCounts c;
    if (!reader.read_session(i, &buf, &c, &error)) {
      std::fprintf(stderr, "bba_trace: %s\n", error.c_str());
      return 1;
    }
    jsonl_bytes += buf.size();
    totals.chunks += c.chunks;
    totals.stalls += c.stalls;
    totals.offs += c.offs;
    totals.switches += c.switches;
    totals.faults += c.faults;
  }
  std::printf("{\"file\":\"%s\",\"version\":%" PRIu32
              ",\"sessions\":%zu,\"sampled\":%" PRIu64
              ",\"anomalies\":%" PRIu64,
              path.c_str(), reader.version(), reader.session_count(),
              sampled, anomalies);
  std::printf(",\"events\":{\"chunks\":%" PRIu64 ",\"stalls\":%" PRIu64
              ",\"offs\":%" PRIu64 ",\"switches\":%" PRIu64
              ",\"faults\":%" PRIu64 "}",
              totals.chunks, totals.stalls, totals.offs, totals.switches,
              totals.faults);
  std::printf(",\"groups\":{");
  for (std::size_t g = 0; g < reader.groups().size(); ++g) {
    std::printf("%s\"%s\":%" PRIu64, g == 0 ? "" : ",",
                reader.groups()[g].c_str(), group_sessions[g]);
  }
  std::printf("},\"block_bytes\":%" PRIu64 ",\"jsonl_bytes\":%" PRIu64
              ",\"compression\":%.2f}\n",
              bytes, jsonl_bytes,
              bytes > 0 ? static_cast<double>(jsonl_bytes) /
                              static_cast<double>(bytes)
                        : 0.0);
  return 0;
}

int cmd_index(const std::string& path, bool scan) {
  BtraceReader reader;
  if (!open_reader(reader, path, scan)) return 1;
  for (std::size_t i = 0; i < reader.session_count(); ++i) {
    const BtraceEntry& e = reader.entry(i);
    std::printf("%zu seed=%" PRIu64 " day=%" PRIu64 " window=%" PRIu64
                " session=%" PRIu64 " group=%s%s%s offset=%" PRIu64
                " bytes=%" PRIu64 "\n",
                i, e.seed, e.day, e.window, e.session,
                reader.group_name(e.group_id).c_str(),
                e.sampled ? " sampled" : "", e.anomaly ? " anomaly" : "",
                e.offset, e.length);
  }
  return 0;
}

int cmd_pick(const std::string& path, int argc, char** argv) {
  std::uint64_t nth = 0;
  bool by_nth = false;
  std::uint64_t coords[3] = {0, 0, 0};
  std::string group;
  bool by_coords = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--nth") == 0 && i + 1 < argc) {
      by_nth = bba::util::parse_u64(argv[++i], &nth);
      if (!by_nth) {
        std::fprintf(stderr,
                     "bba_trace pick: --nth expects a session index, got "
                     "'%s'\n",
                     argv[i]);
        return 2;
      }
    } else if (bba::tools::parse_coords(argv[i], coords, &group)) {
      by_coords = true;
    } else {
      std::fprintf(stderr,
                   "bba_trace pick: expected DAY,WINDOW,SESSION[,GROUP] or "
                   "--nth N, got '%s'\n",
                   argv[i]);
      return 2;
    }
  }
  if (!by_nth && !by_coords) {
    std::fprintf(stderr,
                 "bba_trace pick: pass DAY,WINDOW,SESSION[,GROUP] or "
                 "--nth N\n");
    return 2;
  }
  BtraceReader reader;
  if (!open_reader(reader, path, /*scan=*/false)) return 1;
  std::string buf;
  if (by_nth) {
    if (nth >= reader.session_count()) {
      std::fprintf(stderr, "bba_trace pick: --nth %" PRIu64 " out of range "
                   "(%zu sessions)\n",
                   nth, reader.session_count());
      return 1;
    }
    return emit_session(reader, static_cast<std::size_t>(nth), buf) ? 0 : 1;
  }
  std::size_t matches = 0;
  for (std::size_t i = 0; i < reader.session_count(); ++i) {
    const BtraceEntry& e = reader.entry(i);
    if (e.day != coords[0] || e.window != coords[1] ||
        e.session != coords[2]) {
      continue;
    }
    if (!group.empty() && reader.group_name(e.group_id) != group) continue;
    if (!emit_session(reader, i, buf)) return 1;
    ++matches;
  }
  if (matches == 0) {
    std::fprintf(stderr,
                 "bba_trace pick: no session %" PRIu64 ",%" PRIu64
                 ",%" PRIu64 "%s%s in %s\n",
                 coords[0], coords[1], coords[2], group.empty() ? "" : ",",
                 group.c_str(), path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const std::string cmd = argv[1];
  const std::string path = argv[2];
  bool scan = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scan") == 0) scan = true;
  }
  if (cmd == "cat") return cmd_cat(path, scan);
  if (cmd == "stats") return cmd_stats(path);
  if (cmd == "index") return cmd_index(path, scan);
  if (cmd == "pick") return cmd_pick(path, argc - 3, argv + 3);
  return usage(argv[0]);
}
