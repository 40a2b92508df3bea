// bba_merge: folds sharded run artifacts back into single-run artifacts.
//
//   bba_merge checkpoints --out merged.ckpt shard1.ckpt ... shardM.ckpt
//   bba_merge traces      --out merged.trace shard1.trace ... shardM.trace
//
// A `--shard K/M` run (bba_abtest / bba_paper_report) writes one
// checkpoint-format partial per shard plus, with tracing on, one trace
// shard. `checkpoints` unions the partials into the checkpoint the
// unsharded run would have written (exp::merge_checkpoints:
// disjoint-cell union, integer-exact timeline merge); `--resume` on that
// file then renders the report/artifacts without simulating. `traces`
// reorders the shard traces into canonical (day, window, session) order,
// which reproduces the unsharded trace file byte for byte -- each
// (day, window) cell lives in exactly one shard, so a stable merge never
// has to interleave within a session. Both JSONL and btrace shards are
// handled; the container footer of a merged btrace is rebuilt by the
// same collector that writes it on a live run.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exp/checkpoint.hpp"
#include "obs/btrace.hpp"
#include "obs/trace.hpp"
#include "util/binio.hpp"

namespace {

using namespace bba;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s checkpoints --out MERGED.ckpt SHARD.ckpt...\n"
      "       %s traces      --out MERGED SHARD...\n"
      "  checkpoints: folds --shard K/M partials into the checkpoint the\n"
      "               unsharded run would have written (docs/checkpoint.md)\n"
      "  traces:      merges shard trace files (JSONL or btrace) into the\n"
      "               byte-identical single-run trace\n",
      argv0, argv0);
  return 2;
}

int merge_checkpoint_files(const std::string& out_path,
                           const std::vector<std::string>& inputs) {
  std::vector<exp::Checkpoint> parts(inputs.size());
  std::string error;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!exp::load_checkpoint(inputs[i], &parts[i], &error)) {
      std::fprintf(stderr, "bba_merge: %s\n", error.c_str());
      return 1;
    }
  }
  exp::Checkpoint merged;
  if (!exp::merge_checkpoints(parts, &merged, &error)) {
    std::fprintf(stderr, "bba_merge: %s\n", error.c_str());
    return 1;
  }
  if (!exp::save_checkpoint(merged, out_path, &error)) {
    std::fprintf(stderr, "bba_merge: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "bba_merge: %zu shards -> %s (%llu keys, %zu groups)\n",
               parts.size(), out_path.c_str(),
               static_cast<unsigned long long>(merged.total_keys),
               merged.groups.size());
  return 0;
}

/// One session's worth of trace bytes (JSONL chunk or btrace block) with
/// its canonical coordinates and a stable tiebreak (source file, order
/// within it). Within one (day, window, session) triple every chunk comes
/// from the same shard -- the cell owns the whole session -- so sorting by
/// coordinates with the in-file order as tiebreak reproduces the
/// unsharded write order exactly.
struct TraceChunk {
  std::uint64_t day = 0, window = 0, session = 0;
  std::size_t file = 0, seq = 0;
  std::size_t begin = 0, end = 0;  ///< byte range in its file's contents

  bool operator<(const TraceChunk& other) const {
    if (day != other.day) return day < other.day;
    if (window != other.window) return window < other.window;
    if (session != other.session) return session < other.session;
    if (file != other.file) return file < other.file;
    return seq < other.seq;
  }
};

/// Parses `"key":<digits>` out of a JSONL session-header line.
bool field_u64(const std::string& line, std::size_t limit, const char* key,
               std::uint64_t* out) {
  const std::string pat = std::string("\"") + key + "\":";
  const std::size_t pos = line.find(pat, 0);
  if (pos == std::string::npos || pos >= limit) return false;
  std::size_t p = pos + pat.size();
  if (p >= limit || line[p] < '0' || line[p] > '9') return false;
  std::uint64_t v = 0;
  while (p < limit && line[p] >= '0' && line[p] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(line[p] - '0');
    ++p;
  }
  *out = v;
  return true;
}

/// Splits one JSONL shard into per-session chunks (header line + its
/// event lines). Event lines belong to the most recent header, so a chunk
/// runs from one `{"ev":"session",...}` line to the next.
bool split_jsonl(const std::string& contents, std::size_t file_index,
                 std::vector<TraceChunk>* chunks, std::string* error) {
  static const char kHeader[] = "{\"ev\":\"session\",";
  std::size_t pos = 0, seq = 0;
  while (pos < contents.size()) {
    if (contents.compare(pos, sizeof kHeader - 1, kHeader) != 0) {
      *error = "line does not start a session header (is this a session "
               "trace?)";
      return false;
    }
    std::size_t line_end = contents.find('\n', pos);
    if (line_end == std::string::npos) line_end = contents.size();
    TraceChunk chunk;
    chunk.file = file_index;
    chunk.seq = seq++;
    chunk.begin = pos;
    if (!field_u64(contents.substr(pos, line_end - pos),
                   line_end - pos, "day", &chunk.day) ||
        !field_u64(contents.substr(pos, line_end - pos),
                   line_end - pos, "window", &chunk.window) ||
        !field_u64(contents.substr(pos, line_end - pos),
                   line_end - pos, "session", &chunk.session)) {
      *error = "session header missing day/window/session";
      return false;
    }
    // Advance past this header's event lines to the next header (or EOF).
    std::size_t next = line_end == contents.size() ? line_end : line_end + 1;
    while (next < contents.size() &&
           contents.compare(next, sizeof kHeader - 1, kHeader) != 0) {
      std::size_t e = contents.find('\n', next);
      next = e == std::string::npos ? contents.size() : e + 1;
    }
    chunk.end = next;
    chunks->push_back(chunk);
    pos = next;
  }
  return true;
}

/// Indexes one btrace shard (footer open, falling back to a block scan for
/// truncated files) and collects its blocks into *contents, each checked
/// for framing, CRC and prefix, so a corrupt shard fails the merge instead
/// of being copied into the output.
bool split_btrace(const std::string& path, std::size_t file_index,
                  std::string* contents, std::vector<TraceChunk>* chunks,
                  std::string* error) {
  obs::BtraceReader reader;
  if (!reader.open(path, error) && !reader.open_scan(path, error)) {
    return false;
  }
  for (std::size_t s = 0; s < reader.session_count(); ++s) {
    const obs::BtraceEntry& e = reader.entry(s);
    TraceChunk chunk;
    chunk.day = e.day;
    chunk.window = e.window;
    chunk.session = e.session;
    chunk.file = file_index;
    chunk.seq = s;
    chunk.begin = contents->size();
    if (!reader.read_block(s, contents, error)) {
      *error = path + ": " + *error;
      return false;
    }
    chunk.end = contents->size();
    chunks->push_back(chunk);
  }
  return true;
}

int merge_trace_files(const std::string& out_path,
                      const std::vector<std::string>& inputs) {
  // All shards of one run share a format; sniff the first and verify the
  // rest agree.
  const bool binary = obs::BtraceReader::sniff(inputs[0]);
  std::vector<std::string> contents(inputs.size());
  std::vector<TraceChunk> chunks;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    // Every error names the file.
    std::string error;
    if (obs::BtraceReader::sniff(inputs[i]) != binary) {
      error = inputs[i] + ": mixed trace formats (jsonl vs btrace)";
    } else if (binary) {
      split_btrace(inputs[i], i, &contents[i], &chunks, &error);
    } else if (util::read_file(inputs[i], &contents[i], &error) &&
               !split_jsonl(contents[i], i, &chunks, &error)) {
      error = inputs[i] + ": " + error;
    }
    if (!error.empty()) {
      std::fprintf(stderr, "bba_merge: %s\n", error.c_str());
      return 1;
    }
  }
  std::sort(chunks.begin(), chunks.end());
  // Replaying the chunks through a fresh collector of the shards' format
  // is the write path of a live unsharded run; for btrace it also
  // re-interns the group table and rebuilds the footer index in the merged
  // order, so the container comes out byte-identical.
  obs::TraceConfig cfg;
  cfg.path = out_path;
  const std::unique_ptr<obs::TraceCollector> collector =
      binary ? std::make_unique<obs::BinaryTraceCollector>(cfg)
             : std::make_unique<obs::TraceCollector>(cfg);
  if (!collector->ok()) {
    std::fprintf(stderr, "bba_merge: cannot write %s\n", out_path.c_str());
    return 1;
  }
  for (const TraceChunk& c : chunks) {
    collector->write(contents[c.file].substr(c.begin, c.end - c.begin));
  }
  collector->finalize();
  collector->flush();
  if (!collector->ok()) {
    std::fprintf(stderr, "bba_merge: write error on %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "bba_merge: %zu sessions from %zu shards -> %s\n",
               chunks.size(), inputs.size(), out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string command = argv[1];
  std::string out_path;
  std::vector<std::string> inputs;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--out needs a value\n");
        return 2;
      }
      out_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      inputs.push_back(arg);
    }
  }
  if (out_path.empty() || inputs.empty()) return usage(argv[0]);
  if (command == "checkpoints") {
    return merge_checkpoint_files(out_path, inputs);
  }
  if (command == "traces") {
    return merge_trace_files(out_path, inputs);
  }
  return usage(argv[0]);
}
