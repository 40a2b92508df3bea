// Checkpoint/resume and sharded runs (exp/checkpoint.hpp): container
// round-trip bit-exactness, corruption detection, the
// run_ab_test_checkpointed equivalence contract (chunked / killed+resumed
// / sharded+merged runs all land on the uninterrupted run's bits), and
// resume validation of the run identity.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "alloc_budget.hpp"
#include "exp/abtest.hpp"
#include "exp/checkpoint.hpp"
#include "exp/population.hpp"
#include "media/video.hpp"
#include "obs/btrace.hpp"
#include "obs/obs.hpp"
#include "obs/setup.hpp"
#include "obs/timeline.hpp"
#include "seq/engine.hpp"
#include "sim/metrics.hpp"
#include "util/binio.hpp"

namespace bba::exp {
namespace {

using testing_support::AllocationBudget;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

bool cells_bit_equal(const AbTestResult& a, const AbTestResult& b) {
  if (a.group_names != b.group_names) return false;
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t g = 0; g < a.cells.size(); ++g) {
    if (a.cells[g].size() != b.cells[g].size()) return false;
    for (std::size_t d = 0; d < a.cells[g].size(); ++d) {
      for (std::size_t w = 0; w < a.cells[g][d].size(); ++w) {
        const WindowMetrics& x = a.cells[g][d][w];
        const WindowMetrics& y = b.cells[g][d][w];
        if (bits(x.play_hours) != bits(y.play_hours) ||
            bits(x.rebuffer_count) != bits(y.rebuffer_count) ||
            bits(x.rebuffer_s) != bits(y.rebuffer_s) ||
            bits(x.avg_rate_bps) != bits(y.avg_rate_bps) ||
            bits(x.startup_rate_bps) != bits(y.startup_rate_bps) ||
            bits(x.steady_rate_bps) != bits(y.steady_rate_bps) ||
            bits(x.switch_count) != bits(y.switch_count) ||
            bits(x.steady_play_hours) != bits(y.steady_play_hours) ||
            bits(x.fault_stall_count) != bits(y.fault_stall_count) ||
            x.sessions != y.sessions) {
          return false;
        }
      }
    }
  }
  return true;
}

TEST(CheckpointOptions, ParseShard) {
  CheckpointOptions o;
  EXPECT_TRUE(o.parse_shard("1/1"));
  EXPECT_EQ(o.shard_index, 1u);
  EXPECT_EQ(o.shard_count, 1u);
  EXPECT_TRUE(o.parse_shard("3/8"));
  EXPECT_EQ(o.shard_index, 3u);
  EXPECT_EQ(o.shard_count, 8u);
  EXPECT_TRUE(o.sharded());

  for (const char* bad :
       {"", "0/4", "5/4", "a/b", "2", "2/", "/3", "1/0", "1/2/3", "-1/2",
        " 1/2", "+1/2", "1/ 2", "1/18446744073709551616",
        "18446744073709551617/18446744073709551618"}) {
    CheckpointOptions fresh;
    EXPECT_FALSE(fresh.parse_shard(bad)) << bad;
  }

  // The --shard flag reads through parse_shard; a malformed value is a
  // usage error.
  std::string tool = "tool", flag = "--shard", good = "2/3", pony = "pony";
  char* argv[] = {tool.data(), flag.data(), good.data()};
  int i = 1;
  CheckpointOptions flagged;
  EXPECT_TRUE(flagged.consume_arg(3, argv, i));
  EXPECT_EQ(i, 2);
  EXPECT_EQ(flagged.shard_index, 2u);
  EXPECT_EQ(flagged.shard_count, 3u);
  argv[2] = pony.data();
  i = 1;
  EXPECT_EXIT(flagged.consume_arg(3, argv, i), testing::ExitedWithCode(2),
              "--shard: expects K/M with 1 <= K <= M, got 'pony'");
}

// The keys a run derives from their index must be the canonical
// shard-filtered sequence the run used to materialize up front: the same
// key at every index, at every shard count (including ones that do not
// divide the cell count).
TEST(ShardKeys, MatchTheMaterializedSequenceAtEveryIndex) {
  for (const std::size_t days : {1, 3}) {
    AbTestConfig cfg;
    cfg.days = days;
    cfg.sessions_per_window = 7;
    cfg.seed = 99;
    for (std::size_t count = 1; count <= 5; ++count) {
      for (std::size_t index = 1; index <= count; ++index) {
        CheckpointOptions opts;
        opts.shard_index = index;
        opts.shard_count = count;
        std::vector<SessionKey> expected;
        for (std::size_t day = 0; day < cfg.days; ++day) {
          for (std::size_t window = 0; window < kWindowsPerDay; ++window) {
            if ((day * kWindowsPerDay + window) % count != index - 1) continue;
            for (std::size_t user = 0; user < cfg.sessions_per_window;
                 ++user) {
              expected.push_back(SessionKey{cfg.seed, day, window, user});
            }
          }
        }
        ASSERT_EQ(shard_key_count(cfg, opts), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
          const SessionKey key = shard_key(cfg, opts, i);
          const SessionKey& want = expected[i];
          ASSERT_TRUE(key.seed == want.seed && key.day == want.day &&
                      key.window == want.window &&
                      key.session == want.session)
              << "shard " << index << "/" << count << ", days " << days
              << ", key " << i;
        }
      }
    }
  }
}

/// A fixed-run checkpoint with adversarial double bit patterns, a
/// populated timeline, and trace state -- every section exercised.
Checkpoint sample_checkpoint() {
  Checkpoint ck;
  ck.kind = 0;
  ck.seed = 0xdeadbeef;
  ck.days = 2;
  ck.windows_per_day = kWindowsPerDay;
  ck.sessions_per_window = 5;
  ck.total_keys = 2 * kWindowsPerDay * 5;
  ck.cursor = 37;
  ck.groups = {"control", "bba2"};
  ck.cells.assign(2, std::vector<std::vector<WindowMetrics>>(
                         2, std::vector<WindowMetrics>(kWindowsPerDay)));
  // Bit patterns that punish any text round trip: negative zero, a
  // denormal, a value with no short decimal form, and huge magnitudes.
  WindowMetrics& cell = ck.cells[1][0][3];
  cell.play_hours = 0.1;
  cell.rebuffer_count = -0.0;
  cell.rebuffer_s = 5e-324;
  cell.avg_rate_bps = 1.0 / 3.0;
  cell.startup_rate_bps = 1e300;
  cell.steady_rate_bps = -2.5e-10;
  cell.switch_count = 3.0;
  cell.steady_play_hours = 0.30000000000000004;
  cell.fault_stall_count = 1.0;
  cell.sessions = 4;
  ck.cells[0][1][11].sessions = 1;
  ck.cells[0][1][11].play_hours = 2.0;

  ck.has_timeline = true;
  ck.timeline.begin_run(ck.seed, ck.groups, 2, kWindowsPerDay);
  sim::SessionMetrics m;
  m.play_s = 1234.5;
  m.join_s = 1.25;
  m.rebuffer_count = 2;
  m.rebuffer_s = 3.5;
  m.avg_rate_bps = 2.1e6;
  m.avg_buffer_s = 17.0;
  m.switch_count = 5;
  ck.timeline.record(0, 3, 1, m);
  m.abandoned = true;
  ck.timeline.record(1, 11, 0, m);

  ck.has_trace = true;
  ck.trace.format = "jsonl";
  ck.trace.sample = 4;
  ck.trace.anomaly_rebuffer_s = 30.0;
  ck.trace.sessions_written = 9;
  ck.trace.anomalies_written = 2;
  ck.trace.bytes_written = 4096;
  ck.trace.write_errors = 0;
  ck.trace.file_size = 4096;
  return ck;
}

TEST(CheckpointContainer, FixedRunRoundTripIsBitExact) {
  const Checkpoint ck = sample_checkpoint();
  const std::string bytes = serialize_checkpoint(ck);

  Checkpoint back;
  std::string error;
  ASSERT_TRUE(parse_checkpoint(bytes, &back, &error)) << error;
  EXPECT_EQ(back.kind, ck.kind);
  EXPECT_EQ(back.seed, ck.seed);
  EXPECT_EQ(back.days, ck.days);
  EXPECT_EQ(back.windows_per_day, ck.windows_per_day);
  EXPECT_EQ(back.sessions_per_window, ck.sessions_per_window);
  EXPECT_EQ(back.total_keys, ck.total_keys);
  EXPECT_EQ(back.cursor, ck.cursor);
  EXPECT_FALSE(back.complete());
  EXPECT_EQ(back.groups, ck.groups);

  const WindowMetrics& a = ck.cells[1][0][3];
  const WindowMetrics& b = back.cells[1][0][3];
  EXPECT_EQ(bits(a.play_hours), bits(b.play_hours));
  EXPECT_EQ(bits(a.rebuffer_count), bits(b.rebuffer_count));  // -0.0 kept
  EXPECT_EQ(bits(a.rebuffer_s), bits(b.rebuffer_s));          // denormal
  EXPECT_EQ(bits(a.avg_rate_bps), bits(b.avg_rate_bps));
  EXPECT_EQ(bits(a.startup_rate_bps), bits(b.startup_rate_bps));
  EXPECT_EQ(bits(a.steady_rate_bps), bits(b.steady_rate_bps));
  EXPECT_EQ(bits(a.steady_play_hours), bits(b.steady_play_hours));
  EXPECT_EQ(a.sessions, b.sessions);

  ASSERT_TRUE(back.has_timeline);
  EXPECT_EQ(back.timeline.to_json(), ck.timeline.to_json());
  ASSERT_TRUE(back.has_trace);
  EXPECT_EQ(back.trace.format, "jsonl");
  EXPECT_EQ(back.trace.sample, 4u);
  EXPECT_EQ(back.trace.file_size, 4096u);

  // Serialization is a pure function of the state: re-serializing the
  // parsed checkpoint reproduces the exact bytes.
  EXPECT_EQ(serialize_checkpoint(back), bytes);
}

TEST(CheckpointContainer, SeqRunRoundTrip) {
  Checkpoint ck;
  ck.kind = 1;
  ck.seed = 7;
  ck.days = 1;
  ck.windows_per_day = kWindowsPerDay;
  ck.sessions_per_window = 30;
  ck.total_keys = 720;
  ck.cursor = 240;
  ck.groups = {"control", "rmin-always"};
  ck.cells.assign(2, std::vector<std::vector<WindowMetrics>>(
                         1, std::vector<WindowMetrics>(kWindowsPerDay)));
  ck.has_seq = true;
  ck.seq.rounds = 4;
  ck.seq.sessions_used = 240;
  ck.seq.budget_sessions = 720;
  ck.seq.next_key = 120;
  ck.seq.batch_sessions = 30;
  ck.seq.min_batches = 2;
  ck.seq.baseline = 0;
  ck.seq.confidence = 0.95;
  ck.seq.metric = "rate";
  ck.seq.verdict = "";
  CheckpointSeq::Arm arm;
  arm.candidate = true;
  arm.n = 120;
  arm.mean = -0.125;
  arm.m2 = 17.5;
  arm.lo = -0.5;
  arm.hi = 0.25;
  ck.seq.arms = {CheckpointSeq::Arm{}, arm};
  ck.seq.decision_log = "{\"round\":1}\n{\"round\":2}\n";

  const std::string bytes = serialize_checkpoint(ck);
  Checkpoint back;
  std::string error;
  ASSERT_TRUE(parse_checkpoint(bytes, &back, &error)) << error;
  ASSERT_TRUE(back.has_seq);
  EXPECT_EQ(back.seq.rounds, 4u);
  EXPECT_EQ(back.seq.metric, "rate");
  ASSERT_EQ(back.seq.arms.size(), 2u);
  EXPECT_EQ(back.seq.arms[1].n, 120);
  EXPECT_EQ(bits(back.seq.arms[1].mean), bits(-0.125));
  EXPECT_EQ(bits(back.seq.arms[1].m2), bits(17.5));
  EXPECT_EQ(back.seq.decision_log, ck.seq.decision_log);
  EXPECT_EQ(serialize_checkpoint(back), bytes);
}

TEST(CheckpointContainer, DetectsCorruptionAndTruncation) {
  const std::string bytes = serialize_checkpoint(sample_checkpoint());
  Checkpoint out;
  std::string error;

  // Flip one payload byte (inside the first section, past the 16-byte
  // header and 12-byte framing): the section CRC must catch it.
  std::string corrupt = bytes;
  corrupt[40] = static_cast<char>(corrupt[40] ^ 0x20);
  EXPECT_FALSE(parse_checkpoint(corrupt, &out, &error));
  EXPECT_FALSE(error.empty());

  // Truncation at any point: bad trailer.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{10},
                                 bytes.size() / 2, bytes.size() - 1}) {
    error.clear();
    EXPECT_FALSE(parse_checkpoint(bytes.substr(0, keep), &out, &error))
        << "keep=" << keep;
    EXPECT_FALSE(error.empty());
  }

  // Wrong magic.
  std::string magic = bytes;
  magic[0] = 'X';
  EXPECT_FALSE(parse_checkpoint(magic, &out, &error));
}

/// `bytes` with the first section's footer offset replaced and the footer
/// CRC recomputed, so only that offset is wrong.
std::string with_first_section_at(const std::string& bytes,
                                  std::uint64_t offset) {
  const auto* base = reinterpret_cast<const unsigned char*>(bytes.data());
  util::FooterSpan span;
  EXPECT_EQ(util::locate_footer(
                base + bytes.size() - util::kContainerTrailerSize,
                bytes.size(), kCkptTrailerMagic, &span),
            nullptr);
  util::Cursor c{base + span.begin, base + span.begin + span.length};
  const std::uint64_t n = c.varint();
  std::string body;
  util::put_varint(body, n);
  for (std::uint64_t i = 0; i < n; ++i) {
    util::put_u32(body, c.u32());
    const std::uint64_t original = c.varint();
    util::put_varint(body, i == 0 ? offset : original);
    util::put_varint(body, c.varint());
  }
  std::string out = bytes.substr(0, span.records_end());
  util::put_footer(out, kCkptFooterMagic, body, kCkptTrailerMagic);
  return out;
}

TEST(CheckpointContainer, RejectsAWrappingSectionOffsetBeforeReading) {
  const std::string bytes = serialize_checkpoint(sample_checkpoint());
  // The rewriter is exact: RUN0 sits right after the 16-byte header.
  ASSERT_EQ(with_first_section_at(bytes, util::kContainerHeaderSize), bytes);

  // offset + length wraps past 2^64 back into the file; reading the
  // section would start 4 KiB before the buffer.
  Checkpoint out;
  std::string error;
  EXPECT_FALSE(parse_checkpoint(
      with_first_section_at(bytes, ~std::uint64_t{0} - 4095), &out, &error));
  EXPECT_NE(error.find("corrupt footer"), std::string::npos) << error;
}

/// A checkpoint container holding exactly the given (magic, payload)
/// sections, in order.
std::string container_of(
    const std::vector<std::pair<std::uint32_t, std::string>>& sections) {
  std::string out, body;
  util::put_header(out, kCkptMagic, kCkptVersion);
  util::put_varint(body, sections.size());
  for (const auto& [magic, payload] : sections) {
    util::put_u32(body, magic);
    util::put_varint(body, out.size());
    util::put_varint(body, util::kRecordFramingSize + payload.size());
    util::put_record(out, magic, payload);
  }
  util::put_footer(out, kCkptFooterMagic, body, kCkptTrailerMagic);
  return out;
}

void put_group_list(std::string& p, std::uint64_t n) {
  util::put_varint(p, n);
  for (std::uint64_t g = 0; g < n; ++g) util::put_string(p, "g");
}

/// A RUN0 payload declaring a days x windows x groups grid.
std::string run_payload(std::uint64_t days, std::uint64_t windows,
                        std::uint64_t groups) {
  std::string p;
  util::put_u32(p, 0);  // kind
  for (const std::uint64_t v : {std::uint64_t{7}, days, windows,
                                std::uint64_t{1}, std::uint64_t{1},
                                std::uint64_t{1}, std::uint64_t{0},
                                std::uint64_t{0}}) {
    util::put_varint(p, v);  // seed .. cursor
  }
  put_group_list(p, groups);
  return p;
}

// Each grid dimension passes its own cap, but together they declare 2^44
// cells (terabytes), which the parser must refuse before allocating.
constexpr std::uint64_t kHugeDays = std::uint64_t{1} << 20;
constexpr std::uint64_t kHugeWindows = std::uint64_t{1} << 16;
constexpr std::uint64_t kHugeGroups = 256;

/// Parses `bytes` under a 64 MiB allocation budget: the crafted grid must
/// be rejected cleanly, never reached.
void expect_rejected_without_allocating(const std::string& bytes,
                                        const char* section) {
  Checkpoint out;
  std::string error;
  bool parsed = true;
  {
    AllocationBudget budget(std::size_t{64} << 20);
    EXPECT_NO_THROW(parsed = parse_checkpoint(bytes, &out, &error))
        << section << " attempted the grid allocation";
  }
  EXPECT_FALSE(parsed) << section;
  EXPECT_NE(error.find(section), std::string::npos) << error;
}

TEST(CheckpointContainer, RejectsAHugeRunGridBeforeAllocating) {
  expect_rejected_without_allocating(
      container_of({{kCkptSectionRun,
                     run_payload(kHugeDays, kHugeWindows, kHugeGroups)}}),
      "run section");
}

TEST(CheckpointContainer, RejectsAHugeTimelineGridBeforeAllocating) {
  std::string tlin;
  for (const std::uint64_t v : {std::uint64_t{7}, kHugeDays, kHugeWindows}) {
    util::put_varint(tlin, v);  // seed, days, windows
  }
  put_group_list(tlin, kHugeGroups);
  expect_rejected_without_allocating(
      container_of({{kCkptSectionRun, run_payload(1, kWindowsPerDay, 1)},
                    {kCkptSectionTimeline, tlin}}),
      "timeline section");
}

TEST(CheckpointContainer, RejectsAHugeAlertsGridBeforeAllocating) {
  std::string alrt;
  util::put_string(alrt, "{}");  // spec JSON
  alrt += '\0';                  // deferred
  for (const std::uint64_t v : {std::uint64_t{7}, kHugeDays, kHugeWindows}) {
    util::put_varint(alrt, v);  // seed, days, windows
  }
  put_group_list(alrt, kHugeGroups);
  util::put_varint(alrt, 0);  // consumed
  util::put_varint(alrt, 0);  // open
  expect_rejected_without_allocating(
      container_of({{kCkptSectionRun, run_payload(1, kWindowsPerDay, 1)},
                    {kCkptSectionAlerts, alrt}}),
      "alerts section");
}

TEST(CheckpointContainer, CraftedContainerOfAValidRunParses) {
  // The crafted-section builder itself is sound: a small grid parses.
  Checkpoint out;
  std::string error;
  ASSERT_TRUE(parse_checkpoint(
      container_of({{kCkptSectionRun, run_payload(2, kWindowsPerDay, 3)}}),
      &out, &error))
      << error;
  EXPECT_EQ(out.cells.size(), 3u);
  EXPECT_EQ(out.cells[0].size(), 2u);
  EXPECT_EQ(out.cells[0][0].size(), kWindowsPerDay);
}

TEST(CheckpointContainer, SaveLoadRoundTrip) {
  const Checkpoint ck = sample_checkpoint();
  const std::string path = testing::TempDir() + "/bba_ckpt_roundtrip.ckpt";
  std::string error;
  ASSERT_TRUE(save_checkpoint(ck, path, &error)) << error;
  Checkpoint back;
  ASSERT_TRUE(load_checkpoint(path, &back, &error)) << error;
  EXPECT_EQ(serialize_checkpoint(back), serialize_checkpoint(ck));
  std::remove(path.c_str());

  EXPECT_FALSE(save_checkpoint(ck, "/nonexistent/dir/x.ckpt", &error));
  EXPECT_FALSE(load_checkpoint("/nonexistent/dir/x.ckpt", &back, &error));
}

AbTestConfig tiny_config() {
  AbTestConfig cfg;
  cfg.sessions_per_window = 2;
  cfg.days = 1;
  cfg.seed = 99;
  cfg.threads = 2;
  return cfg;
}

std::vector<Group> tiny_groups() {
  return {{"control", make_control_factory()},
          {"bba2", make_bba2_factory()}};
}

// Each instrument comes up only for its own output: a run that writes a
// trace, a timeline, alerts and checkpoints builds no metrics registry and
// no profiler, and every one of those artifacts is byte-identical to the
// same run with --metrics-out added.
TEST(ObsScope, UnrequestedRegistryAndProfilerStayNull) {
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const std::string base = testing::TempDir() + "/bba_obs_scope";
  const std::vector<std::string> paths = {base + ".btrace",
                                          base + ".timeline.json",
                                          base + ".alerts.jsonl",
                                          base + ".ckpt"};
  auto run = [&](bool metrics) {
    obs::ObsOptions o;
    o.trace_out = paths[0];
    o.trace_format = "btrace";
    o.trace_sample = 2;
    o.timeline_out = paths[1];
    o.alerts_out = paths[2];
    o.alert_spec = "warmup=2,cusum_h=1,ewma_k=1.5";
    if (metrics) o.metrics_out = base + ".metrics.json";
    CheckpointOptions ck;
    ck.out = paths[3];
    ck.every = 7;
    {
      obs::ObsScope scope(o, 2);
      EXPECT_TRUE(scope.ok());
      EXPECT_EQ(scope.handle()->metrics != nullptr, metrics);
      EXPECT_EQ(scope.handle()->profiler, nullptr);
      AbTestResult result;
      std::string error;
      EXPECT_TRUE(run_ab_test_checkpointed(tiny_groups(), lib, tiny_config(),
                                           ck, &result, &error))
          << error;
    }  // the scope writes the trace footer, timeline and alerts here
    std::vector<std::string> bytes(paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
      std::string error;
      EXPECT_TRUE(util::read_file(paths[i], &bytes[i], &error)) << error;
      EXPECT_FALSE(bytes[i].empty()) << paths[i];
      std::remove(paths[i].c_str());
    }
    return bytes;
  };
  const std::vector<std::string> lean = run(false);
  const std::vector<std::string> with_metrics = run(true);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_TRUE(lean[i] == with_metrics[i]) << paths[i] << " differs";
  }
  std::remove((base + ".metrics.json").c_str());
}

TEST(CheckpointedRun, DefaultOptionsMatchRunAbTest) {
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const AbTestResult reference = run_ab_test(tiny_groups(), lib,
                                             tiny_config());
  AbTestResult result;
  std::string error;
  ASSERT_TRUE(run_ab_test_checkpointed(tiny_groups(), lib, tiny_config(),
                                       CheckpointOptions{}, &result, &error))
      << error;
  EXPECT_TRUE(cells_bit_equal(result, reference));
}

TEST(CheckpointedRun, ChunkedRunAndResumeRenderAreByteNeutral) {
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const AbTestResult reference = run_ab_test(tiny_groups(), lib,
                                             tiny_config());
  const std::string path = testing::TempDir() + "/bba_ckpt_chunked.ckpt";

  // Chunking the fold into 7-key blocks (with a save between blocks) must
  // not change a single bit: the fold is strictly sequential either way.
  CheckpointOptions opts;
  opts.out = path;
  opts.every = 7;
  AbTestResult chunked;
  std::string error;
  ASSERT_TRUE(run_ab_test_checkpointed(tiny_groups(), lib, tiny_config(),
                                       opts, &chunked, &error))
      << error;
  EXPECT_TRUE(cells_bit_equal(chunked, reference));

  // The final checkpoint is complete; resuming it re-renders the result
  // without simulating, at a different thread count.
  Checkpoint final_ck;
  ASSERT_TRUE(load_checkpoint(path, &final_ck, &error)) << error;
  EXPECT_TRUE(final_ck.complete());

  CheckpointOptions resume;
  resume.resume = path;
  AbTestConfig cfg = tiny_config();
  cfg.threads = 1;
  AbTestResult rendered;
  ASSERT_TRUE(run_ab_test_checkpointed(tiny_groups(), lib, cfg, resume,
                                       &rendered, &error))
      << error;
  EXPECT_TRUE(cells_bit_equal(rendered, reference));
  std::remove(path.c_str());
}

TEST(CheckpointedRun, ResumeValidatesRunIdentity) {
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const std::string path = testing::TempDir() + "/bba_ckpt_identity.ckpt";
  CheckpointOptions opts;
  opts.out = path;
  AbTestResult result;
  std::string error;
  ASSERT_TRUE(run_ab_test_checkpointed(tiny_groups(), lib, tiny_config(),
                                       opts, &result, &error))
      << error;

  CheckpointOptions resume;
  resume.resume = path;

  AbTestConfig wrong_seed = tiny_config();
  wrong_seed.seed = 100;
  EXPECT_FALSE(run_ab_test_checkpointed(tiny_groups(), lib, wrong_seed,
                                        resume, &result, &error));
  EXPECT_NE(error.find("seed"), std::string::npos) << error;

  AbTestConfig wrong_dims = tiny_config();
  wrong_dims.sessions_per_window = 3;
  EXPECT_FALSE(run_ab_test_checkpointed(tiny_groups(), lib, wrong_dims,
                                        resume, &result, &error));

  std::vector<Group> wrong_groups = tiny_groups();
  wrong_groups[1].name = "bba0";
  EXPECT_FALSE(run_ab_test_checkpointed(wrong_groups, lib, tiny_config(),
                                        resume, &result, &error));

  CheckpointOptions missing;
  missing.resume = "/nonexistent/x.ckpt";
  EXPECT_FALSE(run_ab_test_checkpointed(tiny_groups(), lib, tiny_config(),
                                        missing, &result, &error));
  std::remove(path.c_str());
}

// A resume needs the section of every instrument the run configures: a
// checkpoint saved without a timeline or a trace cannot seed one, and the
// run refuses before it truncates the trace file. Both harnesses resume
// through RunCheckpoints, with the same messages.
TEST(CheckpointedRun, ResumeRejectsACheckpointWithoutAConfiguredSection) {
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const std::string path = testing::TempDir() + "/bba_ckpt_sections.ckpt";
  const std::string trace = testing::TempDir() + "/bba_ckpt_sections.jsonl";
  seq::SeqMetric metric;
  ASSERT_TRUE(seq::seq_metric_by_name("rate", &metric));
  // One run of either harness: fixed, or the sequential engine.
  auto run = [&](bool sequential, const CheckpointOptions& opts,
                 std::string* error) {
    if (!sequential) {
      AbTestResult result;
      return run_ab_test_checkpointed(tiny_groups(), lib, tiny_config(),
                                      opts, &result, error);
    }
    seq::SeqResult result;
    return seq::run_sequential_checkpointed(tiny_groups(), lib, tiny_config(),
                                            metric, seq::SeqConfig{}, opts,
                                            &result, error);
  };
  for (const bool sequential : {false, true}) {
    CheckpointOptions save;
    save.out = path;
    std::string error;
    ASSERT_TRUE(run(sequential, save, &error)) << error;
    std::ofstream(trace) << "kept";
    CheckpointOptions resume;
    resume.resume = path;
    for (const std::string section : {"timeline", "trace"}) {
      SCOPED_TRACE((sequential ? "sequential, " : "fixed, ") + section);
      obs::Observability handle;
      if (section == "timeline") {
        handle.timeline = std::make_unique<obs::TimelineAggregator>();
      } else {
        obs::TraceConfig tc;
        tc.path = trace;
        tc.resume = true;
        handle.trace = std::make_unique<obs::TraceCollector>(tc);
      }
      obs::install(&handle);
      const bool ran = run(sequential, resume, &error);
      obs::install(nullptr);
      EXPECT_FALSE(ran);
      EXPECT_NE(error.find("has no " + section +
                           " section (was the original run started "
                           "without --" +
                           section + "-out?)"),
                std::string::npos)
          << error;
    }
    std::string kept;
    ASSERT_TRUE(util::read_file(trace, &kept, &error)) << error;
    EXPECT_EQ(kept, "kept");
  }
  std::remove(path.c_str());
  std::remove(trace.c_str());
}

TEST(CheckpointedRun, RejectsAGridTooLargeToCheckpointBeforeSimulating) {
  // One day past the largest two-group grid a checkpoint may hold: the
  // run must refuse before it allocates the grid or simulates a session,
  // rather than save checkpoints its own resume would reject.
  const std::uint64_t max_days =
      obs::kMaxGridCells / (2 * kWindowsPerDay);
  std::string error;
  EXPECT_TRUE(check_checkpoint_grid(2, max_days, &error)) << error;

  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const std::string path = testing::TempDir() + "/bba_ckpt_huge.ckpt";
  std::remove(path.c_str());
  AbTestConfig cfg = tiny_config();
  cfg.sessions_per_window = 1;
  cfg.days = static_cast<std::size_t>(max_days + 1);
  CheckpointOptions opts;
  opts.out = path;
  AbTestResult result;
  bool ran = true;
  bool over_budget = false;
  {
    AllocationBudget budget(std::size_t{64} << 20);
    try {
      ran = run_ab_test_checkpointed(tiny_groups(), lib, cfg, opts, &result,
                                     &error);
    } catch (const std::bad_alloc&) {
      over_budget = true;
    }
  }
  EXPECT_FALSE(over_budget) << "the run attempted its grid allocation";
  EXPECT_FALSE(ran);
  EXPECT_NE(error.find("too large to checkpoint"), std::string::npos)
      << error;
  EXPECT_FALSE(std::ifstream(path).good());

  // A run that feeds a timeline or a monitor is held to the same caps with
  // no checkpoint configured: the bba.timeline.v1 and bba.alerts.v1
  // readers apply them, so the run must not write what they refuse.
  seq::SeqMetric metric;
  ASSERT_TRUE(seq::seq_metric_by_name("rate", &metric));
  for (const char* instrument : {"timeline", "monitor", "seq timeline"}) {
    SCOPED_TRACE(instrument);
    obs::Observability handle;
    if (std::string(instrument) == "monitor") {
      handle.monitor = std::make_unique<obs::HealthMonitor>(obs::MonitorSpec{});
    } else {
      handle.timeline = std::make_unique<obs::TimelineAggregator>();
    }
    obs::install(&handle);
    error.clear();
    ran = true;
    over_budget = false;
    {
      AllocationBudget budget(std::size_t{64} << 20);
      try {
        if (std::string(instrument) == "seq timeline") {
          seq::SeqResult seq_result;
          ran = seq::run_sequential_checkpointed(
              tiny_groups(), lib, cfg, metric, seq::SeqConfig{},
              CheckpointOptions{}, &seq_result, &error);
        } else {
          ran = run_ab_test_checkpointed(tiny_groups(), lib, cfg,
                                         CheckpointOptions{}, &result,
                                         &error);
        }
      } catch (const std::bad_alloc&) {
        over_budget = true;
      }
    }
    obs::install(nullptr);
    EXPECT_FALSE(over_budget) << "the run attempted its grid allocation";
    EXPECT_FALSE(ran);
    EXPECT_NE(error.find("timeline or alerts artifact"), std::string::npos)
        << error;
    EXPECT_FALSE(handle.timeline != nullptr && handle.timeline->configured());
  }
}

TEST(CheckpointedRun, ShardsMergeToTheSingleRunCheckpoint) {
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const std::string base = testing::TempDir() + "/bba_ckpt_shard";

  // Unsharded reference run, also writing its final checkpoint.
  CheckpointOptions full_opts;
  full_opts.out = base + "_full.ckpt";
  AbTestResult reference;
  std::string error;
  ASSERT_TRUE(run_ab_test_checkpointed(tiny_groups(), lib, tiny_config(),
                                       full_opts, &reference, &error))
      << error;

  // Three shard partials, alternating thread counts.
  std::vector<Checkpoint> parts(3);
  for (std::size_t k = 1; k <= 3; ++k) {
    CheckpointOptions opts;
    opts.out = base + std::to_string(k) + ".ckpt";
    opts.shard_index = k;
    opts.shard_count = 3;
    AbTestConfig cfg = tiny_config();
    cfg.threads = (k % 2 == 0) ? 2 : 1;
    AbTestResult partial;
    ASSERT_TRUE(run_ab_test_checkpointed(tiny_groups(), lib, cfg, opts,
                                         &partial, &error))
        << error;
    ASSERT_TRUE(load_checkpoint(opts.out, &parts[k - 1], &error)) << error;
    EXPECT_TRUE(parts[k - 1].complete());
    std::remove(opts.out.c_str());
  }

  // The merged partials ARE the unsharded run's checkpoint, byte for byte.
  Checkpoint merged;
  ASSERT_TRUE(merge_checkpoints(parts, &merged, &error)) << error;
  Checkpoint full;
  ASSERT_TRUE(load_checkpoint(full_opts.out, &full, &error)) << error;
  EXPECT_EQ(serialize_checkpoint(merged), serialize_checkpoint(full));

  // And resuming the merged checkpoint renders the reference cells.
  const std::string merged_path = base + "_merged.ckpt";
  ASSERT_TRUE(save_checkpoint(merged, merged_path, &error)) << error;
  CheckpointOptions resume;
  resume.resume = merged_path;
  AbTestResult rendered;
  ASSERT_TRUE(run_ab_test_checkpointed(tiny_groups(), lib, tiny_config(),
                                       resume, &rendered, &error))
      << error;
  EXPECT_TRUE(cells_bit_equal(rendered, reference));
  std::remove(full_opts.out.c_str());
  std::remove(merged_path.c_str());
}

TEST(CheckpointedRun, MergeRejectsBadShardSets) {
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const std::string base = testing::TempDir() + "/bba_ckpt_badmerge";
  std::vector<Checkpoint> parts(2);
  std::string error;
  for (std::size_t k = 1; k <= 2; ++k) {
    CheckpointOptions opts;
    opts.out = base + std::to_string(k) + ".ckpt";
    opts.shard_index = k;
    opts.shard_count = 2;
    AbTestResult partial;
    ASSERT_TRUE(run_ab_test_checkpointed(tiny_groups(), lib, tiny_config(),
                                         opts, &partial, &error))
        << error;
    ASSERT_TRUE(load_checkpoint(opts.out, &parts[k - 1], &error)) << error;
    std::remove(opts.out.c_str());
  }

  Checkpoint merged;
  // Same shard twice.
  EXPECT_FALSE(
      merge_checkpoints({parts[0], parts[0]}, &merged, &error));
  // Missing shard.
  EXPECT_FALSE(merge_checkpoints({parts[0]}, &merged, &error));
  // Mismatched seed.
  Checkpoint reseeded = parts[1];
  reseeded.seed ^= 1;
  EXPECT_FALSE(merge_checkpoints({parts[0], reseeded}, &merged, &error));
  // The honest set still merges.
  EXPECT_TRUE(merge_checkpoints(parts, &merged, &error)) << error;
}

// A reproducible mid-run kill: the child process saves two checkpoints and
// _Exit(3)s right after the second, exactly like the CLI's
// --checkpoint-kill test hook. The parent then resumes the partial file at
// a different thread count and must land on the uninterrupted run's bits.
TEST(CheckpointedRunDeathTest, KillAndResumeReproduceTheRun) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const std::string path = testing::TempDir() + "/bba_ckpt_kill.ckpt";
  std::remove(path.c_str());

  CheckpointOptions kill_opts;
  kill_opts.out = path;
  kill_opts.every = 6;
  kill_opts.kill_after = 2;
  EXPECT_EXIT(
      {
        AbTestConfig cfg = tiny_config();
        cfg.threads = 1;
        AbTestResult result;
        std::string error;
        run_ab_test_checkpointed(tiny_groups(), lib, cfg, kill_opts,
                                 &result, &error);
      },
      testing::ExitedWithCode(3), "");

  Checkpoint partial;
  std::string error;
  ASSERT_TRUE(load_checkpoint(path, &partial, &error)) << error;
  EXPECT_EQ(partial.cursor, 12u);  // killed right after the second save
  EXPECT_FALSE(partial.complete());

  const AbTestResult reference = run_ab_test(tiny_groups(), lib,
                                             tiny_config());
  CheckpointOptions resume;
  resume.resume = path;
  AbTestResult resumed;
  ASSERT_TRUE(run_ab_test_checkpointed(tiny_groups(), lib, tiny_config(),
                                       resume, &resumed, &error))
      << error;
  EXPECT_TRUE(cells_bit_equal(resumed, reference));
  std::remove(path.c_str());
}

/// One checkpointed run of tiny_groups() tracing every session to the
/// btrace file `trace`; a resuming run continues that file, as the CLIs
/// do for --resume.
void traced_btrace_run(const std::string& trace, const CheckpointOptions& opts,
                       std::size_t threads) {
  obs::Observability handle;
  obs::TraceConfig tc;
  tc.path = trace;
  tc.sample = 1;
  tc.resume = opts.resuming();
  handle.trace = std::make_unique<obs::BinaryTraceCollector>(tc);
  obs::install(&handle);
  AbTestConfig cfg = tiny_config();
  cfg.threads = threads;
  AbTestResult result;
  std::string error;
  EXPECT_TRUE(run_ab_test_checkpointed(tiny_groups(),
                                       media::VideoLibrary::standard(11), cfg,
                                       opts, &result, &error))
      << error;
  obs::install(nullptr);
}

// The killed run leaves btrace blocks but no footer; the resumed run's
// collector truncates to the checkpointed offset, rescans the blocks to
// rebuild its index (BinaryTraceCollector::resume_from), and must then
// finish the uninterrupted run's file byte for byte.
TEST(CheckpointedRunDeathTest, BtraceChunkedResumeReproducesTheTrace) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string base = testing::TempDir() + "/bba_ckpt_btrace";
  const std::string path = base + ".ckpt";
  std::remove(path.c_str());
  traced_btrace_run(base + "_full.btrace", CheckpointOptions{}, 2);

  CheckpointOptions kill_opts;
  kill_opts.out = path;
  kill_opts.every = 5;
  kill_opts.kill_after = 2;
  EXPECT_EXIT(traced_btrace_run(base + "_resumed.btrace", kill_opts, 1),
              testing::ExitedWithCode(3), "");

  CheckpointOptions resume;
  resume.resume = path;
  resume.out = path;
  resume.every = 5;
  traced_btrace_run(base + "_resumed.btrace", resume, 2);

  std::string full, resumed, error;
  ASSERT_TRUE(util::read_file(base + "_full.btrace", &full, &error)) << error;
  ASSERT_TRUE(util::read_file(base + "_resumed.btrace", &resumed, &error))
      << error;
  ASSERT_FALSE(full.empty());
  EXPECT_EQ(resumed, full);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bba::exp
