// Golden digests of the session pipeline's observable outputs.
//
// Every digest below is FNV-1a 64 over raw bytes: the IEEE-754 bits of
// every per-session SessionMetrics field, every ChunkRecord/RebufferEvent
// of recorded seek sessions, the exact stdout and trace-file bytes of the
// bba_abtest and bba_paper_report tools and of in-process traced runs, and
// the checkpoint container bytes (every section, plus a checkpointed btrace
// run). The constants were recorded from the reference implementation; any
// change to session semantics, to floating-point evaluation order, or to an
// output format moves at least one of them. A deliberate re-baseline must
// update the constants and say why.
//
// The population is small but covers every execution path of the player:
// all seven paper/comparison groups (BOLA included), outage sessions, a
// faulted run, the TCP slow-start model, give-up and wall-cap abandonment,
// seeks, and ABRs the session player can only reach through the virtual
// RateAdaptation interface.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "abr/bola.hpp"
#include "abr/related_work.hpp"
#include "core/bba2.hpp"
#include "core/map_families.hpp"
#include "exp/abtest.hpp"
#include "exp/block.hpp"
#include "exp/checkpoint.hpp"
#include "exp/population.hpp"
#include "exp/session_key.hpp"
#include "exp/workload.hpp"
#include "media/video.hpp"
#include "net/fault_inject.hpp"
#include "net/trace_gen.hpp"
#include "obs/btrace.hpp"
#include "obs/monitor.hpp"
#include "obs/obs.hpp"
#include "obs/timeline.hpp"
#include "sim/player.hpp"

namespace {

using namespace bba;

struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void value(T v) {
    bytes(&v, sizeof(T));
  }
  void text(const std::string& s) { bytes(s.data(), s.size()); }
};

void mix(Digest& d, const sim::SessionMetrics& m) {
  d.value(m.play_s);
  d.value(m.join_s);
  d.value(m.rebuffer_count);
  d.value(m.rebuffer_s);
  d.value(m.rebuffers_per_hour);
  d.value(m.fault_stall_count);
  d.value(m.avg_rate_bps);
  d.value(m.startup_rate_bps);
  d.value(m.steady_rate_bps);
  d.value(static_cast<std::uint8_t>(m.has_steady));
  d.value(m.switch_count);
  d.value(m.switches_per_hour);
  d.value(m.avg_buffer_s);
  d.value(static_cast<std::uint8_t>(m.abandoned));
  d.value(m.steady_play_s);
}

void mix(Digest& d, const sim::SessionResult& r) {
  for (const sim::ChunkRecord& c : r.chunks) {
    d.value(c.index);
    d.value(c.rate_index);
    d.value(c.rate_bps);
    d.value(c.size_bits);
    d.value(c.request_s);
    d.value(c.finish_s);
    d.value(c.download_s);
    d.value(c.throughput_bps);
    d.value(c.buffer_after_s);
    d.value(c.off_wait_s);
    d.value(c.position_s);
  }
  for (const sim::RebufferEvent& e : r.rebuffers) {
    d.value(e.start_s);
    d.value(e.duration_s);
    d.value(e.chunk_index);
    d.value(static_cast<std::uint8_t>(e.during_fault));
  }
  d.value(r.chunk_duration_s);
  d.value(r.join_s);
  d.value(r.played_s);
  d.value(r.wall_s);
  d.value(static_cast<std::uint8_t>(r.started));
  d.value(static_cast<std::uint8_t>(r.abandoned));
}

/// Reports a mismatch with the recomputed value, so a deliberate
/// re-baseline can copy it.
void expect_digest(const char* what, std::uint64_t got, std::uint64_t want) {
  EXPECT_EQ(got, want) << what << ": got 0x" << std::hex << got;
}

std::vector<exp::Group> seven_groups() {
  std::vector<exp::Group> groups;
  groups.push_back({"control", exp::make_control_factory()});
  groups.push_back({"rmin-always", exp::make_rmin_factory()});
  groups.push_back({"bba0", exp::make_bba0_factory()});
  groups.push_back({"bba1", exp::make_bba1_factory()});
  groups.push_back({"bba2", exp::make_bba2_factory()});
  groups.push_back({"bba-others", exp::make_bba_others_factory()});
  groups.push_back(
      {"bola", [] { return std::make_unique<abr::BolaAbr>(); }});
  return groups;
}

exp::AbTestConfig small_config(std::size_t threads) {
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 8;
  cfg.days = 1;
  cfg.seed = 2014;
  cfg.threads = threads;
  return cfg;
}

/// Digest of every (key, group) session's metrics, folded in canonical
/// order through the harness's block runner.
std::uint64_t harness_digest(const std::vector<exp::Group>& groups,
                             const exp::AbTestConfig& cfg) {
  const media::VideoLibrary library = media::VideoLibrary::standard(2014);
  std::vector<exp::SessionKey> keys;
  for (std::size_t w = 0; w < exp::kWindowsPerDay; ++w) {
    for (std::size_t s = 0; s < cfg.sessions_per_window; ++s) {
      keys.push_back(exp::SessionKey{cfg.seed, 0, w, s});
    }
  }
  exp::SessionBlockRunner runner(groups, library, cfg);
  Digest d;
  std::size_t folded = 0;
  runner.run(keys, [&](std::size_t, std::size_t, const sim::SessionMetrics& m) {
    mix(d, m);
    ++folded;
  });
  runner.finish();
  EXPECT_EQ(folded, keys.size() * groups.size());
  return d.h;
}

TEST(GoldenDigest, SevenGroupsPlain) {
  expect_digest("plain", harness_digest(seven_groups(), small_config(1)),
                0xa653cd5e89963b2aull);
}

TEST(GoldenDigest, SevenGroupsThreadInvariant) {
  EXPECT_EQ(harness_digest(seven_groups(), small_config(1)),
            harness_digest(seven_groups(), small_config(4)));
}

TEST(GoldenDigest, EveryTraceCarriesOutages) {
  exp::AbTestConfig cfg = small_config(2);
  cfg.population.outage_session_fraction = 1.0;
  expect_digest("outages", harness_digest(seven_groups(), cfg), 0x379a7c5c26b3c66full);
}

TEST(GoldenDigest, FaultedRun) {
  exp::AbTestConfig cfg = small_config(2);
  std::string err;
  ASSERT_TRUE(net::parse_fault_plan(
      "outage:every=300,dur=20..35;spike:every=240,depth=0.1..0.3;"
      "failover:every=900,shift=0.4..0.7",
      &cfg.population.faults, &err))
      << err;
  expect_digest("faulted", harness_digest(seven_groups(), cfg), 0x2e7783df508e8550ull);
}

TEST(GoldenDigest, TcpModel) {
  exp::AbTestConfig cfg = small_config(2);
  cfg.player.tcp = net::TcpModelConfig{};
  expect_digest("tcp", harness_digest(seven_groups(), cfg), 0xf0229406a0144be0ull);
}

TEST(GoldenDigest, GiveUpAndWallCap) {
  exp::AbTestConfig cfg = small_config(2);
  cfg.population.outage_session_fraction = 0.5;
  cfg.player.give_up_stall_s = 12.0;
  cfg.player.max_wall_s = 900.0;
  expect_digest("give-up", harness_digest(seven_groups(), cfg), 0x4107b20351fd9ce7ull);
}

TEST(GoldenDigest, VirtualOnlyAbrs) {
  // ABRs whose dynamic type the player cannot name statically: a derived
  // BBA-2, a shaped map, and PID, alongside the exact-type groups.
  struct DerivedBba2 : core::Bba2 {};
  std::vector<exp::Group> groups = seven_groups();
  groups.push_back(
      {"derived-bba2", [] { return std::make_unique<DerivedBba2>(); }});
  groups.push_back({"shaped", [] {
                      return std::make_unique<core::ShapedBba>(
                          core::MapShape::kQuadratic);
                    }});
  groups.push_back({"pid", [] { return std::make_unique<abr::PidAbr>(); }});
  expect_digest("virtual", harness_digest(groups, small_config(2)), 0x621bde1d0a1f601full);
}

TEST(GoldenDigest, SeeksWithGiveUp) {
  const media::VideoLibrary library = media::VideoLibrary::standard(2014);
  exp::PopulationConfig pop_cfg;
  pop_cfg.outage_session_fraction = 0.3;
  const exp::Population population(pop_cfg);
  const exp::WorkloadConfig workload;
  const std::vector<sim::Seek> seeks = {{60.0, 900.0}, {200.0, 120.0},
                                        {420.0, 2400.0}};
  net::TraceScratch scratch;
  net::CapacityTrace trace = net::CapacityTrace::constant(1.0);
  Digest d;
  for (const exp::Group& g : seven_groups()) {
    std::unique_ptr<abr::RateAdaptation> abr = g.factory();
    for (std::size_t s = 0; s < 12; ++s) {
      const exp::SessionKey key{2014, 0, s % exp::kWindowsPerDay, s};
      const exp::UserEnvironment env = population.environment_for(key);
      const exp::SessionSpec spec = exp::session_for(library, workload, key);
      population.trace_for_into(env, key, scratch, trace);
      sim::PlayerConfig cfg;
      cfg.watch_duration_s = spec.watch_duration_s;
      cfg.give_up_stall_s = 15.0;
      mix(d, sim::simulate_session_with_seeks(library.at(spec.video_index),
                                              trace, *abr, seeks, cfg));
    }
  }
  expect_digest("seeks", d.h, 0xe3415ccb7fbea2cfull);
}

// --- Tool output bytes -----------------------------------------------------

std::string slurp(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

/// Runs a shell command and returns its stdout. The exit status goes to
/// `status` when given; otherwise a non-zero exit fails the test.
std::string run(const std::string& cmd, int* status = nullptr) {
  std::string out;
  std::FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) {
    ADD_FAILURE() << "popen failed: " << cmd;
    return out;
  }
  char buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0) out.append(buf, n);
  const int rc = pclose(p);
  if (status != nullptr) {
    *status = rc;
  } else {
    EXPECT_EQ(rc, 0) << cmd;
  }
  return out;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "bba_golden_" + name;
}

const char* kSevenGroups =
    "control,rmin-always,bba0,bba1,bba2,bba-others,bola";

/// bba_abtest stdout and trace bytes at full sampling.
std::uint64_t abtest_digest(const std::string& extra, const char* format,
                            const char* file) {
  const std::string trace = temp_path(file);
  std::remove(trace.c_str());
  const std::string out =
      run(std::string(BBA_ABTEST_BIN) + " --groups " + kSevenGroups +
          " --sessions 3 --days 1 --threads 2 --trace-sample 1" +
          " --trace-format " + format + " --trace-out " + trace + " " +
          extra + " 2>/dev/null");
  const std::string bytes = slurp(trace);
  EXPECT_FALSE(bytes.empty()) << file;
  std::remove(trace.c_str());
  Digest d;
  d.text(out);
  d.value(bytes.size());
  d.text(bytes);
  return d.h;
}

TEST(GoldenDigest, AbtestJsonlTrace) {
  expect_digest("abtest jsonl", abtest_digest("", "jsonl", "plain.jsonl"),
                0x43a9cbf3543476full);
}

TEST(GoldenDigest, AbtestBtrace) {
  expect_digest("abtest btrace", abtest_digest("", "btrace", "plain.btrace"),
                0x5e1582c1ea45291aull);
}

TEST(GoldenDigest, AbtestFaultedJsonlTrace) {
  expect_digest("abtest faulted jsonl",
                abtest_digest("--faults 'outage:every=300,dur=20..35'",
                              "jsonl", "faulted.jsonl"),
                0xcc0e9c61b27dfcdaull);
}

TEST(GoldenDigest, AbtestFaultedBtrace) {
  expect_digest("abtest faulted btrace",
                abtest_digest("--faults 'outage:every=300,dur=20..35'",
                              "btrace", "faulted.btrace"),
                0xe448770081fb2c83ull);
}

/// The metrics digest plus the trace-file bytes of a run traced at 1-in-
/// `sample`, in the collector's format. The bytes go to *bytes_out when
/// given.
std::uint64_t traced_harness_digest(const exp::AbTestConfig& cfg,
                                    bool btrace, std::uint64_t sample,
                                    const char* file,
                                    std::string* bytes_out = nullptr) {
  const std::string path = temp_path(file);
  std::remove(path.c_str());
  obs::Observability handle;
  obs::TraceConfig tc;
  tc.path = path;
  tc.sample = sample;
  // Low enough that unsampled sessions of the small population trip the
  // anomaly capture too.
  tc.anomaly_rebuffer_s = 2.0;
  if (btrace) {
    handle.trace = std::make_unique<obs::BinaryTraceCollector>(tc);
  } else {
    handle.trace = std::make_unique<obs::TraceCollector>(tc);
  }
  obs::install(&handle);
  const std::uint64_t metrics = harness_digest(seven_groups(), cfg);
  obs::install(nullptr);
  handle.trace->finalize();
  handle.trace->flush();

  const std::string bytes = slurp(path);
  std::remove(path.c_str());
  EXPECT_FALSE(bytes.empty()) << file;
  Digest d;
  d.value(metrics);
  d.value(bytes.size());
  d.text(bytes);
  if (bytes_out != nullptr) *bytes_out = bytes;
  return d.h;
}

/// Every key has outages and one in three is sampled, so sessions traced
/// in the simulating pass interleave with unsampled anomaly captures.
exp::AbTestConfig outage_config() {
  exp::AbTestConfig cfg = small_config(2);
  cfg.population.outage_session_fraction = 1.0;
  return cfg;
}

TEST(GoldenDigest, OutagesSampledJsonlTrace) {
  std::string jsonl;
  expect_digest("outages jsonl sample 3",
                traced_harness_digest(outage_config(), false, 3,
                                      "outages.jsonl", &jsonl),
                0x92ed155314a3afadull);
  EXPECT_NE(jsonl.find("\"sampled\":true"), std::string::npos);
  EXPECT_NE(jsonl.find("\"sampled\":false"), std::string::npos);
}

TEST(GoldenDigest, OutagesSampledBtrace) {
  expect_digest("outages btrace sample 3",
                traced_harness_digest(outage_config(), true, 3,
                                      "outages.btrace"),
                0x842b1b1bc98a0bb0ull);
}

TEST(GoldenDigest, PaperReportStdout) {
  // A population this small fails some of the report's shape checks, so
  // the exit status is part of the digest rather than a precondition.
  const std::string report = temp_path("report.md");
  int status = -1;
  const std::string out =
      run(std::string(BBA_PAPER_REPORT_BIN) +
              " --sessions 6 --days 1 --threads 2 --out " + report +
              " 2>/dev/null",
          &status);
  std::remove(report.c_str());
  // Digest from the report heading on: the preamble echoes the temp path.
  const std::size_t body = out.find("# BBA reproduction report");
  ASSERT_NE(body, std::string::npos) << out;
  Digest d;
  d.value(status);
  d.text(out.substr(body));
  expect_digest("paper report", d.h, 0xffd2bc82cceff685ull);
}

// --- Checkpoint container bytes ---------------------------------------------

obs::MonitorSpec tight_monitor_spec() {
  obs::MonitorSpec spec;
  std::string error;
  // Tight bands and instant warmup so the small runs below fire alerts.
  EXPECT_TRUE(obs::MonitorSpec::parse("warmup=2,ewma_k=1.5,cusum_h=1", &spec,
                                      &error))
      << error;
  return spec;
}

/// A checkpoint carrying all six sections (RUN0, CELL, TLIN, TRCE, SEQS,
/// ALRT), with adversarial doubles and live detector state.
exp::Checkpoint six_section_checkpoint() {
  exp::Checkpoint ck;
  ck.kind = 1;
  ck.seed = 0xfeedface;
  ck.days = 2;
  ck.windows_per_day = exp::kWindowsPerDay;
  ck.sessions_per_window = 4;
  ck.shard_index = 2;
  ck.shard_count = 3;
  ck.total_keys = 2 * exp::kWindowsPerDay * 4;
  ck.cursor = 29;
  ck.groups = {"control", "bba2", "we\"ird"};
  ck.cells.assign(3, std::vector<std::vector<exp::WindowMetrics>>(
                         2, std::vector<exp::WindowMetrics>(
                                exp::kWindowsPerDay)));
  exp::WindowMetrics& cell = ck.cells[1][1][7];
  cell.sessions = 3;
  cell.play_hours = 0.1;
  cell.rebuffer_count = -0.0;
  cell.rebuffer_s = 5e-324;
  cell.avg_rate_bps = 1.0 / 3.0;
  cell.startup_rate_bps = 1e300;
  cell.steady_rate_bps = -2.5e-10;
  cell.switch_count = 3.0;
  cell.steady_play_hours = 0.30000000000000004;
  cell.fault_stall_count = 1.0;
  ck.cells[2][0][0].sessions = 1;
  ck.cells[2][0][0].play_hours = 2.0;

  sim::SessionMetrics m;
  m.play_s = 1234.5;
  m.join_s = 1.25;
  m.rebuffer_count = 2;
  m.rebuffer_s = 3.5;
  m.avg_rate_bps = 2.1e6;
  m.avg_buffer_s = 17.0;
  m.switch_count = 5;
  ck.has_timeline = true;
  ck.timeline.begin_run(ck.seed, ck.groups, 2, exp::kWindowsPerDay);
  ck.timeline.record(0, 3, 1, m);
  m.abandoned = true;
  ck.timeline.record(1, 11, 2, m);

  ck.has_trace = true;
  ck.trace.format = "btrace";
  ck.trace.sample = 4;
  ck.trace.anomaly_rebuffer_s = 30.0;
  ck.trace.sessions_written = 9;
  ck.trace.anomalies_written = 2;
  ck.trace.bytes_written = 40960;
  ck.trace.write_errors = 1;
  ck.trace.file_size = 40960;

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
  exp::CheckpointSeq::Arm arm;
  arm.n = 120;
  arm.mean = -0.125;
  arm.m2 = 17.5;
  arm.lo = -0.5;
  arm.hi = 0.25;
  ck.seq.arms = {exp::CheckpointSeq::Arm{}, arm, arm};
  ck.seq.arms[2].candidate = false;
  ck.seq.arms[2].eliminated_round = 3;
  ck.seq.decision_log = "{\"round\":1}\n{\"round\":2}\n";

  obs::HealthMonitor mon(tight_monitor_spec());
  mon.begin_run(ck.seed, ck.groups, 2, exp::kWindowsPerDay);
  for (std::size_t w = 0; w < 5; ++w) {
    for (std::size_t g = 0; g < ck.groups.size(); ++g) {
      sim::SessionMetrics s;
      s.play_s = 100.0;
      s.join_s = w == 4 && g == 1 ? 42.0 : 1.0 + 0.1 * static_cast<double>(w);
      s.avg_rate_bps = 2.0e6;
      mon.record(0, w, g, g, s);
    }
  }
  ck.has_alerts = true;
  ck.alerts = mon.state();
  ck.alerts_spec_json = mon.spec().to_json();
  return ck;
}

TEST(GoldenDigest, CheckpointAllSections) {
  const std::string bytes =
      exp::serialize_checkpoint(six_section_checkpoint());
  Digest d;
  d.value(bytes.size());
  d.text(bytes);
  expect_digest("checkpoint sections", d.h, 0xd186201d07ba3071ull);
}

/// A small checkpointed run with a btrace trace, a timeline and an alerting
/// monitor: the final checkpoint bytes and the finalized trace bytes.
TEST(GoldenDigest, CheckpointedRunWithBtrace) {
  const std::string ckpt = temp_path("run.ckpt");
  const std::string trace = temp_path("run.btrace");
  std::remove(ckpt.c_str());
  std::remove(trace.c_str());
  {
    obs::Observability handle;
    obs::TraceConfig tc;
    tc.path = trace;
    tc.sample = 2;
    handle.trace = std::make_unique<obs::BinaryTraceCollector>(tc);
    handle.timeline = std::make_unique<obs::TimelineAggregator>();
    handle.monitor = std::make_unique<obs::HealthMonitor>(tight_monitor_spec());
    obs::install(&handle);
    exp::CheckpointOptions opts;
    opts.out = ckpt;
    opts.every = 10;
    exp::AbTestResult result;
    std::string error;
    const media::VideoLibrary library = media::VideoLibrary::standard(2014);
    std::vector<exp::Group> groups = seven_groups();
    groups.resize(3);
    EXPECT_TRUE(exp::run_ab_test_checkpointed(groups, library,
                                              small_config(2), opts, &result,
                                              &error))
        << error;
    obs::install(nullptr);
  }
  // The trace must carry an alert capture, so the digest pins the block's
  // alert-marker field too.
  obs::BtraceReader reader;
  std::string error, jsonl;
  ASSERT_TRUE(reader.open(trace, &error)) << error;
  for (std::size_t i = 0; i < reader.session_count(); ++i) {
    ASSERT_TRUE(reader.read_session(i, &jsonl, nullptr, &error)) << error;
  }
  EXPECT_NE(jsonl.find("\"ev\":\"alert\""), std::string::npos);

  const std::string ckpt_bytes = slurp(ckpt);
  const std::string trace_bytes = slurp(trace);
  std::remove(ckpt.c_str());
  std::remove(trace.c_str());
  ASSERT_FALSE(ckpt_bytes.empty());
  ASSERT_FALSE(trace_bytes.empty());
  Digest d;
  d.value(ckpt_bytes.size());
  d.text(ckpt_bytes);
  d.value(trace_bytes.size());
  d.text(trace_bytes);
  expect_digest("checkpointed run", d.h, 0xae76058c64cbf109ull);
}

/// A faulted run in which every key carries outages, traced at a sparse
/// sample with a low anomaly threshold and an alerting monitor: sampled
/// sessions, unsampled anomaly replays and alert captures of faulted
/// sessions in one btrace file. The digest pins the counted cells and the
/// trace bytes.
TEST(GoldenDigest, FaultedOutageRunWithCaptures) {
  const std::string trace = temp_path("faulted_captures.btrace");
  std::remove(trace.c_str());
  exp::AbTestConfig cfg = outage_config();
  std::string error;
  ASSERT_TRUE(net::parse_fault_plan(
      "outage:every=300,dur=20..35;spike:every=240,depth=0.1..0.3",
      &cfg.population.faults, &error))
      << error;
  exp::AbTestResult result;
  {
    obs::Observability handle;
    obs::TraceConfig tc;
    tc.path = trace;
    tc.sample = 7;
    tc.anomaly_rebuffer_s = 2.0;
    handle.trace = std::make_unique<obs::BinaryTraceCollector>(tc);
    handle.monitor = std::make_unique<obs::HealthMonitor>(tight_monitor_spec());
    obs::install(&handle);
    const media::VideoLibrary library = media::VideoLibrary::standard(2014);
    result = exp::run_ab_test(seven_groups(), library, cfg);
    obs::install(nullptr);
  }
  // The trace must carry every kind of session this run can emit.
  obs::BtraceReader reader;
  std::string jsonl;
  ASSERT_TRUE(reader.open(trace, &error)) << error;
  for (std::size_t i = 0; i < reader.session_count(); ++i) {
    ASSERT_TRUE(reader.read_session(i, &jsonl, nullptr, &error)) << error;
  }
  EXPECT_NE(jsonl.find("\"sampled\":true"), std::string::npos);
  EXPECT_NE(jsonl.find("\"sampled\":false"), std::string::npos);
  EXPECT_NE(jsonl.find("\"ev\":\"alert\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"ev\":\"fault\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"fault\":true"), std::string::npos);

  const std::string bytes = slurp(trace);
  std::remove(trace.c_str());
  ASSERT_FALSE(bytes.empty());
  Digest d;
  for (const auto& group : result.cells) {
    for (const auto& day : group) {
      for (const exp::WindowMetrics& w : day) {
        d.value(w.play_hours);
        d.value(w.rebuffer_count);
        d.value(w.rebuffer_s);
        d.value(w.avg_rate_bps);
        d.value(w.startup_rate_bps);
        d.value(w.steady_rate_bps);
        d.value(w.switch_count);
        d.value(w.sessions);
        d.value(w.steady_play_hours);
        d.value(w.fault_stall_count);
      }
    }
  }
  d.value(bytes.size());
  d.text(bytes);
  expect_digest("faulted outage run with captures", d.h,
                0xd0503e9cf4529b56ull);
}

}  // namespace
