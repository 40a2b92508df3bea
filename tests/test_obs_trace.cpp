// Session tracing: determinism, teeing, anomaly capture, and the
// no-perturbation contract of the A/B harness integration.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "abr/bola.hpp"
#include "core/bba2.hpp"
#include "exp/abtest.hpp"
#include "media/video.hpp"
#include "util/rng.hpp"
#include "net/capacity_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/player.hpp"
#include "sim/session_sink.hpp"

namespace bba {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_path(const char* tag) {
  return testing::TempDir() + "obs_trace_" + tag + ".jsonl";
}

// --- TeeSink --------------------------------------------------------------

/// Records the event sequence as a compact string, e.g. "S C C R E".
class ProbeSink final : public sim::SessionSink {
 public:
  void on_session_start(double) override { log += "S"; }
  void on_chunk(const sim::ChunkRecord&, double) override { log += "C"; }
  void on_rebuffer(const sim::RebufferEvent&) override { log += "R"; }
  void on_session_end(const sim::SessionSummary& s) override {
    log += "E";
    last = s;
  }
  std::string log;
  sim::SessionSummary last;
};

TEST(TeeSink, ForwardsEveryEventToBothSinksInOrder) {
  ProbeSink a, b;
  sim::TeeSink tee(a, b);
  tee.on_session_start(4.0);
  tee.on_chunk(sim::ChunkRecord{}, 0.0);
  tee.on_rebuffer(sim::RebufferEvent{1.0, 2.0, 0});
  sim::SessionSummary sum;
  sum.played_s = 42.0;
  tee.on_session_end(sum);

  EXPECT_EQ(a.log, "SCRE");
  EXPECT_EQ(b.log, "SCRE");
  EXPECT_EQ(a.last.played_s, 42.0);
  EXPECT_EQ(b.last.played_s, 42.0);
}

// --- Sampling determinism -------------------------------------------------

TEST(TraceCollector, SamplingIsAPureFunctionOfCoordinates) {
  obs::TraceConfig cfg;
  cfg.sample = 8;
  obs::TraceCollector a(cfg), b(cfg);
  std::size_t hits = 0;
  for (std::uint64_t s = 0; s < 512; ++s) {
    const bool first = a.sampled(2014, 1, 3, s);
    // Same answer from another collector, in another order, repeatedly.
    EXPECT_EQ(b.sampled(2014, 1, 3, s), first);
    EXPECT_EQ(a.sampled(2014, 1, 3, s), first);
    hits += first;
  }
  // ~1/8 of 512 = 64 expected; allow generous slack.
  EXPECT_GT(hits, 30u);
  EXPECT_LT(hits, 110u);
}

TEST(TraceCollector, SampleEdgeCases) {
  obs::TraceConfig all;
  all.sample = 1;
  obs::TraceCollector every(all);
  EXPECT_TRUE(every.sampled(1, 0, 0, 0));

  obs::TraceConfig none;
  none.sample = 0;  // anomalies-only mode
  obs::TraceCollector anomalies_only(none);
  EXPECT_FALSE(anomalies_only.sampled(1, 0, 0, 0));
}

// --- Anomaly capture ------------------------------------------------------

/// A link that is fast for a minute, then effectively dead: playback
/// starts, the buffer drains mid-download, and the viewer gives up.
net::CapacityTrace cliff_trace() {
  return net::CapacityTrace({{60.0, 8e6}, {36000.0, 1e3}}, false);
}

TEST(SessionTraceSink, AnomalyTriggerFiresOnGiveUp) {
  util::Rng rng(11);
  const media::Video video = media::make_vbr_video(
      "t", media::EncodingLadder::netflix_2013(), 400, 4.0,
      media::VbrConfig{}, rng);
  const net::CapacityTrace trace = cliff_trace();
  core::Bba2 abr;
  sim::PlayerConfig player;
  player.watch_duration_s = 3600.0;
  player.give_up_stall_s = 120.0;  // the viewer walks out mid-stall

  obs::TraceConfig cfg;
  cfg.sample = 0;  // not sampled: only the anomaly trigger can emit
  obs::SessionTraceSink sink;
  sink.begin(cfg, 1, 0, 0, 0, "bba2", /*sampled=*/false);
  sim::simulate_session(video, trace, abr, player, sink);

  EXPECT_TRUE(sink.anomalous());
  EXPECT_TRUE(sink.should_emit());
  std::string out;
  EXPECT_TRUE(sink.finish(&out));
  EXPECT_NE(out.find("\"ev\":\"session\""), std::string::npos);
  EXPECT_NE(out.find("\"anomaly\":true"), std::string::npos);
  EXPECT_NE(out.find("\"abandoned\":true"), std::string::npos);
  EXPECT_NE(out.find("\"ev\":\"chunk\""), std::string::npos);
}

TEST(SessionTraceSink, HealthySessionUnsampledEmitsNothing) {
  util::Rng rng(11);
  const media::Video video = media::make_vbr_video(
      "t", media::EncodingLadder::netflix_2013(), 100, 4.0,
      media::VbrConfig{}, rng);
  const net::CapacityTrace trace = net::CapacityTrace::constant(8e6);
  core::Bba2 abr;
  sim::PlayerConfig player;
  player.watch_duration_s = 120.0;

  obs::TraceConfig cfg;
  cfg.sample = 0;
  obs::SessionTraceSink sink;
  sink.begin(cfg, 1, 0, 0, 0, "bba2", false);
  sim::simulate_session(video, trace, abr, player, sink);

  EXPECT_FALSE(sink.anomalous());
  EXPECT_FALSE(sink.should_emit());
  std::string out;
  EXPECT_FALSE(sink.finish(&out));
  EXPECT_TRUE(out.empty());
}

// --- Harness integration --------------------------------------------------

exp::AbTestConfig tiny_config(std::size_t threads) {
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 3;
  cfg.days = 1;
  cfg.seed = 99;
  cfg.threads = threads;
  return cfg;
}

std::vector<exp::Group> tiny_groups() {
  std::vector<exp::Group> groups;
  groups.push_back({"control", exp::make_control_factory()});
  groups.push_back({"bba2", exp::make_bba2_factory()});
  return groups;
}

bool results_bitwise_equal(const exp::AbTestResult& a,
                           const exp::AbTestResult& b) {
  if (a.group_names != b.group_names) return false;
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t g = 0; g < a.cells.size(); ++g) {
    if (a.cells[g].size() != b.cells[g].size()) return false;
    for (std::size_t d = 0; d < a.cells[g].size(); ++d) {
      if (a.cells[g][d].size() != b.cells[g][d].size()) return false;
      for (std::size_t w = 0; w < a.cells[g][d].size(); ++w) {
        if (std::memcmp(&a.cells[g][d][w], &b.cells[g][d][w],
                        sizeof(exp::WindowMetrics)) != 0) {
          return false;
        }
      }
    }
  }
  return true;
}

/// Runs the tiny experiment with tracing installed, returns the result and
/// leaves the trace file at `path`.
exp::AbTestResult run_traced(std::size_t threads, const std::string& path,
                             std::uint64_t sample) {
  obs::Observability handle;
  obs::TraceConfig tc;
  tc.path = path;
  tc.sample = sample;
  handle.trace = std::make_unique<obs::TraceCollector>(tc);
  EXPECT_TRUE(handle.trace->ok());
  obs::install(&handle);
  const media::VideoLibrary library = media::VideoLibrary::standard(3);
  exp::AbTestResult result =
      exp::run_ab_test(tiny_groups(), library, tiny_config(threads));
  obs::install(nullptr);
  return result;
}

// At sample 1 every session of every group takes the traced path, which
// plays the ABR through its virtual interface; the untraced path resolves
// each paper group (and BOLA) to its exact type or decision table. Both
// must fold the same cells and count the same registry counters.
TEST(AbTestTracing, TracedRunIsBitIdenticalToUntraced) {
  const std::vector<exp::Group> groups = {
      {"control", exp::make_control_factory()},
      {"rmin-always", exp::make_rmin_factory()},
      {"bba0", exp::make_bba0_factory()},
      {"bba1", exp::make_bba1_factory()},
      {"bba2", exp::make_bba2_factory()},
      {"bba-others", exp::make_bba_others_factory()},
      {"bola", [] { return std::make_unique<abr::BolaAbr>(); }},
  };
  const std::string path = temp_path("identity");
  auto run = [&](bool traced, obs::MetricsSnapshot* counters) {
    obs::Observability handle;
    handle.metrics = std::make_unique<obs::MetricsRegistry>(1);
    if (traced) {
      obs::TraceConfig tc;
      tc.path = path;
      tc.sample = 1;
      handle.trace = std::make_unique<obs::TraceCollector>(tc);
      EXPECT_TRUE(handle.trace->ok());
    }
    obs::install(&handle);
    // A fresh library per run: both build every decision table from cold.
    const media::VideoLibrary library = media::VideoLibrary::standard(3);
    exp::AbTestResult result = exp::run_ab_test(groups, library, tiny_config(1));
    obs::install(nullptr);
    *counters = handle.metrics->snapshot();
    return result;
  };
  obs::MetricsSnapshot plain_counters;
  obs::MetricsSnapshot traced_counters;
  const exp::AbTestResult plain = run(false, &plain_counters);
  const exp::AbTestResult traced = run(true, &traced_counters);
  EXPECT_TRUE(results_bitwise_equal(plain, traced));
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    EXPECT_EQ(plain_counters.counters[i], traced_counters.counters[i])
        << "counter " << i;
  }
  EXPECT_GT(plain_counters.counter(obs::Counter::kReservoirMemoHits), 0u);

  // Every (key, group) session was traced.
  std::istringstream in(read_file(path));
  std::string line;
  std::size_t headers = 0;
  while (std::getline(in, line)) {
    headers += line.find("\"ev\":\"session\"") != std::string::npos;
  }
  EXPECT_EQ(headers, groups.size() * exp::kWindowsPerDay *
                         tiny_config(1).sessions_per_window);
}

TEST(AbTestTracing, TraceFileBytesIdenticalAcrossThreadCounts) {
  const std::size_t hw = runtime::ThreadPool::hardware_threads();
  const std::string p1 = temp_path("t1");
  const std::string p4 = temp_path("t4");
  const std::string phw = temp_path("thw");

  const exp::AbTestResult r1 = run_traced(1, p1, 2);
  const exp::AbTestResult r4 = run_traced(4, p4, 2);
  const exp::AbTestResult rhw = run_traced(hw, phw, 2);

  EXPECT_TRUE(results_bitwise_equal(r1, r4));
  EXPECT_TRUE(results_bitwise_equal(r1, rhw));

  const std::string bytes1 = read_file(p1);
  ASSERT_FALSE(bytes1.empty());
  EXPECT_EQ(bytes1, read_file(p4));
  EXPECT_EQ(bytes1, read_file(phw));

  // The sampled session-ID set is deterministic: every sampled header in
  // the file must agree with the collector's pure decision function.
  obs::TraceConfig tc;
  tc.sample = 2;
  obs::TraceCollector collector(tc);
  std::istringstream in(bytes1);
  std::string line;
  std::size_t headers = 0;
  while (std::getline(in, line)) {
    if (line.find("\"ev\":\"session\"") == std::string::npos) continue;
    ++headers;
    unsigned long long day = 0, window = 0, session = 0;
    ASSERT_EQ(std::sscanf(line.c_str() + line.find("\"day\":") + 6, "%llu",
                          &day),
              1);
    ASSERT_EQ(std::sscanf(line.c_str() + line.find("\"window\":") + 9, "%llu",
                          &window),
              1);
    ASSERT_EQ(std::sscanf(line.c_str() + line.find("\"session\":") + 10,
                          "%llu", &session),
              1);
    if (line.find("\"sampled\":true") != std::string::npos) {
      EXPECT_TRUE(collector.sampled(99, day, window, session));
    } else {
      EXPECT_NE(line.find("\"anomaly\":true"), std::string::npos);
      EXPECT_FALSE(collector.sampled(99, day, window, session));
    }
  }
  EXPECT_GT(headers, 0u);
}

TEST(AbTestTracing, SampleOneTracesEveryGroupOfEverySession) {
  const std::string path = temp_path("all");
  exp::AbTestConfig cfg = tiny_config(2);
  const exp::AbTestResult result = run_traced(2, path, 1);
  (void)result;
  const std::string bytes = read_file(path);
  std::istringstream in(bytes);
  std::string line;
  std::size_t headers = 0;
  while (std::getline(in, line)) {
    headers += line.find("\"ev\":\"session\"") != std::string::npos;
  }
  // Every (task, group) pair appears exactly once, in canonical order.
  EXPECT_EQ(headers, cfg.sessions_per_window * exp::kWindowsPerDay *
                         cfg.days * tiny_groups().size());
}

}  // namespace
}  // namespace bba
