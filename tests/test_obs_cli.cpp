// Tests for the bba_obs CLI's shared pieces: the strict bba.timeline.v1
// reader (obs::parse_timeline, which rebuilds the writer's own
// TimelineAggregator), the skipped-cell accounting in normalized_samples
// (bba_obs diff used to silently thin sparse grids), the one number rule
// behind every numeric flag (util::parse_u64 plus the tools/cli_parse.hpp
// bounds and shared flag reader), and the bba.alerts.v1 parser behind
// `bba_obs health` -- plus the harness tools' exit status when an artifact
// cannot be written, and the benches' when a flag is malformed.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "alerts_artifact.hpp"
#include "cli_parse.hpp"
#include "obs_artifact.hpp"
#include "obs/monitor.hpp"
#include "obs/timeline.hpp"
#include "sim/metrics.hpp"
#include "util/csv.hpp"

namespace bba::tools {
namespace {

TEST(CliParse, U64AndCounts) {
  std::uint64_t u = 0;
  EXPECT_TRUE(util::parse_u64("42", &u));
  EXPECT_EQ(u, 42u);
  EXPECT_TRUE(util::parse_u64("0", &u));
  EXPECT_TRUE(util::parse_u64("18446744073709551615", &u));
  EXPECT_EQ(u, UINT64_MAX);
  // strtoull would clamp 2^64 and above to ULLONG_MAX, skip the leading
  // whitespace, and wrap "-5".
  for (const char* bad : {"", "-5", "+5", "4x", "x4", " 4", "4 ", "\t4",
                          "18446744073709551616", "99999999999999999999"}) {
    u = 7;
    EXPECT_FALSE(util::parse_u64(bad, &u)) << bad;
    EXPECT_EQ(u, 7u) << "a rejected token must not write: " << bad;
  }

  std::size_t n = 0;
  EXPECT_TRUE(parse_count("7", &n));
  EXPECT_EQ(n, 7u);
  EXPECT_FALSE(parse_count("0", &n));
  EXPECT_FALSE(parse_count("-1", &n));
  EXPECT_TRUE(parse_count0("0", &n));
  EXPECT_EQ(n, 0u);

  // The shared flag reader applies the same rule, and a malformed value is
  // a usage error: one line, exit 2.
  auto consume = [](std::vector<std::string> args, exp::AbTestConfig* cfg,
                    exp::CheckpointOptions* ckpt) {
    args.insert(args.begin(), "tool");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    const int argc = static_cast<int>(argv.size());
    for (int i = 1; i < argc; ++i) {
      if (!consume_experiment_arg(argc, argv.data(), i, cfg) &&
          !ckpt->consume_arg(argc, argv.data(), i)) {
        return false;
      }
    }
    return true;
  };
  exp::AbTestConfig cfg;
  exp::CheckpointOptions ckpt;
  EXPECT_TRUE(consume({"--sessions", "7", "--days", "2", "--seed", "9",
                       "--threads", "0", "--checkpoint-every", "5",
                       "--faults", "outage:every=300"},
                      &cfg, &ckpt));
  EXPECT_EQ(cfg.sessions_per_window, 7u);
  EXPECT_EQ(cfg.days, 2u);
  EXPECT_EQ(cfg.seed, 9u);
  EXPECT_EQ(cfg.threads, 0u);
  EXPECT_EQ(ckpt.every, 5u);
  EXPECT_FALSE(cfg.population.faults.empty());
  EXPECT_FALSE(consume({"--bogus"}, &cfg, &ckpt));
  // A subset reader leaves the other flags to the caller.
  std::vector<std::string> seed_arg = {"tool", "--seed", "3"};
  std::vector<char*> seed_argv = {seed_arg[0].data(), seed_arg[1].data(),
                                  seed_arg[2].data()};
  int at = 1;
  EXPECT_FALSE(consume_experiment_arg(3, seed_argv.data(), at, &cfg,
                                      kThreadsFlag));
  EXPECT_EQ(at, 1);
  EXPECT_EXIT(consume({"--checkpoint-every", "0"}, &cfg, &ckpt),
              testing::ExitedWithCode(2),
              "--checkpoint-every: expects a positive key count, got '0'");
  EXPECT_EXIT(consume({"--faults", "junk"}, &cfg, &ckpt),
              testing::ExitedWithCode(2), "--faults: unknown fault kind");
  EXPECT_EXIT(consume({"--sessions", "pony"}, &cfg, &ckpt),
              testing::ExitedWithCode(2),
              "--sessions: expects a positive session count");
  EXPECT_EXIT(consume({"--threads"}, &cfg, &ckpt), testing::ExitedWithCode(2),
              "--threads needs a value");
}

TEST(CliParse, UnitOpenRejectsGarbageAndBounds) {
  double v = 0.0;
  EXPECT_TRUE(parse_unit_open("0.95", &v));
  EXPECT_DOUBLE_EQ(v, 0.95);
  EXPECT_TRUE(parse_unit_open("1e-3", &v));
  // atof would have accepted every one of these as 0.0 or worse.
  for (const char* bad :
       {"pony", "", "0", "1", "1.0", "0.0", "-0.5", "2", "0.5x", "nan"}) {
    EXPECT_FALSE(parse_unit_open(bad, &v)) << bad;
  }
}

/// The real writer/reader contract: an artifact rendered by
/// obs::TimelineAggregator::to_json() parses back into the same state,
/// byte for byte.
TEST(ObsArtifact, ParsesAggregatorOutput) {
  obs::TimelineAggregator agg;
  agg.begin_run(77, {"control", "bba2"}, 2, 12);
  sim::SessionMetrics m;
  m.play_s = 600.0;
  m.join_s = 1.5;
  m.rebuffer_count = 3;
  m.rebuffer_s = 4.5;
  m.avg_rate_bps = 3.0e6;
  m.avg_buffer_s = 20.0;
  m.switch_count = 2;
  agg.record(0, 5, 0, m);
  agg.record(0, 5, 1, m);
  m.abandoned = true;
  m.rebuffer_count = 0;
  agg.record(1, 11, 1, m);

  const std::string text = agg.to_json();
  obs::TimelineAggregator a;
  std::string error;
  ASSERT_TRUE(obs::parse_timeline(text, "mem", &a, &error)) << error;
  EXPECT_EQ(a.to_json(), text);
  EXPECT_EQ(a.seed(), 77u);
  EXPECT_EQ(a.days(), 2u);
  EXPECT_EQ(a.windows_per_day(), 12u);
  ASSERT_EQ(a.num_groups(), 2u);
  EXPECT_EQ(a.group_names()[0], "control");
  EXPECT_EQ(a.group_names()[1], "bba2");
  EXPECT_EQ(a.cell(0, 5, 0).sessions, 1u);
  EXPECT_EQ(a.cell(0, 5, 0).rebuffers, 3u);
  EXPECT_EQ(a.cell(0, 5, 0).play_micro, 600000000u);
  EXPECT_TRUE(a.cell(0, 4, 0).empty());
  // Group 1 recorded two sessions; its rate sketch holds both.
  EXPECT_EQ(a.sketches(1).rate_bps.count(), 2u);

  EXPECT_EQ(a.group_total(0).sessions, 1u);
  EXPECT_EQ(a.group_total(1).sessions, 2u);
  EXPECT_EQ(a.group_total(1).abandoned, 1u);
  const std::vector<obs::TimelineCell> by_window = merged_by_window(a);
  ASSERT_EQ(by_window.size(), 12u * 2u);
  EXPECT_EQ(by_window[5 * 2 + 0].sessions, 1u);
  EXPECT_EQ(by_window[11 * 2 + 1].sessions, 1u);

  // A file carries the newline the writer appends.
  obs::TimelineAggregator from_file;
  ASSERT_TRUE(obs::parse_timeline(text + "\n", "mem", &from_file, &error))
      << error;
  EXPECT_EQ(from_file.to_json(), text);
}

TEST(ObsArtifact, RejectsMalformedInput) {
  obs::TimelineAggregator agg;
  agg.begin_run(1, {"a"}, 1, 12);
  const std::string good = agg.to_json();
  auto rejects = [](const std::string& text, const char* says) {
    obs::TimelineAggregator a;
    std::string error;
    EXPECT_FALSE(obs::parse_timeline(text, "p", &a, &error)) << text;
    EXPECT_NE(error.find("p: "), std::string::npos) << error;
    EXPECT_NE(error.find(says), std::string::npos) << error;
  };
  // Wrong schema tag.
  std::string wrong = good;
  wrong.replace(wrong.find("v1"), 2, "v9");
  rejects(wrong, "expected");

  // Truncation anywhere fails loudly.
  rejects(good.substr(0, good.size() / 2), "expected");

  const std::string head =
      "{\"schema\":\"bba.timeline.v1\",\"seed\":1,\"days\":1,"
      "\"windows_per_day\":12,\"groups\":[\"a\"],\"cells\":[";
  auto cell = [](int window, const char* sessions) {
    return "{\"day\":0,\"window\":" + std::to_string(window) +
           ",\"group\":0,\"sessions\":" + sessions +
           ",\"abandoned\":0,\"rebuffers\":0,\"fault_stalls\":0,"
           "\"switches\":0,\"play_micro\":1,\"rebuffer_micro\":0,"
           "\"join_micro\":0,\"rate_play_kbit\":0}";
  };
  const std::string sketches =
      "],\"sketches\":[{\"group\":0,\"metric\":\"rate_bps\",\"zero\":0,"
      "\"count\":0,\"buckets\":[]},{\"group\":0,\"metric\":\"join_s\","
      "\"zero\":0,\"count\":0,\"buckets\":[]},{\"group\":0,\"metric\":"
      "\"buffer_s\",\"zero\":0,\"count\":0,\"buckets\":[]}]}";
  // The hand-built document is the writer's own form...
  {
    obs::TimelineAggregator a;
    std::string error;
    EXPECT_TRUE(obs::parse_timeline(head + cell(3, "1") + sketches, "p", &a,
                                    &error))
        << error;
  }
  // ...and each of these is not.
  rejects(head + cell(12, "1") + sketches, "out of range");
  // 2^64 + 4 sessions used to wrap to 4.
  rejects(head + cell(3, "18446744073709551620") + sketches,
          "unsigned integer");
  rejects(head + cell(3, "1") + "," + cell(3, "1") + sketches, "canonical");
  rejects(head + cell(4, "1") + "," + cell(3, "1") + sketches, "canonical");
  rejects(head + cell(3, "0") + sketches, "canonical");

  // A declared grid past the caps is refused before it is allocated.
  wrong = good;
  wrong.replace(wrong.find("\"days\":1"), 8, "\"days\":10000000000000000");
  rejects(wrong, "too large");

  // Sketch whose buckets do not sum to its declared count.
  rejects(head + cell(3, "1") +
              "],\"sketches\":[{\"group\":0,\"metric\":\"rate_bps\","
              "\"zero\":0,\"count\":5,\"buckets\":[[100,2]]},{\"group\":0,"
              "\"metric\":\"join_s\",\"zero\":0,\"count\":0,\"buckets\":[]},"
              "{\"group\":0,\"metric\":\"buffer_s\",\"zero\":0,\"count\":0,"
              "\"buckets\":[]}]}",
          "canonical");
}

/// bba_obs diff's skip accounting: cells with no sample on either side
/// are counted, not silently dropped.
TEST(ObsArtifact, NormalizedSamplesCountSkippedCells) {
  obs::TimelineAggregator a;
  a.begin_run(1, {"base", "treat"}, 1, 4);

  auto cell = [&](std::size_t w, std::size_t g, std::uint64_t sessions,
                  std::uint64_t rebuffers, std::uint64_t play_micro) {
    obs::TimelineCell& c = a.mutable_cell(0, w, g);
    c.sessions = sessions;
    c.rebuffers = rebuffers;
    c.play_micro = play_micro;
  };
  const std::uint64_t hour = 3600ull * 1000000ull;
  // Window 0: defined on both sides -> one sample (ratio 2.0).
  cell(0, 0, 10, 4, hour);
  cell(0, 1, 10, 8, hour);
  // Window 1: baseline side has zero sessions -> skipped.
  cell(1, 1, 10, 1, hour);
  // Window 2: baseline defined but rebuffer rate is 0 -> skipped
  // (undefined ratio).
  cell(2, 0, 10, 0, hour);
  cell(2, 1, 10, 1, hour);
  // Window 3: absent on both sides -> skipped.

  std::size_t skipped = 0;
  const std::vector<double> samples =
      normalized_samples(a, 1, 0, &rebuf_per_hour, &skipped);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0], 2.0);
  EXPECT_EQ(skipped, 3u);

  // The out-param is optional, as the summary path uses it.
  EXPECT_EQ(normalized_samples(a, 1, 0, &rebuf_per_hour).size(), 1u);
}

/// bba_obs timeline/summary print a one-line notice (and exit 0) instead
/// of fabricated zero tables when an artifact holds no sessions; the
/// predicate they branch on is "every group total has zero sessions".
TEST(ObsArtifact, EmptyAggregatorRunYieldsZeroSessionTotals) {
  obs::TimelineAggregator agg;
  agg.begin_run(5, {"control", "bba2"}, 1, 12);
  obs::TimelineAggregator a;
  std::string error;
  ASSERT_TRUE(obs::parse_timeline(agg.to_json(), "mem", &a, &error)) << error;
  for (std::size_t g = 0; g < a.num_groups(); ++g) {
    EXPECT_EQ(a.group_total(g).sessions, 0u);
    // The per-group sketches exist but are empty: the summary path must
    // omit quantiles rather than print garbage.
    for (std::size_t m = 0; m < obs::kNumTimelineSketches; ++m) {
      EXPECT_EQ(a.sketches(g).at(m).count(), 0u) << g << " " << m;
    }
  }
}

/// The real writer/reader contract for alerts: what HealthMonitor
/// renders is exactly what `bba_obs health` parses back.
TEST(AlertsArtifact, ParsesMonitorOutput) {
  obs::MonitorSpec spec;
  std::string error;
  ASSERT_TRUE(
      obs::MonitorSpec::parse("warmup=2,ewma_k=1.5,cusum_h=1", &spec, &error))
      << error;
  obs::HealthMonitor mon(spec);
  mon.begin_run(13, {"control", "bba2"}, 1, 4);
  sim::SessionMetrics m;
  m.play_s = 100.0;
  m.avg_rate_bps = 2.0e6;
  for (std::size_t w = 0; w < 4; ++w) {
    for (std::size_t g = 0; g < 2; ++g) {
      m.join_s = (w == 3 && g == 1) ? 80.0 : 1.0;
      mon.record(0, w, g, 0, m);
    }
  }
  mon.finalize();

  AlertsArtifact a;
  ASSERT_TRUE(parse_alerts(mon.render(), "mem", &a, &error)) << error;
  EXPECT_EQ(a.seed, 13u);
  EXPECT_EQ(a.days, 1u);
  EXPECT_EQ(a.windows, 4u);
  ASSERT_EQ(a.groups.size(), 2u);
  EXPECT_EQ(a.groups[1], "bba2");
  EXPECT_EQ(a.spec.to_json(), spec.to_json());
  EXPECT_EQ(a.spec.warmup, 2u);
  EXPECT_DOUBLE_EQ(a.spec.ewma_k, 1.5);
  EXPECT_DOUBLE_EQ(a.spec.cusum_h, 1.0);
  EXPECT_TRUE(a.spec.capture);
  ASSERT_FALSE(a.alerts.empty());
  EXPECT_EQ(a.summary_alerts, a.alerts.size());
  EXPECT_EQ(a.summary_cells, 8u);
  // Only group bba2's last window deviated.
  for (const AlertData& alert : a.alerts) {
    EXPECT_EQ(alert.group, 1u);
    EXPECT_EQ(alert.day, 0u);
    EXPECT_EQ(alert.window, 3u);
    EXPECT_EQ(alert.metric, "join_s");
    EXPECT_TRUE(alert.kind == "ewma" || alert.kind == "cusum") << alert.kind;
    if (alert.kind == "ewma") {
      EXPECT_EQ(alert.dir, "up");
      EXPECT_GT(alert.value, alert.center + alert.band);
    }
  }
}

/// A quiet fleet renders header + summary only; `bba_obs health` prints
/// "healthy" off the empty alert list rather than inventing a table.
TEST(AlertsArtifact, EmptyAlertListParsesClean) {
  obs::HealthMonitor mon{obs::MonitorSpec{}};
  mon.begin_run(1, {"control"}, 1, 2);
  sim::SessionMetrics m;
  m.play_s = 100.0;
  mon.record(0, 0, 0, 0, m);
  mon.record(0, 1, 0, 0, m);
  mon.finalize();

  AlertsArtifact a;
  std::string error;
  ASSERT_TRUE(parse_alerts(mon.render(), "mem", &a, &error)) << error;
  EXPECT_TRUE(a.alerts.empty());
  EXPECT_EQ(a.summary_alerts, 0u);
  EXPECT_EQ(a.summary_cells, 2u);
}

TEST(AlertsArtifact, RejectsMalformedInput) {
  obs::MonitorSpec spec;
  std::string error;
  ASSERT_TRUE(
      obs::MonitorSpec::parse("warmup=2,ewma_k=1.5,cusum_h=1", &spec, &error))
      << error;
  obs::HealthMonitor mon(spec);
  mon.begin_run(13, {"a"}, 1, 4);
  sim::SessionMetrics m;
  m.play_s = 100.0;
  for (std::size_t w = 0; w < 4; ++w) {
    m.join_s = w == 3 ? 80.0 : 1.0;
    mon.record(0, w, 0, 0, m);
  }
  mon.finalize();
  const std::string good = mon.render();
  ASSERT_NE(good.find("\"ev\":\"alert\""), std::string::npos);

  AlertsArtifact a;
  // Wrong schema tag.
  std::string wrong = good;
  wrong.replace(wrong.find("v1"), 2, "v9");
  EXPECT_FALSE(parse_alerts(wrong, "p", &a, &error));
  EXPECT_NE(error.find("p: "), std::string::npos);

  // Truncation (a killed writer) loses the summary trailer.
  a = AlertsArtifact{};
  EXPECT_FALSE(parse_alerts(good.substr(0, good.rfind('{')), "p", &a,
                            &error));
  EXPECT_NE(error.find("summary"), std::string::npos);

  // Tampered seq breaks fold order.
  a = AlertsArtifact{};
  wrong = good;
  wrong.replace(wrong.find("\"seq\":0"), 7, "\"seq\":3");
  EXPECT_FALSE(parse_alerts(wrong, "p", &a, &error));
  EXPECT_NE(error.find("fold order"), std::string::npos);

  // group_name must agree with the group index.
  a = AlertsArtifact{};
  wrong = good;
  wrong.replace(wrong.find("\"group_name\":\"a\""), 16,
                "\"group_name\":\"b\"");
  EXPECT_FALSE(parse_alerts(wrong, "p", &a, &error));
  EXPECT_NE(error.find("group_name"), std::string::npos);

  // Trailing data after the trailer (two artifacts concatenated).
  a = AlertsArtifact{};
  EXPECT_FALSE(parse_alerts(good + good, "p", &a, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);

  // Summary alert count must match the lines actually present.
  a = AlertsArtifact{};
  wrong = good;
  const std::size_t alerts_pos = wrong.rfind(",\"alerts\":");
  ASSERT_NE(alerts_pos, std::string::npos);
  wrong.replace(alerts_pos, 11, ",\"alerts\":9");
  EXPECT_FALSE(parse_alerts(wrong, "p", &a, &error));
  EXPECT_NE(error.find("count"), std::string::npos);

  // A spec value is a finite number: the spec parser refuses nan, so no
  // artifact the monitor writes carries one.
  a = AlertsArtifact{};
  wrong = good;
  const std::string alpha = "\"ewma_alpha\":0.2";
  ASSERT_NE(wrong.find(alpha), std::string::npos);
  wrong.replace(wrong.find(alpha), alpha.size(), "\"ewma_alpha\":nan");
  EXPECT_FALSE(parse_alerts(wrong, "p", &a, &error));
  EXPECT_NE(error.find("number"), std::string::npos) << error;
}

/// Runs `cmd` with its stdout discarded; returns the exit status and its
/// stderr in *log.
int run_tool(const std::string& cmd, std::string* log,
             const char* redirect = " 2>&1 >/dev/null") {
  std::FILE* p = popen((cmd + redirect).c_str(), "r");
  if (p == nullptr) return -1;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, p)) > 0) log->append(buf, n);
  const int rc = pclose(p);
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/// Whether /dev/full exists and fails writes, as on Linux.
bool dev_full_available() {
  std::FILE* f = std::fopen("/dev/full", "w");
  if (f == nullptr) return false;
  std::fputc('x', f);
  const bool fails = std::fclose(f) != 0;
  return fails;
}

// Every artifact a harness tool writes is checked: an output that did not
// land whole (a full disk, a missing directory) fails the run with exit 1,
// where the tools used to report it and exit 0.
TEST(ToolOutputs, FailedArtifactWritesExitOne) {
  if (!dev_full_available()) GTEST_SKIP() << "no /dev/full";
  const std::string abtest =
      std::string(BBA_ABTEST_BIN) + " --days 1 --sessions 2 --threads 1";
  const std::string missing_dir =
      testing::TempDir() + "/bba_no_such_dir/m.json";
  struct Case {
    std::string cmd;
    const char* says;
  };
  const std::vector<Case> cases = {
      {abtest + " --metrics-out /dev/full --timeline-out /dev/full "
                "--alerts-out /dev/full",
       "could not write metrics /dev/full"},
      {abtest + " --timeline-out /dev/full", "could not write timeline"},
      {abtest + " --metrics-out " + missing_dir, "could not write metrics"},
      {abtest + " --sequential --seq-log /dev/full",
       "could not write /dev/full"},
      {abtest + " --trace-out /dev/full --trace-sample 1", "INCOMPLETE"},
      {std::string(BBA_PAPER_REPORT_BIN) +
           " --sessions 1 --days 1 --threads 1 --out /dev/full",
       "could not write /dev/full"},
      {std::string(BBA_SESSION_BIN) + " --metrics-out /dev/full",
       "could not write metrics /dev/full"},
      {std::string(BBA_SESSION_BIN) + " --abr bba2 --log /dev/full",
       "could not write /dev/full"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.cmd);
    std::string log;
    EXPECT_EQ(run_tool(c.cmd, &log), 1) << log;
    EXPECT_NE(log.find(c.says), std::string::npos) << log;
  }
  // The same run with a writable path succeeds.
  const std::string ok = testing::TempDir() + "/bba_tool_outputs_ok.json";
  std::string log;
  EXPECT_EQ(run_tool(abtest + " --metrics-out " + ok, &log), 0) << log;
  std::remove(ok.c_str());
}

// A malformed or unknown bench flag is a usage error (exit 2) before any
// simulation: nothing reaches stdout. The benches used to atoi "pony" to 0
// and abort on an assert, or skip an unknown flag.
TEST(ToolOutputs, MalformedBenchFlagsExitTwo) {
  for (const std::string& cmd : {
           std::string(BBA_FIG09_BIN) + " --seed pony",
           std::string(BBA_FIG09_BIN) + " --bogus",
           std::string(BBA_SEQ_EARLY_STOP_BIN) + " --sessions pony",
           std::string(BBA_PARALLEL_SCALING_BIN) + " --sessions pony",
           std::string(BBA_HOT_PATH_BIN) + " --passes pony",
       }) {
    SCOPED_TRACE(cmd);
    std::string out;
    EXPECT_EQ(run_tool(cmd, &out, " 2>/dev/null"), 2);
    EXPECT_EQ(out, "");
  }
}

}  // namespace
}  // namespace bba::tools
