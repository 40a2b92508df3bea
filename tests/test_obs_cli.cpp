// Tests for the bba_obs CLI's shared pieces (tools/): the strict
// bba.timeline.v1 artifact parser, the skipped-cell accounting in
// normalized_samples (bba_obs diff used to silently thin sparse grids),
// the strict numeric flag validators that replaced atoi/atof, and the
// bba.alerts.v1 parser behind `bba_obs health` -- plus the harness tools'
// exit status when an artifact cannot be written.
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

namespace bba::tools {
namespace {

TEST(CliParse, U64AndCounts) {
  std::uint64_t u = 0;
  EXPECT_TRUE(parse_u64("42", &u));
  EXPECT_EQ(u, 42u);
  EXPECT_TRUE(parse_u64("0", &u));
  for (const char* bad : {"", "-5", "+5", "4x", "x4", " 4", "4 "}) {
    EXPECT_FALSE(parse_u64(bad, &u)) << bad;
  }

  std::size_t n = 0;
  EXPECT_TRUE(parse_count("7", &n));
  EXPECT_EQ(n, 7u);
  EXPECT_FALSE(parse_count("0", &n));
  EXPECT_FALSE(parse_count("-1", &n));
  EXPECT_TRUE(parse_count0("0", &n));
  EXPECT_EQ(n, 0u);
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
/// obs::TimelineAggregator::to_json() parses back field-for-field.
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

  Artifact a;
  std::string error;
  ASSERT_TRUE(parse_artifact(agg.to_json(), "mem", &a, &error)) << error;
  EXPECT_EQ(a.seed, 77u);
  EXPECT_EQ(a.days, 2u);
  EXPECT_EQ(a.windows, 12u);
  ASSERT_EQ(a.groups.size(), 2u);
  EXPECT_EQ(a.groups[0], "control");
  EXPECT_EQ(a.groups[1], "bba2");
  ASSERT_EQ(a.cells.size(), 3u);
  EXPECT_EQ(a.cells[0].day, 0u);
  EXPECT_EQ(a.cells[0].window, 5u);
  EXPECT_EQ(a.cells[0].sessions, 1u);
  EXPECT_EQ(a.cells[0].rebuffers, 3u);
  EXPECT_EQ(a.cells[0].play_micro, 600000000u);
  ASSERT_EQ(a.sketches.size(), 2 * kNumSketchMetrics);
  // Group 1 recorded two sessions; its rate sketch holds both.
  EXPECT_EQ(a.sketches[1 * kNumSketchMetrics + 0].count(), 2u);

  const std::vector<CellData> totals = a.group_totals();
  EXPECT_EQ(totals[0].sessions, 1u);
  EXPECT_EQ(totals[1].sessions, 2u);
  EXPECT_EQ(totals[1].abandoned, 1u);
  const std::vector<CellData> by_window = a.merged_by_window();
  ASSERT_EQ(by_window.size(), 12u * 2u);
  EXPECT_EQ(by_window[5 * 2 + 0].sessions, 1u);
  EXPECT_EQ(by_window[11 * 2 + 1].sessions, 1u);
}

TEST(ObsArtifact, RejectsMalformedInput) {
  obs::TimelineAggregator agg;
  agg.begin_run(1, {"a"}, 1, 12);
  const std::string good = agg.to_json();

  Artifact a;
  std::string error;
  // Wrong schema tag.
  std::string wrong = good;
  wrong.replace(wrong.find("v1"), 2, "v9");
  EXPECT_FALSE(parse_artifact(wrong, "p", &a, &error));
  EXPECT_NE(error.find("p: "), std::string::npos);

  // Truncation anywhere fails loudly.
  a = Artifact{};
  EXPECT_FALSE(
      parse_artifact(good.substr(0, good.size() / 2), "p", &a, &error));

  // Cell with out-of-range indices.
  a = Artifact{};
  const std::string bad_cell =
      "{\"schema\":\"bba.timeline.v1\",\"seed\":1,\"days\":1,"
      "\"windows_per_day\":12,\"groups\":[\"a\"],\"cells\":["
      "{\"day\":0,\"window\":12,\"group\":0,\"sessions\":1,\"abandoned\":0,"
      "\"rebuffers\":0,\"fault_stalls\":0,\"switches\":0,\"play_micro\":1,"
      "\"rebuffer_micro\":0,\"join_micro\":0,\"rate_play_kbit\":0}],"
      "\"sketches\":[]}";
  EXPECT_FALSE(parse_artifact(bad_cell, "p", &a, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos);

  // Sketch whose buckets do not sum to its declared count.
  a = Artifact{};
  const std::string bad_sketch =
      "{\"schema\":\"bba.timeline.v1\",\"seed\":1,\"days\":1,"
      "\"windows_per_day\":12,\"groups\":[\"a\"],\"cells\":[],"
      "\"sketches\":[{\"group\":0,\"metric\":\"rate_bps\",\"zero\":0,"
      "\"count\":5,\"buckets\":[[100,2]]}]}";
  EXPECT_FALSE(parse_artifact(bad_sketch, "p", &a, &error));
  EXPECT_NE(error.find("sum"), std::string::npos);
}

/// bba_obs diff's skip accounting: cells with no sample on either side
/// are counted, not silently dropped.
TEST(ObsArtifact, NormalizedSamplesCountSkippedCells) {
  Artifact a;
  a.days = 1;
  a.windows = 4;
  a.groups = {"base", "treat"};

  auto cell = [](std::size_t w, std::size_t g, unsigned long long sessions,
                 unsigned long long rebuffers,
                 unsigned long long play_micro) {
    CellData c;
    c.window = w;
    c.group = g;
    c.sessions = sessions;
    c.rebuffers = rebuffers;
    c.play_micro = play_micro;
    return c;
  };
  const unsigned long long hour = 3600ull * 1000000ull;
  // Window 0: defined on both sides -> one sample (ratio 2.0).
  a.cells.push_back(cell(0, 0, 10, 4, hour));
  a.cells.push_back(cell(0, 1, 10, 8, hour));
  // Window 1: baseline side has zero sessions -> skipped.
  a.cells.push_back(cell(1, 1, 10, 1, hour));
  // Window 2: baseline defined but rebuffer rate is 0 -> skipped
  // (undefined ratio).
  a.cells.push_back(cell(2, 0, 10, 0, hour));
  a.cells.push_back(cell(2, 1, 10, 1, hour));
  // Window 3: absent on both sides -> skipped.

  std::size_t skipped = 0;
  const std::vector<double> samples = normalized_samples(
      a, 1, 0, &CellData::rebuf_per_hour, &skipped);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0], 2.0);
  EXPECT_EQ(skipped, 3u);

  // The out-param is optional, as the summary path uses it.
  EXPECT_EQ(normalized_samples(a, 1, 0, &CellData::rebuf_per_hour).size(),
            1u);
}

/// bba_obs timeline/summary print a one-line notice (and exit 0) instead
/// of fabricated zero tables when an artifact holds no sessions; the
/// predicate they branch on is "every group total has zero sessions".
TEST(ObsArtifact, EmptyAggregatorRunYieldsZeroSessionTotals) {
  obs::TimelineAggregator agg;
  agg.begin_run(5, {"control", "bba2"}, 1, 12);
  Artifact a;
  std::string error;
  ASSERT_TRUE(parse_artifact(agg.to_json(), "mem", &a, &error)) << error;
  EXPECT_TRUE(a.cells.empty());
  for (const CellData& total : a.group_totals()) {
    EXPECT_EQ(total.sessions, 0u);
  }
  // The per-group sketches exist but are empty: the summary path must
  // omit quantiles rather than print garbage.
  ASSERT_EQ(a.sketches.size(), 2 * kNumSketchMetrics);
  for (std::size_t i = 0; i < a.sketches.size(); ++i) {
    EXPECT_EQ(a.sketches[i].count(), 0u) << i;
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
  EXPECT_EQ(a.warmup, 2u);
  EXPECT_DOUBLE_EQ(a.ewma_k, 1.5);
  EXPECT_DOUBLE_EQ(a.cusum_h, 1.0);
  EXPECT_TRUE(a.capture);
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
}

/// Runs `cmd` with its stdout discarded; returns the exit status and its
/// stderr in *log.
int run_tool(const std::string& cmd, std::string* log) {
  std::FILE* p = popen((cmd + " 2>&1 >/dev/null").c_str(), "r");
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

}  // namespace
}  // namespace bba::tools
