// Fleet health monitor (obs/monitor.hpp + stats/detect.hpp): detector
// primitives against hand-computed sequences, SLO burn boundary cases,
// spec parsing, metric derivation, alert-triggered capture selection, and
// the three byte-equality invariants of the "bba.alerts.v1" artifact --
// thread-count invariance, kill + resume, and sharded runs merged +
// refolded (docs/monitoring.md).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exp/abtest.hpp"
#include "exp/checkpoint.hpp"
#include "exp/population.hpp"
#include "media/video.hpp"
#include "obs/monitor.hpp"
#include "obs/obs.hpp"
#include "sim/metrics.hpp"
#include "stats/detect.hpp"

namespace bba {
namespace {

// ---------------------------------------------------------------------------
// Detector primitives vs hand-computed sequences
// ---------------------------------------------------------------------------

TEST(Detectors, EwmaBandAgainstHandComputedSequence) {
  stats::EwmaConfig cfg;
  cfg.alpha = 0.5;
  cfg.band_k = 2.0;
  cfg.warmup = 3;
  cfg.sd_floor_frac = 0.0;
  stats::EwmaState s;

  // Warmup observations never fire.
  EXPECT_EQ(stats::ewma_step(s, 1.0, cfg), 0);
  EXPECT_EQ(stats::ewma_step(s, 2.0, cfg), 0);
  EXPECT_EQ(stats::ewma_step(s, 3.0, cfg), 0);
  // Baseline: mean 2, sample sd 1 (m2 = 2 over n-1 = 2); ewma seeds at
  // the mean.
  ASSERT_TRUE(s.ready);
  EXPECT_DOUBLE_EQ(s.ewma, 2.0);
  EXPECT_DOUBLE_EQ(s.sd, 1.0);

  // 4.1 deviates +2.1 from the pre-update ewma 2.0: above the 2-sd band.
  EXPECT_EQ(stats::ewma_step(s, 4.1, cfg), 1);
  EXPECT_DOUBLE_EQ(s.ewma, 2.0 + 0.5 * 2.1);  // updates after the test
  // 3.0 deviates -0.05 from 3.05: inside.
  EXPECT_EQ(stats::ewma_step(s, 3.0, cfg), 0);
  EXPECT_DOUBLE_EQ(s.ewma, 3.025);
  // 0.9 deviates -2.125: below.
  EXPECT_EQ(stats::ewma_step(s, 0.9, cfg), -1);
}

TEST(Detectors, EwmaSdFloorSilencesNearConstantMetrics) {
  stats::EwmaConfig cfg;
  cfg.alpha = 0.2;
  cfg.band_k = 3.0;
  cfg.warmup = 2;
  cfg.sd_floor_frac = 0.05;
  stats::EwmaState s;
  stats::ewma_step(s, 10.0, cfg);
  stats::ewma_step(s, 10.0, cfg);
  // Identical warmup values: raw sd 0, floored to 0.05 * |10| = 0.5.
  EXPECT_DOUBLE_EQ(s.sd, 0.5);
  // 10 + 1.4 < 3 * 0.5 above: ordinary jitter stays silent.
  EXPECT_EQ(stats::ewma_step(s, 11.4, cfg), 0);
  // A real excursion still fires against the floored band.
  EXPECT_EQ(stats::ewma_step(s, 15.0, cfg), 1);
}

TEST(Detectors, CusumAccumulatesAndResetsTheFiredSide) {
  stats::CusumConfig cfg;
  cfg.k = 0.5;
  cfg.h = 1.0;
  cfg.warmup = 2;
  cfg.sd_floor_frac = 0.0;
  stats::CusumState s;
  EXPECT_EQ(stats::cusum_step(s, 0.0, cfg), 0);
  EXPECT_EQ(stats::cusum_step(s, 2.0, cfg), 0);
  // Baseline mean 1, sample sd sqrt(2).
  ASSERT_TRUE(s.ready);
  EXPECT_DOUBLE_EQ(s.base.mean, 1.0);
  EXPECT_DOUBLE_EQ(s.sd, std::sqrt(2.0));

  // Each observation at mean + 1 sd contributes z - k = 0.5.
  const double x = 1.0 + std::sqrt(2.0);
  EXPECT_EQ(stats::cusum_step(s, x, cfg), 0);
  EXPECT_DOUBLE_EQ(s.s_pos, 0.5);
  EXPECT_EQ(stats::cusum_step(s, x, cfg), 0);  // sum 1.0: not yet > h
  EXPECT_DOUBLE_EQ(s.s_pos, 1.0);
  EXPECT_EQ(stats::cusum_step(s, x, cfg), 1);  // sum 1.5 > h: fires
  EXPECT_DOUBLE_EQ(s.s_pos, 0.0);              // fired side resets
  EXPECT_DOUBLE_EQ(s.s_neg, 0.0);

  // Downward drift walks the other sum.
  const double y = 1.0 - 2.0 * std::sqrt(2.0);  // z = -2
  EXPECT_EQ(stats::cusum_step(s, y, cfg), -1);  // sum 1.5 > h immediately
  EXPECT_DOUBLE_EQ(s.s_neg, 0.0);
}

TEST(Detectors, BurnFiresExactlyAtTheStreakBoundary) {
  stats::BurnConfig cfg;
  cfg.threshold = 1.0;
  cfg.windows = 3;
  stats::BurnState s;

  // Exactly at the threshold is healthy ("> threshold" breaches).
  EXPECT_FALSE(stats::burn_step(s, 1.0, cfg));
  EXPECT_FALSE(stats::burn_step(s, 1.1, cfg));  // streak 1
  EXPECT_FALSE(stats::burn_step(s, 1.1, cfg));  // streak 2
  EXPECT_TRUE(stats::burn_step(s, 1.1, cfg));   // streak 3: fires
  // Still breaching: silent until a healthy window re-arms it.
  EXPECT_FALSE(stats::burn_step(s, 1.1, cfg));
  EXPECT_FALSE(stats::burn_step(s, 5.0, cfg));
  EXPECT_FALSE(stats::burn_step(s, 0.5, cfg));  // healthy: re-arms
  EXPECT_FALSE(stats::burn_step(s, 1.1, cfg));
  EXPECT_FALSE(stats::burn_step(s, 1.1, cfg));
  EXPECT_TRUE(stats::burn_step(s, 1.1, cfg));   // a second burn
}

TEST(Detectors, BurnWithOneWindowFiresImmediately) {
  stats::BurnConfig cfg;
  cfg.threshold = 0.02;
  cfg.windows = 1;
  stats::BurnState s;
  EXPECT_TRUE(stats::burn_step(s, 0.03, cfg));
  EXPECT_FALSE(stats::burn_step(s, 0.03, cfg));  // not re-armed yet
  EXPECT_FALSE(stats::burn_step(s, 0.01, cfg));
  EXPECT_TRUE(stats::burn_step(s, 0.03, cfg));
}

// ---------------------------------------------------------------------------
// Spec parsing and metric derivation
// ---------------------------------------------------------------------------

TEST(MonitorSpec, ParsesKeyValueListAndRejectsGarbage) {
  obs::MonitorSpec spec;
  std::string error;
  ASSERT_TRUE(obs::MonitorSpec::parse("", &spec, &error)) << error;
  EXPECT_EQ(spec.warmup, 8u);  // defaults survive an empty spec

  ASSERT_TRUE(obs::MonitorSpec::parse(
      "warmup=2,cusum_h=1.5,ewma_k=2,capture=0,top_k=5", &spec, &error))
      << error;
  EXPECT_EQ(spec.warmup, 2u);
  EXPECT_DOUBLE_EQ(spec.cusum_h, 1.5);
  EXPECT_DOUBLE_EQ(spec.ewma_k, 2.0);
  EXPECT_FALSE(spec.capture);
  EXPECT_EQ(spec.top_k, 5u);

  // The cap admits every top_k a run uses.
  ASSERT_TRUE(obs::MonitorSpec::parse("top_k=1024", &spec, &error)) << error;
  EXPECT_EQ(spec.top_k, obs::kMaxTopK);

  for (const char* bad : {"warmup=1",          // needs >= 2 baseline cells
                          "slo_join_windows=0", "bogus=3", "warmup",
                          "warmup=pony", "=2",
                          // reals are finite, counts unsigned and whole
                          "ewma_alpha=nan", "cusum_h=inf", "sd_floor=-inf",
                          "top_k=-1", "warmup=-1", "warmup= 3",
                          "warmup=18446744073709551616",
                          // top_k reserves slots up front: capped
                          "top_k=1025", "top_k=100000000000"}) {
    obs::MonitorSpec fresh;
    error.clear();
    EXPECT_FALSE(obs::MonitorSpec::parse(bad, &fresh, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(MonitorSpec, ToJsonIsByteStable) {
  obs::MonitorSpec a, b;
  EXPECT_EQ(a.to_json(), b.to_json());
  std::string error;
  ASSERT_TRUE(obs::MonitorSpec::parse("warmup=3", &b, &error));
  EXPECT_NE(a.to_json(), b.to_json());
}

TEST(MonitorMetrics, DerivesCellMetricsWithZeroSafeDenominators) {
  obs::TimelineCell cell;
  cell.sessions = 2;
  cell.play_micro = 900000;
  cell.rebuffer_micro = 100000;
  cell.join_micro = 3000000;
  cell.rate_play_kbit = 4500;
  cell.rebuffers = 4;
  cell.fault_stalls = 1;
  EXPECT_DOUBLE_EQ(obs::monitor_metric_value(cell, 0), 0.1);   // ratio
  EXPECT_DOUBLE_EQ(obs::monitor_metric_value(cell, 1), 1.5);   // join_s
  EXPECT_DOUBLE_EQ(obs::monitor_metric_value(cell, 2), 5000.0);  // kbps
  EXPECT_DOUBLE_EQ(obs::monitor_metric_value(cell, 3), 0.25);  // fault share

  const obs::TimelineCell empty;
  for (std::size_t m = 0; m < obs::kNumMonitorMetrics; ++m) {
    EXPECT_DOUBLE_EQ(obs::monitor_metric_value(empty, m), 0.0) << m;
  }
}

// ---------------------------------------------------------------------------
// HealthMonitor fold: cells, alerts, captures
// ---------------------------------------------------------------------------

sim::SessionMetrics synthetic_session(double join_s, double play_s = 100.0) {
  sim::SessionMetrics m;
  m.play_s = play_s;
  m.join_s = join_s;
  m.avg_rate_bps = 2.0e6;
  return m;
}

obs::MonitorSpec capture_spec() {
  obs::MonitorSpec spec;
  std::string error;
  // Tight bands + instant warmup so a join-time excursion fires; top_k 1
  // so exactly one offender per (group, metric) is captured.
  EXPECT_TRUE(obs::MonitorSpec::parse(
      "warmup=2,ewma_k=1.5,cusum_h=1,top_k=1", &spec, &error))
      << error;
  return spec;
}

TEST(HealthMonitor, AlertCapturesTheWorstOffenderInTheFiringCell) {
  obs::HealthMonitor mon(capture_spec());
  mon.begin_run(7, {"control"}, 1, 4);

  // Three quiet cells of baseline, then a join-time excursion in the
  // last cell with three sessions of different severity.
  for (std::size_t w = 0; w < 3; ++w) {
    for (std::uint64_t u = 0; u < 3; ++u) {
      mon.record(0, w, 0, u, synthetic_session(1.0));
    }
  }
  mon.record(0, 3, 0, 0, synthetic_session(50.0));
  mon.record(0, 3, 0, 1, synthetic_session(100.0));
  mon.record(0, 3, 0, 2, synthetic_session(75.0));
  EXPECT_EQ(mon.alerts_fired(), 0u);  // cell 3 still open
  mon.finalize();
  EXPECT_GT(mon.alerts_fired(), 0u);

  const std::vector<obs::MonitorCapture> captures = mon.take_captures();
  ASSERT_EQ(captures.size(), 1u);  // ewma + cusum dedup to one capture
  EXPECT_EQ(captures[0].day, 0u);
  EXPECT_EQ(captures[0].window, 3u);
  EXPECT_EQ(captures[0].group, 0u);
  EXPECT_EQ(captures[0].session, 1u);  // the worst join time wins
  // The first-firing detector's marker is the one that rides the trace.
  EXPECT_NE(captures[0].marker.find("\"ev\":\"alert\""), std::string::npos);
  EXPECT_NE(captures[0].marker.find("\"metric\":\"join_s\""),
            std::string::npos);
  EXPECT_EQ(captures[0].marker.back(), '\n');

  // Draining is one-shot.
  EXPECT_TRUE(mon.take_captures().empty());
  // finalize() is idempotent: no double alerts.
  const std::uint64_t fired = mon.alerts_fired();
  mon.finalize();
  EXPECT_EQ(mon.alerts_fired(), fired);
}

TEST(HealthMonitor, RenderIsAPureFunctionOfTheFold) {
  auto run = [] {
    obs::HealthMonitor mon(capture_spec());
    mon.begin_run(7, {"a", "b"}, 1, 3);
    for (std::size_t w = 0; w < 3; ++w) {
      for (std::size_t g = 0; g < 2; ++g) {
        mon.record(0, w, g, 0,
                   synthetic_session(w == 2 && g == 1 ? 60.0 : 1.0));
      }
    }
    mon.finalize();
    return mon.render();
  };
  const std::string once = run();
  EXPECT_EQ(once, run());
  EXPECT_NE(once.find("\"schema\":\"bba.alerts.v1\""), std::string::npos);
  EXPECT_NE(once.find("\"ev\":\"summary\""), std::string::npos);
  // Only group b's last cell deviates.
  EXPECT_NE(once.find("\"group_name\":\"b\""), std::string::npos);
  EXPECT_EQ(once.find("\"group_name\":\"a\""), std::string::npos);
}

TEST(HealthMonitor, DeferredAccumulatesCellsWithoutDetectors) {
  obs::HealthMonitor mon(capture_spec());
  mon.set_deferred(true);
  mon.begin_run(7, {"control"}, 1, 4);
  for (std::size_t w = 0; w < 4; ++w) {
    mon.record(0, w, 0, 0, synthetic_session(w == 3 ? 100.0 : 1.0));
  }
  mon.finalize();
  EXPECT_EQ(mon.alerts_fired(), 0u);
  EXPECT_TRUE(mon.take_captures().empty());

  // refold() runs the full grid through fresh detectors in canonical
  // order -- the same alerts an online fold would have fired.
  mon.refold();
  EXPECT_FALSE(mon.deferred());
  EXPECT_GT(mon.alerts_fired(), 0u);
  const std::string refolded = mon.render();

  obs::HealthMonitor online(capture_spec());
  online.begin_run(7, {"control"}, 1, 4);
  for (std::size_t w = 0; w < 4; ++w) {
    online.record(0, w, 0, 0, synthetic_session(w == 3 ? 100.0 : 1.0));
  }
  online.finalize();
  EXPECT_EQ(refolded, online.render());
}

// ---------------------------------------------------------------------------
// Byte-equality invariants through the experiment harness
// ---------------------------------------------------------------------------

exp::AbTestConfig tiny_config() {
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 3;
  cfg.days = 1;
  cfg.seed = 99;
  cfg.threads = 2;
  return cfg;
}

std::vector<exp::Group> tiny_groups() {
  return {{"control", exp::make_control_factory()},
          {"bba2", exp::make_bba2_factory()}};
}

obs::MonitorSpec tight_spec() {
  obs::MonitorSpec spec;
  std::string error;
  EXPECT_TRUE(obs::MonitorSpec::parse("warmup=2,ewma_k=0.5,cusum_h=0.5",
                                      &spec, &error))
      << error;
  return spec;
}

/// Runs the checkpointed harness with a monitor installed and returns the
/// rendered alerts artifact. The harness finalizes the monitor itself
/// (capture drain happens before runner.finish()).
std::string alerts_of_run(std::size_t threads,
                          exp::CheckpointOptions opts = {}) {
  obs::Observability handle;
  handle.monitor = std::make_unique<obs::HealthMonitor>(tight_spec());
  obs::install(&handle);
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  exp::AbTestConfig cfg = tiny_config();
  cfg.threads = threads;
  exp::AbTestResult result;
  std::string error;
  const bool ok = exp::run_ab_test_checkpointed(tiny_groups(), lib, cfg,
                                                opts, &result, &error);
  obs::install(nullptr);
  EXPECT_TRUE(ok) << error;
  handle.monitor->finalize();  // idempotent (already done unless sharded)
  return handle.monitor->render();
}

TEST(HealthMonitorInvariants, ArtifactIsThreadCountInvariant) {
  const std::string one = alerts_of_run(1);
  const std::string four = alerts_of_run(4);
  EXPECT_EQ(one, four);
  // The tight spec actually fires on this workload; a vacuous artifact
  // would make the byte comparison meaningless.
  EXPECT_NE(one.find("\"ev\":\"alert\""), std::string::npos);
}

TEST(HealthMonitorInvariants, ChunkedRunAndResumeRenderAreByteNeutral) {
  const std::string reference = alerts_of_run(2);
  const std::string path = testing::TempDir() + "/bba_mon_chunked.ckpt";

  exp::CheckpointOptions chunked;
  chunked.out = path;
  chunked.every = 5;
  EXPECT_EQ(alerts_of_run(2, chunked), reference);

  // The complete checkpoint re-renders the artifact without simulating.
  exp::CheckpointOptions resume;
  resume.resume = path;
  EXPECT_EQ(alerts_of_run(1, resume), reference);
  std::remove(path.c_str());
}

TEST(HealthMonitorInvariantsDeathTest, KillAndResumeReproduceTheArtifact) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = testing::TempDir() + "/bba_mon_kill.ckpt";
  std::remove(path.c_str());

  exp::CheckpointOptions kill_opts;
  kill_opts.out = path;
  kill_opts.every = 6;
  kill_opts.kill_after = 2;
  EXPECT_EXIT((void)alerts_of_run(1, kill_opts),
              testing::ExitedWithCode(3), "");

  exp::Checkpoint partial;
  std::string error;
  ASSERT_TRUE(exp::load_checkpoint(path, &partial, &error)) << error;
  ASSERT_TRUE(partial.has_alerts);
  EXPECT_FALSE(partial.complete());
  EXPECT_EQ(partial.alerts_spec_json, tight_spec().to_json());

  exp::CheckpointOptions resume;
  resume.resume = path;
  EXPECT_EQ(alerts_of_run(2, resume), alerts_of_run(2));
  std::remove(path.c_str());
}

TEST(HealthMonitorInvariants, ShardedMergeRefoldsTheUnshardedArtifact) {
  const std::string reference = alerts_of_run(2);
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);

  constexpr std::size_t kShards = 4;
  std::vector<exp::Checkpoint> parts(kShards);
  std::string error;
  for (std::size_t k = 1; k <= kShards; ++k) {
    obs::Observability handle;
    handle.monitor = std::make_unique<obs::HealthMonitor>(tight_spec());
    obs::install(&handle);
    exp::CheckpointOptions opts;
    opts.shard_index = k;
    opts.shard_count = kShards;
    opts.out = testing::TempDir() + "/bba_mon_shard.ckpt";
    exp::AbTestResult result;
    const bool ok = exp::run_ab_test_checkpointed(tiny_groups(), lib,
                                                  tiny_config(), opts,
                                                  &result, &error);
    obs::install(nullptr);
    ASSERT_TRUE(ok) << error;
    // A shard defers its detectors: nothing fires mid-shard.
    EXPECT_TRUE(handle.monitor->deferred());
    EXPECT_EQ(handle.monitor->alerts_fired(), 0u);
    ASSERT_TRUE(exp::load_checkpoint(opts.out, &parts[k - 1], &error))
        << error;
    ASSERT_TRUE(parts[k - 1].has_alerts);
    std::remove(opts.out.c_str());
  }

  exp::Checkpoint merged;
  ASSERT_TRUE(exp::merge_checkpoints(parts, &merged, &error)) << error;
  ASSERT_TRUE(merged.has_alerts);
  EXPECT_TRUE(merged.alerts.deferred);

  // Restoring the merged state and refolding reproduces the unsharded
  // run's artifact byte for byte.
  obs::HealthMonitor mon(tight_spec());
  mon.restore(std::move(merged.alerts));
  mon.refold();
  EXPECT_EQ(mon.render(), reference);

  // Spec mismatch across shards is corruption, not a merge case.
  parts[0].alerts_spec_json = "{}";
  exp::Checkpoint bad;
  EXPECT_FALSE(exp::merge_checkpoints(parts, &bad, &error));
}

TEST(HealthMonitorInvariants, ResumeRejectsAChangedAlertSpec) {
  const std::string path = testing::TempDir() + "/bba_mon_spec.ckpt";
  exp::CheckpointOptions out_opts;
  out_opts.out = path;
  (void)alerts_of_run(1, out_opts);

  obs::Observability handle;
  obs::MonitorSpec other;
  std::string error;
  ASSERT_TRUE(obs::MonitorSpec::parse("warmup=4", &other, &error));
  handle.monitor = std::make_unique<obs::HealthMonitor>(other);
  obs::install(&handle);
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  exp::CheckpointOptions resume;
  resume.resume = path;
  exp::AbTestResult result;
  const bool ok = exp::run_ab_test_checkpointed(tiny_groups(), lib,
                                                tiny_config(), resume,
                                                &result, &error);
  obs::install(nullptr);
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("--alert-spec"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(CheckpointContainer, AlertsSectionRoundTripsBitExactly) {
  // Fold a monitor mid-grid (open cell, live detector state, pending
  // candidates) and round-trip its state through the container.
  obs::HealthMonitor mon(capture_spec());
  mon.begin_run(7, {"control", "bba2"}, 2, 3);
  for (std::size_t w = 0; w < 4; ++w) {
    for (std::size_t g = 0; g < 2; ++g) {
      mon.record(w / 3, w % 3, g, 0,
                 synthetic_session(w == 3 ? 42.0 : 1.0 + 0.1 * w));
    }
  }

  exp::Checkpoint ck;
  ck.kind = 0;
  ck.seed = 7;
  ck.days = 2;
  ck.windows_per_day = exp::kWindowsPerDay;
  ck.sessions_per_window = 1;
  ck.total_keys = 2 * exp::kWindowsPerDay;
  ck.cursor = 8;
  ck.groups = {"control", "bba2"};
  ck.cells.assign(2, std::vector<std::vector<exp::WindowMetrics>>(
                         2, std::vector<exp::WindowMetrics>(
                                exp::kWindowsPerDay)));
  ck.has_alerts = true;
  ck.alerts = mon.state();
  ck.alerts_spec_json = mon.spec().to_json();

  const std::string bytes = exp::serialize_checkpoint(ck);
  exp::Checkpoint back;
  std::string error;
  ASSERT_TRUE(exp::parse_checkpoint(bytes, &back, &error)) << error;
  ASSERT_TRUE(back.has_alerts);
  EXPECT_EQ(back.alerts_spec_json, ck.alerts_spec_json);
  EXPECT_EQ(back.alerts.consumed, ck.alerts.consumed);
  EXPECT_EQ(back.alerts.open, ck.alerts.open);
  EXPECT_EQ(back.alerts.alert_log, ck.alerts.alert_log);
  EXPECT_EQ(back.alerts.pending.size(), ck.alerts.pending.size());
  // Re-serializing the parsed checkpoint reproduces the exact bytes, so
  // every detector double survived as raw IEEE bits.
  EXPECT_EQ(exp::serialize_checkpoint(back), bytes);

  // A restored monitor continues the fold identically to the original.
  obs::HealthMonitor restored(capture_spec());
  restored.restore(std::move(back.alerts));
  for (std::size_t w = 4; w < 6; ++w) {
    for (std::size_t g = 0; g < 2; ++g) {
      mon.record(w / 3, w % 3, g, 0, synthetic_session(1.0));
      restored.record(w / 3, w % 3, g, 0, synthetic_session(1.0));
    }
  }
  mon.finalize();
  restored.finalize();
  EXPECT_EQ(restored.render(), mon.render());
}

}  // namespace
}  // namespace bba
