// Tests for the sequential experimentation engine (src/seq): early
// stopping, winner agreement with the fixed-budget harness, decision-log
// determinism across thread counts, budget exhaustion, min_batches
// gating -- plus the common-random-numbers invariance the paired
// elimination rule depends on, and the incremental Welch/critical-value
// statistics it is built on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "exp/abtest.hpp"
#include "exp/checkpoint.hpp"
#include "exp/population.hpp"
#include "exp/report.hpp"
#include "exp/session_key.hpp"
#include "exp/workload.hpp"
#include "media/video.hpp"
#include "seq/engine.hpp"
#include "stats/ttest.hpp"

namespace bba::seq {
namespace {

exp::AbTestConfig small_config() {
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 20;
  cfg.days = 1;
  cfg.seed = 7;
  cfg.threads = 2;
  return cfg;
}

std::vector<exp::Group> separated_groups() {
  // Control vs R_min-Always on the rate metric is the most separated
  // pair in the harness: the floor algorithm always streams the lowest
  // rate, thousands of kb/s below Control.
  return {{"control", exp::make_control_factory()},
          {"rmin-always", exp::make_rmin_factory()}};
}

SeqMetric rate_metric() {
  SeqMetric m;
  EXPECT_TRUE(seq_metric_by_name("rate", &m));
  return m;
}

TEST(SeqMetric, KnownNamesAndDirections) {
  SeqMetric m;
  ASSERT_TRUE(seq_metric_by_name("rebuffers", &m));
  EXPECT_FALSE(m.higher_is_better);
  ASSERT_TRUE(seq_metric_by_name("rate", &m));
  EXPECT_TRUE(m.higher_is_better);
  ASSERT_TRUE(seq_metric_by_name("steady", &m));
  EXPECT_TRUE(m.higher_is_better);
  ASSERT_TRUE(seq_metric_by_name("startup", &m));
  EXPECT_TRUE(m.higher_is_better);
  ASSERT_TRUE(seq_metric_by_name("switches", &m));
  EXPECT_FALSE(m.higher_is_better);
  EXPECT_FALSE(seq_metric_by_name("qoe", &m));
}

TEST(SeqEngine, SeparatedPairStopsEarlyAndAgreesWithFixedBudget) {
  const auto groups = separated_groups();
  const auto cfg = small_config();
  const media::VideoLibrary library = media::VideoLibrary::standard(11);

  SeqConfig sc;
  sc.batch_sessions = 20;
  sc.min_batches = 2;
  const SeqResult r = run_sequential(groups, library, cfg, rate_metric(), sc);

  // Budget defaults to the fixed-budget equivalent: 2 * 20 * 1 * 12.
  EXPECT_EQ(r.budget_sessions, 2u * 20u * 12u);
  EXPECT_EQ(r.verdict, "winner");
  EXPECT_TRUE(r.stopped_early());
  // Acceptance criterion: >= 30% fewer sessions than the fixed run.
  EXPECT_GE(r.saved_fraction(), 0.30);

  // The fixed-budget run on the same config picks the same winner.
  const exp::AbTestResult fixed = exp::run_ab_test(groups, library, cfg);
  const exp::MetricDef rate = exp::avg_rate_kbps_metric();
  double best = -1.0;
  std::string fixed_winner;
  for (std::size_t g = 0; g < fixed.num_groups(); ++g) {
    double sum = 0.0;
    for (std::size_t w = 0; w < exp::kWindowsPerDay; ++w) {
      sum += rate.get(fixed.merged(g, w));
    }
    if (sum > best) {
      best = sum;
      fixed_winner = fixed.group_names[g];
    }
  }
  EXPECT_EQ(r.winner, fixed_winner);

  // The eliminated arm froze with a CI strictly below the winner's zero
  // baseline delta.
  ASSERT_EQ(r.arms.size(), 2u);
  const ArmReport& loser = r.arms[1];
  EXPECT_EQ(loser.name, "rmin-always");
  EXPECT_GT(loser.eliminated_round, 0u);
  EXPECT_LT(loser.hi, 0.0);
  EXPECT_EQ(r.arms[0].eliminated_round, 0u);
}

TEST(SeqEngine, DecisionLogByteIdenticalAcrossThreadCounts) {
  const auto groups = separated_groups();
  const media::VideoLibrary library = media::VideoLibrary::standard(11);
  SeqConfig sc;
  sc.batch_sessions = 20;

  exp::AbTestConfig cfg = small_config();
  cfg.threads = 1;
  const SeqResult r1 = run_sequential(groups, library, cfg, rate_metric(), sc);
  cfg.threads = 4;
  const SeqResult r4 = run_sequential(groups, library, cfg, rate_metric(), sc);

  EXPECT_EQ(r1.decision_log, r4.decision_log);
  EXPECT_EQ(r1.winner, r4.winner);
  EXPECT_EQ(r1.sessions_used, r4.sessions_used);
  EXPECT_FALSE(r1.decision_log.empty());
  // Every line is a JSON object; the last carries the verdict.
  EXPECT_EQ(r1.decision_log.back(), '\n');
  EXPECT_NE(r1.decision_log.find("\"verdict\":\"winner\""), std::string::npos);
}

TEST(SeqEngine, NearEquivalentPairExhaustsBudget) {
  // Control vs R_min-Always on REBUFFERS is the paper's own
  // indistinguishable pair (p = 0.25): the engine must run to budget
  // without declaring a winner at 95%.
  const auto groups = separated_groups();
  const auto cfg = small_config();
  const media::VideoLibrary library = media::VideoLibrary::standard(11);
  SeqMetric rebuf;
  ASSERT_TRUE(seq_metric_by_name("rebuffers", &rebuf));
  SeqConfig sc;
  sc.batch_sessions = 40;
  const SeqResult r = run_sequential(groups, library, cfg, rebuf, sc);

  EXPECT_EQ(r.verdict, "budget");
  EXPECT_FALSE(r.stopped_early());
  EXPECT_EQ(r.sessions_used, r.budget_sessions);
  EXPECT_EQ(r.arms[0].eliminated_round, 0u);
  EXPECT_EQ(r.arms[1].eliminated_round, 0u);
  // Both arms streamed the full per-arm share of the budget.
  EXPECT_EQ(static_cast<std::size_t>(r.arms[1].n),
            r.budget_sessions / groups.size());
}

TEST(SeqEngine, MinBatchesDefersElimination) {
  const auto groups = separated_groups();
  const auto cfg = small_config();
  const media::VideoLibrary library = media::VideoLibrary::standard(11);

  SeqConfig fast;
  fast.batch_sessions = 20;
  fast.min_batches = 2;
  const SeqResult early =
      run_sequential(groups, library, cfg, rate_metric(), fast);
  ASSERT_EQ(early.verdict, "winner");

  SeqConfig gated = fast;
  gated.min_batches = early.rounds + 3;
  const SeqResult late =
      run_sequential(groups, library, cfg, rate_metric(), gated);
  // No elimination may happen before min_batches rounds completed.
  EXPECT_GE(late.rounds, gated.min_batches);
  EXPECT_EQ(late.winner, early.winner);
  EXPECT_GT(late.sessions_used, early.sessions_used);
}

TEST(SeqEngine, BatchSizeDoesNotChangeObservedDeltas) {
  // Batch membership is a pure function of the canonical key order, so
  // re-batching only changes WHEN the elimination check runs, never the
  // per-session deltas: with elimination disabled (huge min_batches) the
  // final per-arm means agree exactly across batch sizes.
  const auto groups = separated_groups();
  const auto cfg = small_config();
  const media::VideoLibrary library = media::VideoLibrary::standard(11);

  SeqConfig a;
  a.batch_sessions = 30;
  a.min_batches = 1000;
  SeqConfig b;
  b.batch_sessions = 80;
  b.min_batches = 1000;
  const SeqResult ra = run_sequential(groups, library, cfg, rate_metric(), a);
  const SeqResult rb = run_sequential(groups, library, cfg, rate_metric(), b);

  ASSERT_EQ(ra.arms.size(), rb.arms.size());
  EXPECT_EQ(ra.sessions_used, ra.budget_sessions);
  EXPECT_EQ(rb.sessions_used, rb.budget_sessions);
  for (std::size_t i = 0; i < ra.arms.size(); ++i) {
    EXPECT_EQ(ra.arms[i].n, rb.arms[i].n);
    EXPECT_EQ(ra.arms[i].mean, rb.arms[i].mean);  // bit-identical
  }
}

// --- Common-random-numbers invariance -----------------------------------
//
// The elimination rule works on PAIRED deltas: arm and baseline must see
// the identical environment, trace, and workload for every key. These
// tests pin the invariance down at both layers.

TEST(SeqEngine, RejectsAGridTooLargeToCheckpointBeforeRunning) {
  // Sequential checkpoints carry the same grid as fixed runs, so a run
  // one day past the largest checkpointable grid refuses to start.
  const std::string path = testing::TempDir() + "/bba_seq_huge.ckpt";
  std::remove(path.c_str());
  exp::AbTestConfig cfg = small_config();
  cfg.days = static_cast<std::size_t>(
      obs::kMaxGridCells / (2 * exp::kWindowsPerDay) + 1);
  exp::CheckpointOptions opts;
  opts.out = path;
  SeqResult result;
  std::string error;
  EXPECT_FALSE(run_sequential_checkpointed(
      separated_groups(), media::VideoLibrary::standard(11), cfg,
      rate_metric(), SeqConfig{}, opts, &result, &error));
  EXPECT_NE(error.find("too large to checkpoint"), std::string::npos)
      << error;
  EXPECT_FALSE(std::ifstream(path).good());
}

TEST(CrnInvariance, DrawsAreAPureFunctionOfTheKey) {
  const exp::Population pop;
  const media::VideoLibrary library = media::VideoLibrary::standard(11);
  const exp::WorkloadConfig wl;
  const exp::SessionKey key{2014, 2, 7, 41};

  const exp::UserEnvironment e1 = pop.environment_for(key);
  const exp::UserEnvironment e2 = pop.environment_for(key);
  EXPECT_EQ(e1.tier, e2.tier);
  EXPECT_EQ(e1.trace.median_bps, e2.trace.median_bps);
  EXPECT_EQ(e1.trace.sigma_log, e2.trace.sigma_log);
  EXPECT_EQ(e1.has_outages, e2.has_outages);

  const net::CapacityTrace t1 = pop.trace_for(e1, key);
  const net::CapacityTrace t2 = pop.trace_for(e2, key);
  for (double t = 0.0; t < 3600.0; t += 37.0) {
    EXPECT_EQ(t1.rate_at_bps(t), t2.rate_at_bps(t));
  }

  const exp::SessionSpec s1 = exp::session_for(library, wl, key);
  const exp::SessionSpec s2 = exp::session_for(library, wl, key);
  EXPECT_EQ(s1.video_index, s2.video_index);
  EXPECT_EQ(s1.watch_duration_s, s2.watch_duration_s);

  // A different session index yields a different stream (sanity that the
  // key actually feeds the draw).
  exp::SessionKey other = key;
  other.session = 42;
  const exp::UserEnvironment e3 = pop.environment_for(other);
  const exp::SessionSpec s3 = exp::session_for(library, wl, other);
  EXPECT_TRUE(e3.tier != e1.tier ||
              e3.trace.median_bps != e1.trace.median_bps ||
              s3.video_index != s1.video_index ||
              s3.watch_duration_s != s1.watch_duration_s);
}

TEST(CrnInvariance, SharedGroupsIdenticalRegardlessOfGroupCount) {
  // Adding a third arm must not perturb the cells of the first two: each
  // group streams the same keyed sessions no matter how many other
  // groups ride along. This is what lets the sequential engine drop arms
  // mid-run without changing what the survivors observe.
  const media::VideoLibrary library = media::VideoLibrary::standard(11);
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 10;
  cfg.days = 1;
  cfg.seed = 99;
  cfg.threads = 2;

  const std::vector<exp::Group> two = {
      {"control", exp::make_control_factory()},
      {"bba2", exp::make_bba2_factory()}};
  const std::vector<exp::Group> three = {
      {"control", exp::make_control_factory()},
      {"bba2", exp::make_bba2_factory()},
      {"rmin-always", exp::make_rmin_factory()}};

  const exp::AbTestResult r2 = exp::run_ab_test(two, library, cfg);
  const exp::AbTestResult r3 = exp::run_ab_test(three, library, cfg);

  for (std::size_t g = 0; g < 2; ++g) {
    for (std::size_t d = 0; d < cfg.days; ++d) {
      for (std::size_t w = 0; w < exp::kWindowsPerDay; ++w) {
        const exp::WindowMetrics& a = r2.cells[g][d][w];
        const exp::WindowMetrics& b = r3.cells[g][d][w];
        EXPECT_EQ(a.sessions, b.sessions);
        EXPECT_EQ(a.play_hours, b.play_hours);  // bit-identical
        EXPECT_EQ(a.rebuffer_count, b.rebuffer_count);
        EXPECT_EQ(a.avg_rate_bps, b.avg_rate_bps);
        EXPECT_EQ(a.steady_rate_bps, b.steady_rate_bps);
        EXPECT_EQ(a.switch_count, b.switch_count);
      }
    }
  }
}

}  // namespace
}  // namespace bba::seq

namespace bba::stats {
namespace {

TEST(StudentTCritical, MatchesTables) {
  // Classic two-sided 95% critical values.
  EXPECT_NEAR(student_t_critical(10.0, 0.95), 2.228, 5e-3);
  EXPECT_NEAR(student_t_critical(30.0, 0.95), 2.042, 5e-3);
  EXPECT_NEAR(student_t_critical(1.0, 0.95), 12.706, 5e-2);
  // Large df converges to the normal quantile.
  EXPECT_NEAR(student_t_critical(1e6, 0.95), 1.960, 5e-3);
  EXPECT_NEAR(student_t_critical(1e6, 0.99), 2.576, 5e-3);
  // Round trip: P(|T| > t*) = 1 - confidence.
  const double t = student_t_critical(17.0, 0.9);
  EXPECT_NEAR(student_t_two_sided_p(t, 17.0), 0.1, 1e-6);
}

TEST(WelchTTest, ConfidenceIntervalCoversTheMeanDifference) {
  const std::vector<double> a = {5.1, 4.9, 5.3, 5.0, 5.2, 4.8};
  const std::vector<double> b = {3.9, 4.1, 4.0, 4.2, 3.8, 4.0};
  const TTestResult r = welch_t_test(a, b, 0.95);
  EXPECT_NEAR(r.mean_diff, 1.05, 1e-9);
  EXPECT_LT(r.ci_lo, r.mean_diff);
  EXPECT_GT(r.ci_hi, r.mean_diff);
  EXPECT_GT(r.ci_lo, 0.0);  // clearly separated at 95%
  EXPECT_TRUE(r.significant(0.05));
  EXPECT_EQ(r.confidence, 0.95);

  // Wider level -> wider interval, same point estimate.
  const TTestResult r99 = welch_t_test(a, b, 0.99);
  EXPECT_EQ(r99.mean_diff, r.mean_diff);
  EXPECT_LT(r99.ci_lo, r.ci_lo);
  EXPECT_GT(r99.ci_hi, r.ci_hi);
}

TEST(WelchTTest, RunningOverloadMatchesSpanOverload) {
  const std::vector<double> a = {1.0, 2.5, 2.0, 3.5, 2.2, 1.8, 2.9};
  const std::vector<double> b = {2.0, 3.1, 2.8, 4.0, 3.3};
  Running ra, rb;
  for (double x : a) ra.add(x);
  for (double x : b) rb.add(x);
  const TTestResult s = welch_t_test(a, b, 0.9);
  const TTestResult i = welch_t_test(ra, rb, 0.9);
  EXPECT_NEAR(i.t, s.t, 1e-12);
  EXPECT_NEAR(i.df, s.df, 1e-12);
  EXPECT_NEAR(i.p_value, s.p_value, 1e-12);
  EXPECT_NEAR(i.mean_diff, s.mean_diff, 1e-12);
  EXPECT_NEAR(i.ci_lo, s.ci_lo, 1e-12);
  EXPECT_NEAR(i.ci_hi, s.ci_hi, 1e-12);
}

TEST(WelchTTest, DegenerateSamplesCollapseTheInterval) {
  const std::vector<double> a = {2.0, 2.0, 2.0};
  const std::vector<double> b = {2.0, 2.0};
  const TTestResult r = welch_t_test(a, b);
  EXPECT_EQ(r.p_value, 1.0);
  EXPECT_EQ(r.ci_lo, r.mean_diff);
  EXPECT_EQ(r.ci_hi, r.mean_diff);
}

TEST(RunningMoments, FromMomentsRoundTrips) {
  Running r;
  for (double x : {4.0, 7.5, -1.0, 3.3, 9.9}) r.add(x);
  const Running copy = Running::from_moments(r.count(), r.mean(), r.m2());
  EXPECT_EQ(copy.count(), r.count());
  EXPECT_EQ(copy.mean(), r.mean());
  EXPECT_EQ(copy.m2(), r.m2());
  EXPECT_EQ(copy.variance(), r.variance());

  // Merging a reconstructed half equals accumulating the whole.
  Running left, right, whole;
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i < 3 ? left : right).add(xs[i]);
    whole.add(xs[i]);
  }
  Running merged =
      Running::from_moments(left.count(), left.mean(), left.m2());
  merged.merge(right);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(merged.variance(), whole.variance(), 1e-12);
}

}  // namespace
}  // namespace bba::stats
