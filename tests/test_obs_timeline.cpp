// Fleet telemetry: the quantile sketch's error bound and exact merge, the
// timeline aggregator's merge algebra, shard-merge == single-run byte
// equality, and thread-count invariance of the serialized artifact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exp/abtest.hpp"
#include "exp/block.hpp"
#include "exp/session_key.hpp"
#include "media/video.hpp"
#include "obs/obs.hpp"
#include "obs/timeline.hpp"
#include "sim/metrics.hpp"
#include "stats/sketch.hpp"
#include "util/rng.hpp"

namespace bba {
namespace {

std::string sketch_json(const stats::QuantileSketch& s) {
  std::string out;
  s.append_json(out);
  return out;
}

TEST(QuantileSketch, EmptyAndZeroBucketBehavior) {
  stats::QuantileSketch s;
  EXPECT_EQ(s.quantile(0.5), 0.0);
  s.add(0.0);
  s.add(-3.0);
  s.add(std::nan(""));
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.zero_count(), 3u);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  s.add(8.0);
  // Rank 3 of 4 is the sole positive value.
  EXPECT_GT(s.quantile(1.0), 0.0);
}

TEST(QuantileSketch, RelativeErrorWithinBoundAcrossDecades) {
  // Deterministic values spanning ~9 decades (milliseconds to gigabits):
  // the sketch's nearest-rank estimate must sit within 1/64 relative error
  // of the true order statistic.
  util::Rng rng(42);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    const double decade = rng.uniform(-3.0, 6.0);
    values.push_back(std::pow(10.0, decade));
  }
  stats::QuantileSketch s;
  for (double v : values) s.add(v);
  std::sort(values.begin(), values.end());

  for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1) + 0.5);
    const double truth = values[rank];
    const double est = s.quantile(q);
    EXPECT_LE(std::abs(est - truth), truth / 64.0 + 1e-12)
        << "q=" << q << " truth=" << truth << " est=" << est;
  }
}

TEST(QuantileSketch, MergeEqualsCombinedInsert) {
  util::Rng rng(7);
  stats::QuantileSketch a, b, combined;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(0.0, 1e6) - 100.0;  // some negatives too
    if (i % 2 == 0) {
      a.add(v);
    } else {
      b.add(v);
    }
    combined.add(v);
  }
  stats::QuantileSketch merged = a;
  merged.merge(b);
  EXPECT_EQ(sketch_json(merged), sketch_json(combined));

  // Commutative: b ⊕ a serializes identically.
  stats::QuantileSketch swapped = b;
  swapped.merge(a);
  EXPECT_EQ(sketch_json(swapped), sketch_json(combined));
}

TEST(QuantileSketch, RankPastAllBucketsReturnsHighestOccupied) {
  // With count >= 2^53, q*(count-1)+0.5 rounds up to count itself, so the
  // cumulative walk never satisfies rank < cum and quantile() falls out of
  // the loop. The estimate must be the highest OCCUPIED bucket's midpoint
  // -- a regression pinned the top of the whole range (bucket kBuckets-1,
  // ~5.6e14) instead, a value the sketch never contained.
  stats::QuantileSketch s;
  const int b = stats::QuantileSketch::bucket_of(1000.0);
  s.add_bucket(b, std::uint64_t{1} << 53);
  EXPECT_EQ(s.quantile(1.0), stats::QuantileSketch::bucket_mid(b));
  EXPECT_LT(s.quantile(1.0), 2000.0);

  // All mass in the zero bucket: the fallthrough reports 0.0, not a
  // fabricated positive value.
  stats::QuantileSketch zeros;
  zeros.add_zero(std::uint64_t{1} << 53);
  EXPECT_EQ(zeros.quantile(1.0), 0.0);
}

TEST(QuantileSketch, DeserializationHooksRoundTrip) {
  stats::QuantileSketch s;
  s.add(3.5, 4);
  s.add(1e9);
  s.add(-1.0, 2);
  stats::QuantileSketch rebuilt;
  rebuilt.add_zero(s.zero_count());
  for (int b = 0; b < stats::QuantileSketch::kBuckets; ++b) {
    if (s.bucket_count(b) != 0) rebuilt.add_bucket(b, s.bucket_count(b));
  }
  EXPECT_EQ(rebuilt.count(), s.count());
  EXPECT_EQ(sketch_json(rebuilt), sketch_json(s));
}

sim::SessionMetrics fake_session(util::Rng& rng) {
  sim::SessionMetrics m;
  m.play_s = rng.uniform(10.0, 3600.0);
  m.join_s = rng.uniform(0.0, 10.0);
  m.rebuffer_count = rng.uniform_int(0, 3);
  m.rebuffer_s = static_cast<double>(m.rebuffer_count) * rng.uniform(0.5, 4.0);
  m.fault_stall_count = rng.uniform_int(0, 1);
  m.switch_count = rng.uniform_int(0, 20);
  m.avg_rate_bps = rng.uniform(2e5, 5e6);
  m.avg_buffer_s = rng.uniform(0.0, 240.0);
  m.abandoned = rng.uniform() < 0.1;
  return m;
}

TEST(TimelineAggregator, MergeIsAssociativeAndCommutative) {
  const std::vector<std::string> groups = {"control", "bba2"};
  obs::TimelineAggregator a, b, c, single;
  for (auto* t : {&a, &b, &c, &single}) t->begin_run(9, groups, 2, 12);

  // Overlapping cells on purpose: every shard hits (0, 0, 0).
  util::Rng rng(123);
  obs::TimelineAggregator* shards[] = {&a, &b, &c};
  for (int i = 0; i < 300; ++i) {
    const auto day = static_cast<std::size_t>(rng.uniform_int(0, 1));
    const auto window = static_cast<std::size_t>(rng.uniform_int(0, 11));
    const auto group = static_cast<std::size_t>(rng.uniform_int(0, 1));
    const sim::SessionMetrics m = fake_session(rng);
    shards[i % 3]->record(day, window, group, m);
    single.record(day, window, group, m);
    shards[i % 7 == 0 ? 0 : i % 3]->record(0, 0, 0, m);
    single.record(0, 0, 0, m);
  }

  // (a ⊕ b) ⊕ c
  obs::TimelineAggregator left;
  left.begin_run(9, groups, 2, 12);
  ASSERT_TRUE(left.merge(a));
  ASSERT_TRUE(left.merge(b));
  ASSERT_TRUE(left.merge(c));
  // a ⊕ (b ⊕ c)
  obs::TimelineAggregator bc;
  bc.begin_run(9, groups, 2, 12);
  ASSERT_TRUE(bc.merge(b));
  ASSERT_TRUE(bc.merge(c));
  obs::TimelineAggregator right;
  right.begin_run(9, groups, 2, 12);
  ASSERT_TRUE(right.merge(a));
  ASSERT_TRUE(right.merge(bc));
  // c ⊕ b ⊕ a
  obs::TimelineAggregator reversed;
  reversed.begin_run(9, groups, 2, 12);
  ASSERT_TRUE(reversed.merge(c));
  ASSERT_TRUE(reversed.merge(b));
  ASSERT_TRUE(reversed.merge(a));

  const std::string want = single.to_json();
  EXPECT_EQ(left.to_json(), want);
  EXPECT_EQ(right.to_json(), want);
  EXPECT_EQ(reversed.to_json(), want);
}

TEST(TimelineAggregator, MergeRejectsMismatchedRuns) {
  obs::TimelineAggregator a, seed_mismatch, group_mismatch, empty;
  a.begin_run(1, {"control"}, 1, 12);
  seed_mismatch.begin_run(2, {"control"}, 1, 12);
  group_mismatch.begin_run(1, {"bba2"}, 1, 12);
  EXPECT_FALSE(a.merge(seed_mismatch));
  EXPECT_FALSE(a.merge(group_mismatch));
  // Merging an unconfigured shard is a no-op success; merging into an
  // unconfigured aggregator adopts the shard's run.
  EXPECT_TRUE(a.merge(empty));
  EXPECT_TRUE(empty.merge(a));
  EXPECT_EQ(empty.to_json(), a.to_json());
}

TEST(TimelineAggregator, MergeGrowsToTheDeeperShard) {
  const std::vector<std::string> groups = {"g"};
  obs::TimelineAggregator shallow, deep, single;
  shallow.begin_run(5, groups, 1, 12);
  deep.begin_run(5, groups, 3, 12);
  single.begin_run(5, groups, 3, 12);
  util::Rng rng(8);
  const sim::SessionMetrics m0 = fake_session(rng);
  const sim::SessionMetrics m2 = fake_session(rng);
  shallow.record(0, 4, 0, m0);
  single.record(0, 4, 0, m0);
  deep.record(2, 7, 0, m2);
  single.record(2, 7, 0, m2);
  ASSERT_TRUE(shallow.merge(deep));
  EXPECT_EQ(shallow.days(), 3u);
  EXPECT_EQ(shallow.to_json(), single.to_json());
}

// Simulates [lo, hi) of the canonical key grid through a fresh runner and
// folds it into `timeline`, exactly as a shard of a split run would.
void run_shard(const std::vector<exp::Group>& groups,
               const media::VideoLibrary& library, const exp::AbTestConfig& cfg,
               const std::vector<exp::SessionKey>& keys, std::size_t lo,
               std::size_t hi, obs::TimelineAggregator& timeline) {
  timeline.begin_run(cfg.seed, {"control", "bba2"}, cfg.days,
                     exp::kWindowsPerDay);
  exp::SessionBlockRunner runner(groups, library, cfg);
  runner.run(
      hi - lo, [&](std::size_t i) { return keys[lo + i]; },
      [&](std::size_t i, std::size_t g, const sim::SessionMetrics& m) {
        timeline.record(keys[lo + i].day, keys[lo + i].window, g, m);
      });
  runner.finish();
}

TEST(TimelineAggregator, ShardMergeReproducesSingleRunBytes) {
  const media::VideoLibrary library = media::VideoLibrary::standard(11);
  std::vector<exp::Group> groups;
  groups.push_back({"control", exp::make_control_factory()});
  groups.push_back({"bba2", exp::make_bba2_factory()});
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 2;
  cfg.days = 1;
  cfg.seed = 77;
  cfg.threads = 2;

  std::vector<exp::SessionKey> keys;
  for (std::size_t window = 0; window < exp::kWindowsPerDay; ++window) {
    for (std::size_t user = 0; user < cfg.sessions_per_window; ++user) {
      keys.push_back(exp::SessionKey{cfg.seed, 0, window, user});
    }
  }

  obs::TimelineAggregator full;
  run_shard(groups, library, cfg, keys, 0, keys.size(), full);

  // Three uneven shards, merged out of order.
  obs::TimelineAggregator s0, s1, s2;
  run_shard(groups, library, cfg, keys, 0, 5, s0);
  run_shard(groups, library, cfg, keys, 5, 16, s1);
  run_shard(groups, library, cfg, keys, 16, keys.size(), s2);
  obs::TimelineAggregator merged;
  merged.begin_run(cfg.seed, {"control", "bba2"}, cfg.days,
                   exp::kWindowsPerDay);
  ASSERT_TRUE(merged.merge(s2));
  ASSERT_TRUE(merged.merge(s0));
  ASSERT_TRUE(merged.merge(s1));

  EXPECT_EQ(merged.to_json(), full.to_json());
}

std::string timeline_of_run(std::size_t threads) {
  obs::Observability handle;
  handle.timeline = std::make_unique<obs::TimelineAggregator>();
  obs::install(&handle);
  const media::VideoLibrary library = media::VideoLibrary::standard(11);
  std::vector<exp::Group> groups;
  groups.push_back({"control", exp::make_control_factory()});
  groups.push_back({"bba2", exp::make_bba2_factory()});
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 2;
  cfg.days = 1;
  cfg.seed = 31;
  cfg.threads = threads;
  (void)exp::run_ab_test(groups, library, cfg);
  obs::install(nullptr);
  return handle.timeline->to_json();
}

TEST(TimelineAggregator, ArtifactIsThreadCountInvariant) {
  const std::string one = timeline_of_run(1);
  const std::string four = timeline_of_run(4);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("\"schema\":\"bba.timeline.v1\""), std::string::npos);
  EXPECT_NE(one.find("\"groups\":[\"control\",\"bba2\"]"), std::string::npos);
}

TEST(TimelineAggregator, RecordAccumulatesIntegerCells) {
  obs::TimelineAggregator t;
  t.begin_run(3, {"g"}, 1, 12);
  sim::SessionMetrics m;
  m.play_s = 120.0;
  m.join_s = 1.5;
  m.rebuffer_count = 2;
  m.rebuffer_s = 3.25;
  m.switch_count = 4;
  m.avg_rate_bps = 3e6;
  m.avg_buffer_s = 90.0;
  m.abandoned = true;
  t.record(0, 6, 0, m);
  t.record(0, 6, 0, m);
  const obs::TimelineCell& c = t.cell(0, 6, 0);
  EXPECT_EQ(c.sessions, 2u);
  EXPECT_EQ(c.abandoned, 2u);
  EXPECT_EQ(c.rebuffers, 4u);
  EXPECT_EQ(c.switches, 8u);
  EXPECT_EQ(c.play_micro, 240000000u);
  EXPECT_EQ(c.rebuffer_micro, 6500000u);
  EXPECT_EQ(c.join_micro, 3000000u);
  // round(3e6 * 120 / 1000) kbit per session.
  EXPECT_EQ(c.rate_play_kbit, 720000u);
  EXPECT_EQ(t.group_total(0).sessions, 2u);
  EXPECT_EQ(t.sketches(0).buffer_s.count(), 2u);
}

}  // namespace
}  // namespace bba
