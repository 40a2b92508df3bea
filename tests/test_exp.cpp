// Tests for bba::exp: population sampling, workload, the A/B harness
// (common random numbers, aggregation), and the report math.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include <cstdio>
#include <string>

#include "alloc_budget.hpp"
#include "exp/abtest.hpp"
#include "exp/block.hpp"
#include "exp/dump.hpp"
#include "exp/population.hpp"
#include "exp/report.hpp"
#include "exp/workload.hpp"
#include "media/video.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/csv.hpp"
#include "util/units.hpp"

namespace bba::exp {
namespace {

TEST(Population, WindowLabels) {
  EXPECT_EQ(window_label(0), "00-02");
  EXPECT_EQ(window_label(5), "10-12");
  EXPECT_EQ(window_label(11), "22-24");
}

TEST(Population, PeakWindowsAreTheUsaEvening) {
  int peaks = 0;
  for (std::size_t w = 0; w < kWindowsPerDay; ++w) {
    if (is_peak_window(w)) ++peaks;
  }
  EXPECT_EQ(peaks, 3);
  EXPECT_TRUE(is_peak_window(0));
  EXPECT_FALSE(is_peak_window(6));
}

TEST(Population, SamplingIsDeterministic) {
  const Population pop;
  util::Rng a(5);
  util::Rng b(5);
  const UserEnvironment ea = pop.sample_environment(0, a);
  const UserEnvironment eb = pop.sample_environment(0, b);
  EXPECT_EQ(ea.tier, eb.tier);
  EXPECT_DOUBLE_EQ(ea.trace.median_bps, eb.trace.median_bps);
  EXPECT_DOUBLE_EQ(ea.trace.sigma_log, eb.trace.sigma_log);
  EXPECT_EQ(ea.has_outages, eb.has_outages);
}

TEST(Population, PeakWindowsAreSlowerAndMoreVariable) {
  const Population pop;
  util::Rng rng(7);
  double peak_median = 0.0, off_median = 0.0;
  double peak_sigma = 0.0, off_sigma = 0.0;
  constexpr int kN = 3000;
  for (int i = 0; i < kN; ++i) {
    util::Rng r1 = rng.fork(static_cast<unsigned>(i));
    util::Rng r2 = rng.fork(static_cast<unsigned>(i));
    const UserEnvironment peak = pop.sample_environment(1, r1);
    const UserEnvironment off = pop.sample_environment(6, r2);
    peak_median += peak.trace.median_bps;
    off_median += off.trace.median_bps;
    peak_sigma += peak.trace.sigma_log;
    off_sigma += off.trace.sigma_log;
  }
  EXPECT_LT(peak_median, off_median * 0.8);
  EXPECT_GT(peak_sigma, off_sigma * 1.3);
}

TEST(Population, TierWeightsRoughlyRespected) {
  PopulationConfig cfg;
  const Population pop(cfg);
  util::Rng rng(11);
  std::vector<int> counts(cfg.tiers.size(), 0);
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    util::Rng r = rng.fork(static_cast<unsigned>(i));
    ++counts[pop.sample_environment(6, r).tier];
  }
  double total_weight = 0.0;
  for (const auto& t : cfg.tiers) total_weight += t.weight;
  for (std::size_t t = 0; t < cfg.tiers.size(); ++t) {
    const double expected = cfg.tiers[t].weight / total_weight;
    EXPECT_NEAR(static_cast<double>(counts[t]) / kN, expected, 0.02);
  }
}

TEST(Population, TraceRespectsEnvironmentBounds) {
  const Population pop;
  util::Rng rng(13);
  const UserEnvironment env = pop.sample_environment(0, rng);
  const net::CapacityTrace trace = pop.make_trace(env, rng);
  if (!env.has_outages) {
    EXPECT_GE(trace.min_rate_bps(), env.trace.min_bps - 1e-6);
  }
  EXPECT_LE(trace.max_rate_bps(), env.trace.max_bps + 1e-6);
}

TEST(Workload, SessionRespectsBounds) {
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  WorkloadConfig cfg;
  util::Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const SessionSpec spec = sample_session(lib, cfg, rng);
    ASSERT_LT(spec.video_index, lib.size());
    EXPECT_GE(spec.watch_duration_s, cfg.min_watch_s);
    EXPECT_LE(spec.watch_duration_s,
              lib.at(spec.video_index).duration_s() + 1e-9);
  }
}

TEST(Workload, MedianNearConfig) {
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  WorkloadConfig cfg;
  util::Rng rng(19);
  std::vector<double> xs;
  for (int i = 0; i < 4001; ++i) {
    xs.push_back(sample_session(lib, cfg, rng).watch_duration_s);
  }
  std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
  EXPECT_NEAR(xs[xs.size() / 2] / cfg.median_watch_s, 1.0, 0.15);
}

AbTestConfig tiny_config() {
  AbTestConfig cfg;
  cfg.sessions_per_window = 3;
  cfg.days = 2;
  cfg.seed = 99;
  return cfg;
}

TEST(AbTest, ShapeAndDeterminism) {
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const std::vector<Group> groups = {
      {"control", make_control_factory()},
      {"bba2", make_bba2_factory()},
  };
  const AbTestResult r1 = run_ab_test(groups, lib, tiny_config());
  const AbTestResult r2 = run_ab_test(groups, lib, tiny_config());
  ASSERT_EQ(r1.num_groups(), 2u);
  ASSERT_EQ(r1.num_days(), 2u);
  ASSERT_EQ(r1.cells[0][0].size(), kWindowsPerDay);
  for (std::size_t g = 0; g < 2; ++g) {
    for (std::size_t d = 0; d < 2; ++d) {
      for (std::size_t w = 0; w < kWindowsPerDay; ++w) {
        EXPECT_DOUBLE_EQ(r1.cells[g][d][w].play_hours,
                         r2.cells[g][d][w].play_hours);
        EXPECT_DOUBLE_EQ(r1.cells[g][d][w].rebuffer_count,
                         r2.cells[g][d][w].rebuffer_count);
        EXPECT_EQ(r1.cells[g][d][w].sessions, 3);
      }
    }
  }
}

// The registry a run fills is a pure function of (seed, config), like its
// results: at 1 and 4 threads every counter and histogram agrees, except
// the executor's own (at 1 thread no pool runs). A histogram's sum is a
// floating-point fold per slot, so its rounding follows the slot split;
// its count and buckets are exact. Each run gets a fresh library, so both
// build every title's decision table from cold.
TEST(AbTest, RegistryIsThreadInvariant) {
  const std::vector<Group> groups = {
      {"control", make_control_factory()},
      {"bba1", make_bba1_factory()},
      {"bba2", make_bba2_factory()},
      {"bba-others", make_bba_others_factory()},
  };
  auto run = [&](std::size_t threads) {
    const media::VideoLibrary lib = media::VideoLibrary::standard(11);
    obs::Observability handle;
    handle.metrics = std::make_unique<obs::MetricsRegistry>(threads);
    obs::install(&handle);
    AbTestConfig cfg = tiny_config();
    cfg.threads = threads;
    run_ab_test(groups, lib, cfg);
    obs::install(nullptr);
    return handle.metrics->snapshot();
  };
  const obs::MetricsSnapshot one = run(1);
  const obs::MetricsSnapshot four = run(4);

  using obs::Counter;
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    if (c == Counter::kPoolLoops || c == Counter::kPoolChunksClaimed) {
      continue;
    }
    EXPECT_EQ(one.counter(c), four.counter(c)) << obs::counter_name(c);
  }
  for (std::size_t i = 0; i < obs::kNumHists; ++i) {
    const auto h = static_cast<obs::Hist>(i);
    if (h == obs::Hist::kExecutorBacklog) continue;
    const obs::MetricsSnapshot::HistValues& a = one.hist(h);
    const obs::MetricsSnapshot::HistValues& b = four.hist(h);
    EXPECT_EQ(a.count, b.count) << obs::hist_name(h);
    EXPECT_NEAR(a.sum, b.sum, 1e-9 * a.sum) << obs::hist_name(h);
    EXPECT_TRUE(std::equal(std::begin(a.buckets), std::end(a.buckets),
                           std::begin(b.buckets)))
        << obs::hist_name(h);
  }
  // One build per title a BBA session played, at most the library's six.
  EXPECT_GT(one.counter(Counter::kReservoirMemoBuilds), 0u);
  EXPECT_LE(one.counter(Counter::kReservoirMemoBuilds), 6u);
  EXPECT_GT(one.counter(Counter::kReservoirMemoHits), 0u);
}

// The runner holds per-key state for a window of keys in flight, not for
// the block: once its scratch is warm, a 20,000-key two-group block
// allocates far less than one SessionMetrics per session (4.8 MB).
TEST(SessionBlockRunner, BlockMemoryIsBoundedByTheWindow) {
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const std::vector<Group> groups = {
      {"control", make_control_factory()},
      {"bba2", make_bba2_factory()},
  };
  AbTestConfig cfg;
  cfg.seed = 2014;
  cfg.threads = 4;
  // Short sessions keep the 80,000 simulations quick; memory per key does
  // not depend on the watch time.
  cfg.workload.median_watch_s = 40.0;
  cfg.workload.min_watch_s = 20.0;
  constexpr std::size_t kKeys = 20000;
  std::vector<SessionKey> keys;
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys.push_back(
        SessionKey{cfg.seed, 0, i % kWindowsPerDay, i / kWindowsPerDay});
  }
  SessionBlockRunner runner(groups, lib, cfg);
  std::size_t folded = 0;
  auto fold = [&](std::size_t, std::size_t, const sim::SessionMetrics&) {
    ++folded;
  };
  auto key_at = [&](std::size_t i) { return keys[i]; };
  // A short block warms the scratch, tables and ABR instances; what the
  // long block allocates beyond that grows with it.
  runner.run(kKeys / 10, key_at, fold);
  bool over_budget = false;
  {
    testing_support::AllocationBudget budget(std::size_t{1} << 20);
    try {
      runner.run(kKeys, key_at, fold);
    } catch (const std::bad_alloc&) {
      over_budget = true;
    }
  }
  EXPECT_FALSE(over_budget) << "the block allocated more than 1 MiB";
  EXPECT_EQ(folded, (kKeys / 10 + kKeys) * groups.size());
}

// Outage keys stream their traces like every other key, so once the
// scratch is warm an all-outage run allocates nothing per key: a block of
// 240 keys allocates exactly what a block of 12 does (the run's own
// std::function wrappers).
TEST(SessionBlockRunner, AllOutageRunAllocatesNothingPerKeyOnceWarm) {
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const std::vector<Group> groups = {
      {"control", make_control_factory()},
      {"bba2", make_bba2_factory()},
  };
  AbTestConfig cfg;
  cfg.seed = 2014;
  cfg.threads = 1;
  cfg.population.outage_session_fraction = 1.0;
  std::vector<SessionKey> keys;
  for (std::size_t i = 0; i < 240; ++i) {
    keys.push_back(
        SessionKey{cfg.seed, 0, i % kWindowsPerDay, i / kWindowsPerDay});
  }
  SessionBlockRunner runner(groups, lib, cfg);
  std::size_t folded = 0;
  auto fold = [&](std::size_t, std::size_t, const sim::SessionMetrics&) {
    ++folded;
  };
  auto key_at = [&](std::size_t i) { return keys[i]; };
  runner.run(keys.size(), key_at, fold);
  auto bytes_of = [&](std::size_t n_keys) {
    testing_support::AllocationBudget budget(std::size_t{1} << 20);
    runner.run(n_keys, key_at, fold);
    return budget.used();
  };
  const std::size_t few = bytes_of(12);
  EXPECT_EQ(bytes_of(keys.size()), few);
  EXPECT_LT(few, 1024u);
  EXPECT_EQ(folded, (2 * keys.size() + 12) * groups.size());
}

TEST(AbTest, CommonRandomNumbersGiveIdenticalEnvironments) {
  // Two groups running the same algorithm must produce identical cells:
  // the environment stream does not depend on the group.
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const std::vector<Group> groups = {
      {"a", make_rmin_factory()},
      {"b", make_rmin_factory()},
  };
  const AbTestResult r = run_ab_test(groups, lib, tiny_config());
  for (std::size_t d = 0; d < r.num_days(); ++d) {
    for (std::size_t w = 0; w < kWindowsPerDay; ++w) {
      EXPECT_DOUBLE_EQ(r.cells[0][d][w].play_hours,
                       r.cells[1][d][w].play_hours);
      EXPECT_DOUBLE_EQ(r.cells[0][d][w].rebuffer_count,
                       r.cells[1][d][w].rebuffer_count);
      EXPECT_DOUBLE_EQ(r.cells[0][d][w].avg_rate_bps,
                       r.cells[1][d][w].avg_rate_bps);
    }
  }
}

TEST(AbTest, GroupIndexLookup) {
  AbTestResult r;
  r.group_names = {"x", "y"};
  EXPECT_EQ(r.group_index("x"), 0u);
  EXPECT_EQ(r.group_index("y"), 1u);
}

TEST(AbTest, MergedPoolsDays) {
  AbTestResult r;
  r.group_names = {"g"};
  r.cells.resize(1);
  r.cells[0].resize(2, std::vector<WindowMetrics>(kWindowsPerDay));
  WindowMetrics& d0 = r.cells[0][0][3];
  d0.play_hours = 1.0;
  d0.rebuffer_count = 2.0;
  d0.avg_rate_bps = 1000.0;
  d0.sessions = 10;
  WindowMetrics& d1 = r.cells[0][1][3];
  d1.play_hours = 3.0;
  d1.rebuffer_count = 6.0;
  d1.avg_rate_bps = 2000.0;
  d1.sessions = 30;
  const WindowMetrics m = r.merged(0, 3);
  EXPECT_DOUBLE_EQ(m.play_hours, 4.0);
  EXPECT_DOUBLE_EQ(m.rebuffer_count, 8.0);
  EXPECT_DOUBLE_EQ(m.rebuffers_per_hour(), 2.0);
  EXPECT_DOUBLE_EQ(m.avg_rate_bps, 1750.0);  // play-hours weighted
  EXPECT_EQ(m.sessions, 40);
}

TEST(AbTest, PerDayExtraction) {
  AbTestResult r;
  r.group_names = {"g"};
  r.cells.resize(1);
  r.cells[0].resize(3, std::vector<WindowMetrics>(kWindowsPerDay));
  for (std::size_t d = 0; d < 3; ++d) {
    r.cells[0][d][0].play_hours = 1.0;
    r.cells[0][d][0].rebuffer_count = static_cast<double>(d);
  }
  const auto values = r.per_day(
      0, 0, [](const WindowMetrics& m) { return m.rebuffers_per_hour(); });
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 0.0);
  EXPECT_DOUBLE_EQ(values[2], 2.0);
}

// A deterministic batch of sessions with wildly mixed weights (seconds to
// weeks of play time), the adversarial case for order-sensitive weighted
// incremental means.
std::vector<sim::SessionMetrics> fold_fixture() {
  const double plays[] = {1e7, 3.0, 0.25, 9e4, 1.0, 4.5e6, 60.0, 7200.0};
  std::vector<sim::SessionMetrics> sessions;
  for (std::size_t i = 0; i < std::size(plays); ++i) {
    sim::SessionMetrics m;
    m.play_s = plays[i];
    m.rebuffer_count = static_cast<long long>(i % 3);
    m.rebuffer_s = 0.3 * static_cast<double>(i);
    m.avg_rate_bps = 1e6 + 7e5 * static_cast<double>(i);
    m.startup_rate_bps = 8e5 + 1e5 * static_cast<double>(i);
    m.steady_rate_bps = 1.2e6 + 3e5 * static_cast<double>(i);
    m.has_steady = plays[i] > 120.0;
    m.steady_play_s = m.has_steady ? plays[i] - 120.0 : 0.0;
    m.switch_count = static_cast<long long>(i);
    sessions.push_back(m);
  }
  return sessions;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

bool bit_equal(const WindowMetrics& a, const WindowMetrics& b) {
  return bits(a.play_hours) == bits(b.play_hours) &&
         bits(a.rebuffer_count) == bits(b.rebuffer_count) &&
         bits(a.rebuffer_s) == bits(b.rebuffer_s) &&
         bits(a.avg_rate_bps) == bits(b.avg_rate_bps) &&
         bits(a.startup_rate_bps) == bits(b.startup_rate_bps) &&
         bits(a.steady_rate_bps) == bits(b.steady_rate_bps) &&
         bits(a.switch_count) == bits(b.switch_count) &&
         bits(a.steady_play_hours) == bits(b.steady_play_hours) &&
         bits(a.fault_stall_count) == bits(b.fault_stall_count) &&
         a.sessions == b.sessions;
}

TEST(AbTest, AccumulateSessionCanonicalOrderIsByteStable) {
  // The fold contract behind checkpoint/resume: folding the same sessions
  // in the same (canonical) order always lands on bit-identical doubles.
  const std::vector<sim::SessionMetrics> sessions = fold_fixture();
  WindowMetrics a, b;
  for (const auto& m : sessions) accumulate_session(a, m);
  for (const auto& m : sessions) accumulate_session(b, m);
  EXPECT_TRUE(bit_equal(a, b));
}

TEST(AbTest, AccumulateSessionSplitAndContinueIsByteNeutral) {
  // What a checkpoint does: fold a prefix, snapshot the raw cell bits,
  // CONTINUE folding from the snapshot. Every split point must land on the
  // same bits as the uninterrupted fold -- the incremental mean only reads
  // its own current value, never the history.
  const std::vector<sim::SessionMetrics> sessions = fold_fixture();
  WindowMetrics whole;
  for (const auto& m : sessions) accumulate_session(whole, m);
  for (std::size_t split = 0; split <= sessions.size(); ++split) {
    WindowMetrics prefix;
    for (std::size_t i = 0; i < split; ++i) {
      accumulate_session(prefix, sessions[i]);
    }
    WindowMetrics resumed = prefix;  // the bit-exact checkpoint restore
    for (std::size_t i = split; i < sessions.size(); ++i) {
      accumulate_session(resumed, sessions[i]);
    }
    EXPECT_TRUE(bit_equal(resumed, whole)) << "split=" << split;
  }
}

TEST(AbTest, AccumulateSessionIsOrderSensitive) {
  // The reason a resume must CONTINUE the canonical fold rather than
  // re-fold in any convenient order: the weighted incremental means are
  // not associative, and a permuted fold is allowed to (and here does)
  // land on different low bits. Only canonical order is pinned.
  const std::vector<sim::SessionMetrics> sessions = fold_fixture();
  WindowMetrics forward, reversed;
  for (const auto& m : sessions) accumulate_session(forward, m);
  for (auto it = sessions.rbegin(); it != sessions.rend(); ++it) {
    accumulate_session(reversed, *it);
  }
  // The integer-like tallies are order-independent...
  EXPECT_EQ(forward.sessions, reversed.sessions);
  EXPECT_EQ(bits(forward.rebuffer_count), bits(reversed.rebuffer_count));
  EXPECT_EQ(bits(forward.switch_count), bits(reversed.switch_count));
  // ...but the incremental means are not bit-stable under permutation.
  EXPECT_NE(bits(forward.avg_rate_bps), bits(reversed.avg_rate_bps));
  // They still agree to floating-point accuracy, of course.
  EXPECT_NEAR(forward.avg_rate_bps / reversed.avg_rate_bps, 1.0, 1e-9);
}

TEST(AbTest, MergedIsByteStableOnBitEqualCells) {
  // merged() folds day cells in day order with the same incremental-mean
  // shape; on bit-equal inputs (what a checkpoint restore guarantees) it
  // must reproduce bit-equal output, every time it is called.
  const std::vector<sim::SessionMetrics> sessions = fold_fixture();
  AbTestResult r;
  r.group_names = {"g"};
  r.cells.resize(1);
  r.cells[0].resize(3, std::vector<WindowMetrics>(kWindowsPerDay));
  for (std::size_t d = 0; d < 3; ++d) {
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      if (i % 3 == d % 3) {
        accumulate_session(r.cells[0][d][4], sessions[i]);
      }
    }
  }
  const WindowMetrics m1 = r.merged(0, 4);
  const WindowMetrics m2 = r.merged(0, 4);
  EXPECT_TRUE(bit_equal(m1, m2));

  AbTestResult copy = r;  // bit-exact restore of every cell
  EXPECT_TRUE(bit_equal(copy.merged(0, 4), m1));
}

TEST(Report, MeanNormalizedIsRatioOfTotals) {
  AbTestResult r;
  r.group_names = {"base", "g"};
  r.cells.resize(2);
  for (auto& g : r.cells) {
    g.resize(1, std::vector<WindowMetrics>(kWindowsPerDay));
  }
  // Base: 10 rebuffers in 10 hours in window 0; group: 5 in 10 hours.
  r.cells[0][0][0].play_hours = 10.0;
  r.cells[0][0][0].rebuffer_count = 10.0;
  r.cells[1][0][0].play_hours = 10.0;
  r.cells[1][0][0].rebuffer_count = 5.0;
  const double ratio = mean_normalized(r, rebuffers_per_hour_metric(), "g",
                                       "base", /*peak_only=*/false);
  EXPECT_DOUBLE_EQ(ratio, 0.5);
}

TEST(Report, MeanDeltaWeightsByBaselineHours) {
  AbTestResult r;
  r.group_names = {"base", "g"};
  r.cells.resize(2);
  for (auto& g : r.cells) {
    g.resize(1, std::vector<WindowMetrics>(kWindowsPerDay));
  }
  // Window 0: base 2000 kb/s vs 1000, weight 1 h.
  r.cells[0][0][0] = {1.0, 0, 0, 2e6, 0, 0, 0, 1};
  r.cells[1][0][0] = {1.0, 0, 0, 1e6, 0, 0, 0, 1};
  // Window 6: base 1000 vs 1000, weight 3 h.
  r.cells[0][0][6] = {3.0, 0, 0, 1e6, 0, 0, 0, 1};
  r.cells[1][0][6] = {3.0, 0, 0, 1e6, 0, 0, 0, 1};
  const double delta = mean_delta(r, avg_rate_kbps_metric(), "g", "base",
                                  /*peak_only=*/false);
  // (1000 kb/s * 1 h + 0 * 3 h) / 4 h = 250 kb/s.
  EXPECT_DOUBLE_EQ(delta, 250.0);
}

TEST(Report, PeakOnlyFiltersWindows) {
  AbTestResult r;
  r.group_names = {"base", "g"};
  r.cells.resize(2);
  for (auto& g : r.cells) {
    g.resize(1, std::vector<WindowMetrics>(kWindowsPerDay));
  }
  // Peak window 0 has a 2x ratio; off-peak window 6 has a 10x ratio.
  r.cells[0][0][0].play_hours = 1.0;
  r.cells[0][0][0].rebuffer_count = 1.0;
  r.cells[1][0][0].play_hours = 1.0;
  r.cells[1][0][0].rebuffer_count = 2.0;
  r.cells[0][0][6].play_hours = 1.0;
  r.cells[0][0][6].rebuffer_count = 1.0;
  r.cells[1][0][6].play_hours = 1.0;
  r.cells[1][0][6].rebuffer_count = 10.0;
  const double peak = mean_normalized(r, rebuffers_per_hour_metric(), "g",
                                      "base", /*peak_only=*/true);
  EXPECT_DOUBLE_EQ(peak, 2.0);
}

TEST(Report, MetricAccessorsMatchCells) {
  WindowMetrics m;
  m.play_hours = 2.0;
  m.rebuffer_count = 3.0;
  m.avg_rate_bps = 1.5e6;
  m.startup_rate_bps = 0.5e6;
  m.steady_rate_bps = 2.0e6;
  m.switch_count = 10.0;
  EXPECT_DOUBLE_EQ(rebuffers_per_hour_metric().get(m), 1.5);
  EXPECT_DOUBLE_EQ(avg_rate_kbps_metric().get(m), 1500.0);
  EXPECT_DOUBLE_EQ(startup_rate_kbps_metric().get(m), 500.0);
  EXPECT_DOUBLE_EQ(steady_rate_kbps_metric().get(m), 2000.0);
  EXPECT_DOUBLE_EQ(switches_per_hour_metric().get(m), 5.0);
}

TEST(Report, ShapeCheckReturnsItsArgument) {
  EXPECT_TRUE(shape_check(true, "ok"));
  EXPECT_FALSE(shape_check(false, "not ok"));
}

TEST(Dump, MetricCsvRoundTrips) {
  AbTestResult r;
  r.group_names = {"a", "b"};
  r.cells.resize(2);
  for (auto& g : r.cells) {
    g.resize(2, std::vector<WindowMetrics>(kWindowsPerDay));
  }
  r.cells[0][0][0].play_hours = 1.0;
  r.cells[0][0][0].rebuffer_count = 3.0;
  r.cells[1][1][5].play_hours = 2.0;
  r.cells[1][1][5].rebuffer_count = 4.0;

  const std::string path = testing::TempDir() + "/bba_dump_test.csv";
  ASSERT_TRUE(dump_metric_csv(path, r, rebuffers_per_hour_metric()));
  std::vector<util::CsvRow> rows;
  util::CsvRow header;
  ASSERT_TRUE(util::read_csv(path, rows, /*expect_header=*/true, &header));
  ASSERT_EQ(header.size(), 4u);
  EXPECT_EQ(header[2], "a");
  ASSERT_EQ(rows.size(), kWindowsPerDay);
  EXPECT_EQ(rows[0][0], "00-02");
  EXPECT_EQ(rows[0][1], "1");                        // peak marker
  EXPECT_DOUBLE_EQ(std::stod(rows[0][2]), 3.0);      // 3 rebuffers / 1 h
  EXPECT_DOUBLE_EQ(std::stod(rows[5][3]), 2.0);      // 4 rebuffers / 2 h
  std::remove(path.c_str());
}

TEST(Dump, PerDayCsvHasOneRowPerWindowDay) {
  AbTestResult r;
  r.group_names = {"a"};
  r.cells.resize(1);
  r.cells[0].resize(3, std::vector<WindowMetrics>(kWindowsPerDay));
  const std::string path = testing::TempDir() + "/bba_dump_days.csv";
  ASSERT_TRUE(dump_metric_per_day_csv(path, r, avg_rate_kbps_metric()));
  std::vector<util::CsvRow> rows;
  ASSERT_TRUE(util::read_csv(path, rows, /*expect_header=*/true));
  EXPECT_EQ(rows.size(), kWindowsPerDay * 3);
  std::remove(path.c_str());
}

TEST(Dump, FailsOnUnwritablePath) {
  AbTestResult r;
  r.group_names = {"a"};
  r.cells.resize(1);
  r.cells[0].resize(1, std::vector<WindowMetrics>(kWindowsPerDay));
  EXPECT_FALSE(dump_metric_csv("/nonexistent/dir/x.csv", r,
                               avg_rate_kbps_metric()));
}

}  // namespace
}  // namespace bba::exp
