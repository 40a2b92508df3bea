// Tests for bba::runtime: thread-pool coverage under contention, exception
// propagation, the SessionExecutor ordered fold, and the subsystem's core
// promise -- run_ab_test is bit-identical for every thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "abr/baselines.hpp"
#include "exp/abtest.hpp"
#include "exp/population.hpp"
#include "exp/session_key.hpp"
#include "exp/workload.hpp"
#include "media/video.hpp"
#include "runtime/session_executor.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/metrics.hpp"
#include "net/trace_gen.hpp"
#include "sim/player.hpp"
#include "sim/session_sink.hpp"
#include "util/rng.hpp"

namespace bba {
namespace {

TEST(ThreadPool, SizeIsAtLeastOne) {
  runtime::ThreadPool sequential(1);
  EXPECT_EQ(sequential.size(), 1u);
  runtime::ThreadPool four(4);
  EXPECT_EQ(four.size(), 4u);
  runtime::ThreadPool hw(0);
  EXPECT_GE(hw.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  runtime::ThreadPool pool(4);
  constexpr std::size_t kN = 20000;
  // Tiny grain maximizes cursor contention; atomic slots catch double
  // execution from any thread.
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.parallel_for_ordered(
      0, kN, /*grain=*/3, pool.default_window(3),
      [&](std::size_t i, std::size_t) { hits[i].fetch_add(1); }, nullptr);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForCoversSubrangesAndSurvivesReuse) {
  runtime::ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    const std::size_t begin = 17, end = 1017;
    std::vector<std::atomic<int>> hits(end);
    for (auto& h : hits) h.store(0);
    pool.parallel_for_ordered(
        begin, end, /*grain=*/1, pool.default_window(1),
        [&](std::size_t i, std::size_t) { hits[i].fetch_add(1); }, nullptr);
    long long total = 0;
    for (std::size_t i = 0; i < end; ++i) {
      ASSERT_EQ(hits[i].load(), i >= begin ? 1 : 0);
      total += hits[i].load();
    }
    ASSERT_EQ(total, static_cast<long long>(end - begin));
  }
}

TEST(ThreadPool, EmptyAndDefaultGrainRanges) {
  runtime::ThreadPool pool(2);
  int calls = 0;
  const std::size_t empty_grain = pool.default_grain(0);
  pool.parallel_for_ordered(
      5, 5, empty_grain, pool.default_window(empty_grain),
      [&](std::size_t, std::size_t) { ++calls; }, nullptr);
  EXPECT_EQ(calls, 0);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  const std::size_t grain = pool.default_grain(1000);
  pool.parallel_for_ordered(
      0, 1000, grain, pool.default_window(grain),
      [&](std::size_t i, std::size_t) { hits[i].fetch_add(1); }, nullptr);
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable) {
  runtime::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_ordered(
                   0, 1000, 1, pool.default_window(1),
                   [](std::size_t i, std::size_t) {
                     if (i == 137) throw std::runtime_error("boom");
                   },
                   nullptr),
               std::runtime_error);
  // The pool must still work after a failed loop.
  std::atomic<int> count{0};
  pool.parallel_for_ordered(
      0, 100, 1, pool.default_window(1),
      [&](std::size_t, std::size_t) { count.fetch_add(1); }, nullptr);
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SlotsCoverEveryIndexAndStayExclusive) {
  runtime::ThreadPool pool(4);
  constexpr std::size_t kN = 20000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  // One occupancy flag per slot: a violation of the exclusivity contract
  // (two concurrent bodies sharing a slot) trips the inner assertion.
  std::vector<std::atomic<int>> occupied(pool.size());
  for (auto& o : occupied) o.store(0);
  std::atomic<bool> violation{false};
  pool.parallel_for_ordered(
      0, kN, /*grain=*/3, pool.default_window(3),
      [&](std::size_t i, std::size_t slot) {
        if (slot >= pool.size() || occupied[slot].fetch_add(1) != 0) {
          violation.store(true);
        }
        hits[i].fetch_add(1);
        occupied[slot].fetch_sub(1);
      },
      nullptr);
  EXPECT_FALSE(violation.load());
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, InlineSlotPathUsesSlotZero) {
  runtime::ThreadPool sequential(1);
  std::vector<std::size_t> slots;
  const std::size_t grain = sequential.default_grain(10);
  sequential.parallel_for_ordered(
      0, 10, grain, sequential.default_window(grain),
      [&](std::size_t, std::size_t slot) { slots.push_back(slot); }, nullptr);
  ASSERT_EQ(slots.size(), 10u);
  for (const std::size_t s : slots) EXPECT_EQ(s, 0u);
  // Small ranges run inline on a threaded pool too.
  runtime::ThreadPool pool(4);
  std::size_t seen = 99;
  pool.parallel_for_ordered(
      0, 1, 10, pool.default_window(10),
      [&](std::size_t, std::size_t slot) { seen = slot; }, nullptr);
  EXPECT_EQ(seen, 0u);
}

TEST(SessionExecutor, SlottedExecuteMatchesPlainExecute) {
  runtime::SessionExecutor executor(4);
  constexpr std::size_t kN = 3000;
  std::vector<double> plain(kN, 0.0), slotted(kN, 0.0);
  std::vector<std::size_t> fold_order;
  executor.execute(
      kN, [&](std::size_t i) { plain[i] = static_cast<double>(i * i); },
      [&](std::size_t) {});
  executor.execute_slotted(
      kN,
      [&](std::size_t i, std::size_t slot) {
        ASSERT_LT(slot, executor.threads());
        slotted[i] = static_cast<double>(i * i);
      },
      [&](std::size_t i) { fold_order.push_back(i); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(plain[i], slotted[i]);
    ASSERT_EQ(fold_order[i], i);
  }
}

TEST(ChunkTableMemo, ConcurrentFirstAccessIsSafeAndConsistent) {
  // Many threads race to build the same window-sum memos (the harness
  // pattern right after a cold start). Every thread must read values
  // bitwise equal to the direct scan regardless of who built the node.
  const media::VideoLibrary library = media::VideoLibrary::standard(3);
  runtime::ThreadPool pool(8);
  std::atomic<int> mismatches{0};
  const runtime::ThreadPool::SlotBody check = [&](std::size_t i,
                                                  std::size_t) {
    const media::ChunkTable& table = library.at(i % library.size()).chunks();
    const std::size_t count = (i % 2 == 0) ? 120 : 30;
    const std::vector<double>& sums = table.window_sums(0, count);
    const std::size_t k = i % table.num_chunks();
    const double direct = table.sum_size_in_window_bits(0, k, count);
    if (std::memcmp(&sums[k], &direct, sizeof(double)) != 0) {
      mismatches.fetch_add(1);
    }
  };
  pool.parallel_for_ordered(0, 64, 1, pool.default_window(1), check, nullptr);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadPool, DefaultGrainGivesManyClaimsPerThread) {
  runtime::ThreadPool pool(4);
  // ~64 claims per thread: fine enough that the last claim of a loop is a
  // short tail, never below one index.
  EXPECT_EQ(pool.default_grain(24000), 24000u / (4 * 64));
  EXPECT_EQ(pool.default_grain(10), 1u);
  EXPECT_EQ(pool.default_grain(0), 1u);
}

TEST(SessionExecutor, SessionResultsBitIdenticalAtEveryGrain) {
  // Real session work through slot-indexed scratch, folded in index order:
  // the folded bytes must not depend on how the indices were chunked --
  // one index per claim, the default grain, or the whole range at once.
  const media::VideoLibrary library = media::VideoLibrary::standard(4);
  const exp::Population population{exp::PopulationConfig{}};
  const exp::WorkloadConfig workload;
  constexpr std::size_t kSessions = 240;
  auto run = [&](std::size_t grain) {
    runtime::SessionExecutor executor(4);
    struct Scratch {
      net::TraceScratch trace_scratch;
      net::CapacityTrace trace = net::CapacityTrace::constant(1.0);
      sim::StreamingMetricsSink sink;
      abr::RMinAlways abr;
    };
    std::vector<Scratch> scratch(executor.threads());
    std::vector<sim::SessionMetrics> produced(kSessions);
    std::vector<unsigned char> folded;
    executor.execute_slotted(
        kSessions,
        [&](std::size_t i, std::size_t slot) {
          Scratch& s = scratch[slot];
          const exp::SessionKey key{2014, 0, i % exp::kWindowsPerDay, i};
          const exp::UserEnvironment env = population.environment_for(key);
          const exp::SessionSpec spec =
              exp::session_for(library, workload, key);
          population.trace_for_into(env, key, s.trace_scratch, s.trace);
          sim::PlayerConfig cfg;
          cfg.watch_duration_s = spec.watch_duration_s;
          sim::simulate_session(library.at(spec.video_index), s.trace, s.abr,
                                cfg, s.sink);
          produced[i] = s.sink.metrics();
        },
        [&](std::size_t i) {
          const auto* p =
              reinterpret_cast<const unsigned char*>(&produced[i].play_s);
          folded.insert(folded.end(), p, p + sizeof(double));
          const auto* r =
              reinterpret_cast<const unsigned char*>(&produced[i].rebuffer_s);
          folded.insert(folded.end(), r, r + sizeof(double));
          const auto* a =
              reinterpret_cast<const unsigned char*>(&produced[i].avg_rate_bps);
          folded.insert(folded.end(), a, a + sizeof(double));
        },
        grain);
    return folded;
  };
  const std::vector<unsigned char> one = run(1);
  ASSERT_EQ(one.size(), kSessions * 3 * sizeof(double));
  EXPECT_EQ(run(0), one);
  EXPECT_EQ(run(kSessions), one);
}

TEST(SessionExecutor, FoldRunsSequentiallyInIndexOrder) {
  runtime::SessionExecutor executor(4);
  constexpr std::size_t kN = 5000;
  std::vector<double> produced(kN, 0.0);
  std::vector<std::size_t> fold_order;
  fold_order.reserve(kN);
  executor.execute(
      kN, [&](std::size_t i) { produced[i] = static_cast<double>(i) * 0.5; },
      [&](std::size_t i) { fold_order.push_back(i); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(fold_order[i], i);
    ASSERT_EQ(produced[i], static_cast<double>(i) * 0.5);
  }
}

// The window contract: produce(i) starts only after fold(i - W) returned,
// so per-cell results can live in a ring of W slots. A slow fold drives
// the workers to the window edge, where they must wait instead of
// overwriting a slot whose fold has not run.
TEST(SessionExecutor, RingSlotsAreNeverReusedBeforeTheirFold) {
  runtime::SessionExecutor executor(4);
  constexpr std::size_t kN = 3000;
  constexpr std::size_t kGrain = 2;
  const std::size_t w = executor.window(kN, kGrain);
  ASSERT_LT(w, kN);
  std::vector<std::size_t> ring(w, kN);
  std::atomic<std::size_t> folded{0};
  std::atomic<bool> early{false};
  std::size_t mismatches = 0;
  executor.execute(
      kN,
      [&](std::size_t i) {
        if (i >= folded.load() + w) early.store(true);
        ring[i % w] = i;
      },
      [&](std::size_t i) {
        if (ring[i % w] != i) ++mismatches;
        if (i % 50 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        folded.fetch_add(1);
      },
      kGrain);
  EXPECT_FALSE(early.load());
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(folded.load(), kN);
}

// A window below one claim per thread: at most `window` indices are ever
// produced but not drained, so most workers sleep at the edge while the
// drains still cover the range in consecutive, ascending pieces.
TEST(ThreadPool, OrderedLoopWithAWindowBelowOneClaimPerThread) {
  runtime::ThreadPool pool(4);
  constexpr std::size_t kN = 500;
  constexpr std::size_t kGrain = 4;
  for (const std::size_t window : {1, 3, 5}) {
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    std::atomic<std::size_t> drained{0};
    std::atomic<bool> early{false};
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    const runtime::ThreadPool::Drain drain = [&](std::size_t first,
                                                 std::size_t last) {
      ranges.emplace_back(first, last);
      drained.store(last);
    };
    pool.parallel_for_ordered(
        0, kN, kGrain, window,
        [&](std::size_t i, std::size_t) {
          if (i >= drained.load() + window) early.store(true);
          hits[i].fetch_add(1);
        },
        &drain);
    EXPECT_FALSE(early.load()) << "window " << window;
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "window " << window << ", index " << i;
    }
    std::size_t next = 0;
    for (const auto& [first, last] : ranges) {
      ASSERT_EQ(first, next) << "window " << window;
      ASSERT_LT(first, last) << "window " << window;
      next = last;
    }
    EXPECT_EQ(next, kN) << "window " << window;
  }
}

TEST(SessionExecutor, EmptySingleAndSubGrainCountsFoldInOrder) {
  runtime::SessionExecutor executor(4);
  EXPECT_EQ(executor.window(0), 0u);
  EXPECT_EQ(executor.window(1), 1u);
  for (const std::size_t count : {0, 1, 5}) {
    std::vector<int> produced(count, 0);
    std::vector<std::size_t> order;
    executor.execute(
        count, [&](std::size_t i) { ++produced[i]; },
        [&](std::size_t i) {
          EXPECT_EQ(produced[i], 1);
          order.push_back(i);
        },
        /*grain=*/8);
    ASSERT_EQ(order.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(order[i], i);
      EXPECT_EQ(produced[i], 1);
    }
  }
}

// A throw at index i leaves exactly the cells before i folded, at any
// thread count; with several throwing indices the lowest one's exception
// is the one rethrown. The executor keeps working afterwards.
TEST(SessionExecutor, ProduceThrowFoldsEveryEarlierCellThenRethrows) {
  constexpr std::size_t kN = 2000;
  for (const std::size_t threads : {1, 4}) {
    runtime::SessionExecutor executor(threads);
    for (const std::size_t fail : {std::size_t{0}, std::size_t{1},
                                   std::size_t{777}, kN - 1}) {
      std::vector<std::size_t> order;
      std::string message;
      try {
        executor.execute(
            kN,
            [&](std::size_t i) {
              if (i == fail) throw std::runtime_error("first");
              if (i == fail + 600) throw std::runtime_error("later");
            },
            [&](std::size_t i) { order.push_back(i); }, /*grain=*/3);
      } catch (const std::runtime_error& e) {
        message = e.what();
      }
      EXPECT_EQ(message, "first") << threads << " threads, fail " << fail;
      ASSERT_EQ(order.size(), fail) << threads << " threads";
      for (std::size_t j = 0; j < fail; ++j) ASSERT_EQ(order[j], j);
    }
    std::size_t folds = 0;
    executor.execute(
        100, [](std::size_t) {}, [&](std::size_t) { ++folds; });
    EXPECT_EQ(folds, 100u) << threads << " threads";
  }
}

TEST(SessionExecutor, FoldThrowPropagatesAndThePoolStaysUsable) {
  runtime::SessionExecutor executor(4);
  std::vector<std::size_t> order;
  EXPECT_THROW(executor.execute(
                   2000, [](std::size_t) {},
                   [&](std::size_t i) {
                     if (i == 300) throw std::runtime_error("fold");
                     order.push_back(i);
                   },
                   /*grain=*/2),
               std::runtime_error);
  ASSERT_EQ(order.size(), 300u);
  for (std::size_t j = 0; j < order.size(); ++j) ASSERT_EQ(order[j], j);
  std::atomic<int> produced{0};
  std::size_t folds = 0;
  executor.execute(
      500, [&](std::size_t) { produced.fetch_add(1); },
      [&](std::size_t) { ++folds; });
  EXPECT_EQ(produced.load(), 500);
  EXPECT_EQ(folds, 500u);
}

TEST(SessionExecutor, EveryFoldRunsOnTheCallingThread) {
  runtime::SessionExecutor executor(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t elsewhere = 0;
  std::size_t folds = 0;
  executor.execute_slotted(
      5000,
      [](std::size_t, std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(1));
      },
      [&](std::size_t) {
        if (std::this_thread::get_id() != caller) ++elsewhere;
        ++folds;
      },
      /*grain=*/4);
  EXPECT_EQ(folds, 5000u);
  EXPECT_EQ(elsewhere, 0u);
}

// The claim size stops growing with the loop, and so does the window: the
// ring a streaming caller holds is a constant for large populations.
TEST(SessionExecutor, WindowStopsGrowingWithThePopulation) {
  runtime::SessionExecutor executor(4);
  const std::size_t large = std::size_t{1} << 20;
  EXPECT_EQ(executor.window(large), executor.window(large * 64));
  EXPECT_LT(executor.window(large), large / 64);
}

TEST(Rng, SubstreamIsAPureFunctionOfCoordinates) {
  util::Rng a = util::Rng::substream(7, 1, 2, 3, 4);
  util::Rng b = util::Rng::substream(7, 1, 2, 3, 4);
  for (int i = 0; i < 16; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
  // Distinct coordinates and permutations land in distinct streams.
  util::Rng c = util::Rng::substream(7, 2, 1, 3, 4);
  util::Rng d = util::Rng::substream(8, 1, 2, 3, 4);
  util::Rng e = util::Rng::substream(7, 1, 2, 3, 5);
  util::Rng base = util::Rng::substream(7, 1, 2, 3, 4);
  const std::uint64_t first = base.next_u64();
  EXPECT_NE(first, c.next_u64());
  EXPECT_NE(first, d.next_u64());
  EXPECT_NE(first, e.next_u64());
}

TEST(SessionKey, StreamsDependOnlyOnCoordinates) {
  // The environment of (day 1, window 2, session 3) must not depend on any
  // experiment dimension or on other sessions having been drawn.
  const exp::Population population;
  const exp::SessionKey key{99, 1, 2, 3};
  const exp::UserEnvironment e1 = population.environment_for(key);
  // Interleave unrelated derivations; the result must not move.
  (void)population.environment_for({99, 0, 0, 0});
  (void)population.environment_for({99, 1, 2, 4});
  const exp::UserEnvironment e2 = population.environment_for(key);
  EXPECT_EQ(e1.tier, e2.tier);
  EXPECT_EQ(e1.has_outages, e2.has_outages);
  EXPECT_DOUBLE_EQ(e1.trace.median_bps, e2.trace.median_bps);
  EXPECT_DOUBLE_EQ(e1.trace.sigma_log, e2.trace.sigma_log);

  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const exp::SessionSpec s1 = exp::session_for(lib, exp::WorkloadConfig{}, key);
  const exp::SessionSpec s2 = exp::session_for(lib, exp::WorkloadConfig{}, key);
  EXPECT_EQ(s1.video_index, s2.video_index);
  EXPECT_DOUBLE_EQ(s1.watch_duration_s, s2.watch_duration_s);
}

TEST(SessionKey, SingleSessionReplayMatchesHarnessInputs) {
  // Reconstructing a session from its coordinates (what bba_session
  // --repro does) must yield a bit-identical trace and spec every time.
  const exp::Population population;
  const exp::SessionKey key{2013, 2, 11, 57};
  const exp::UserEnvironment env = population.environment_for(key);
  const net::CapacityTrace t1 = population.trace_for(env, key);
  const net::CapacityTrace t2 = population.trace_for(env, key);
  ASSERT_EQ(t1.segments().size(), t2.segments().size());
  for (std::size_t i = 0; i < t1.segments().size(); ++i) {
    ASSERT_EQ(t1.segments()[i].duration_s, t2.segments()[i].duration_s);
    ASSERT_EQ(t1.segments()[i].rate_bps, t2.segments()[i].rate_bps);
  }
}

exp::AbTestConfig runtime_config(std::size_t threads) {
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 5;
  cfg.days = 2;
  cfg.seed = 424242;
  cfg.threads = threads;
  return cfg;
}

void expect_bit_identical(const exp::AbTestResult& a,
                          const exp::AbTestResult& b) {
  ASSERT_EQ(a.num_groups(), b.num_groups());
  ASSERT_EQ(a.num_days(), b.num_days());
  for (std::size_t g = 0; g < a.num_groups(); ++g) {
    for (std::size_t d = 0; d < a.num_days(); ++d) {
      ASSERT_EQ(a.cells[g][d].size(), b.cells[g][d].size());
      for (std::size_t w = 0; w < a.cells[g][d].size(); ++w) {
        const exp::WindowMetrics& x = a.cells[g][d][w];
        const exp::WindowMetrics& y = b.cells[g][d][w];
        // memcmp on each double: bit-for-bit, not just value-equal.
        EXPECT_EQ(std::memcmp(&x.play_hours, &y.play_hours, sizeof(double)),
                  0);
        EXPECT_EQ(
            std::memcmp(&x.avg_rate_bps, &y.avg_rate_bps, sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(&x.startup_rate_bps, &y.startup_rate_bps,
                              sizeof(double)),
                  0);
        EXPECT_EQ(std::memcmp(&x.steady_rate_bps, &y.steady_rate_bps,
                              sizeof(double)),
                  0);
        EXPECT_EQ(
            std::memcmp(&x.rebuffer_s, &y.rebuffer_s, sizeof(double)), 0);
        EXPECT_EQ(x.rebuffer_count, y.rebuffer_count);
        EXPECT_EQ(x.switch_count, y.switch_count);
        EXPECT_EQ(x.sessions, y.sessions);
      }
    }
  }
}

TEST(AbTestParallel, BitIdenticalAcrossThreadCounts) {
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const std::vector<exp::Group> groups = {
      {"control", exp::make_control_factory()},
      {"bba2", exp::make_bba2_factory()},
  };
  const exp::AbTestResult sequential =
      exp::run_ab_test(groups, lib, runtime_config(1));
  const exp::AbTestResult four =
      exp::run_ab_test(groups, lib, runtime_config(4));
  const exp::AbTestResult hardware =
      exp::run_ab_test(groups, lib, runtime_config(0));
  expect_bit_identical(sequential, four);
  expect_bit_identical(sequential, hardware);
}

TEST(AbTestParallel, HarnessCellMatchesDirectSessionReplay) {
  // Replaying sessions straight from their coordinates (no harness, no
  // other sessions drawn) must hit the exact cell totals run_ab_test
  // produces -- the property that makes bba_session --repro exact and the
  // environment independent of sessions_per_window.
  const exp::AbTestConfig cfg = runtime_config(1);
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const std::vector<exp::Group> groups = {
      {"rmin", exp::make_rmin_factory()}};
  const exp::AbTestResult result = exp::run_ab_test(groups, lib, cfg);

  const exp::Population population(cfg.population);
  const std::size_t day = 1, window = 4;
  double play_hours = 0.0, rebuffers = 0.0;
  for (std::size_t s = 0; s < cfg.sessions_per_window; ++s) {
    const exp::SessionKey key{cfg.seed, day, window, s};
    const exp::UserEnvironment env = population.environment_for(key);
    const net::CapacityTrace trace = population.trace_for(env, key);
    const exp::SessionSpec spec = exp::session_for(lib, cfg.workload, key);
    sim::PlayerConfig player = cfg.player;
    player.watch_duration_s = spec.watch_duration_s;
    abr::RMinAlways algorithm;
    const sim::SessionMetrics m = sim::compute_metrics(
        sim::simulate_session(lib.at(spec.video_index), trace, algorithm,
                              player));
    play_hours += m.play_s / 3600.0;
    rebuffers += static_cast<double>(m.rebuffer_count);
  }
  const exp::WindowMetrics& cell = result.cells[0][day][window];
  EXPECT_EQ(cell.sessions,
            static_cast<long long>(cfg.sessions_per_window));
  EXPECT_DOUBLE_EQ(cell.play_hours, play_hours);
  EXPECT_DOUBLE_EQ(cell.rebuffer_count, rebuffers);
}

}  // namespace
}  // namespace bba
