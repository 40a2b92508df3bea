// StreamCursor, the player's one trace reader, against CapacityTrace's own
// binary search: bit-identical answers over lazy and assigned streams,
// looping or not, and query/rewind tallies against recorded constants.
// Lazy streams with outages spliced in against the materialized trace.
// Also segment_index_at edge cases, finish_time_s corner cases, and the
// allocation-free trace rebuild path (make_*_into + CapacityTrace::assign).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <vector>

#include "exp/population.hpp"
#include "exp/session_key.hpp"
#include "net/capacity_trace.hpp"
#include "net/fault_inject.hpp"
#include "net/tcp_model.hpp"
#include "net/trace_gen.hpp"
#include "net/trace_stream.hpp"
#include "util/rng.hpp"

namespace bba::net {
namespace {

TEST(SegmentIndexAt, BoundariesBelongToTheStartingSegment) {
  const CapacityTrace t({{10.0, 100.0}, {20.0, 200.0}, {5.0, 300.0}});
  EXPECT_EQ(t.segment_index_at(0.0), 0u);
  EXPECT_EQ(t.segment_index_at(9.999), 0u);
  // A boundary time belongs to the segment that starts there.
  EXPECT_EQ(t.segment_index_at(10.0), 1u);
  EXPECT_EQ(t.segment_index_at(29.999), 1u);
  EXPECT_EQ(t.segment_index_at(30.0), 2u);
}

TEST(SegmentIndexAt, CycleEndClampsToLastSegment) {
  const CapacityTrace t({{10.0, 100.0}, {20.0, 200.0}});
  EXPECT_EQ(t.segment_index_at(t.cycle_duration_s()), 1u);
}

TEST(SegmentIndexAt, SingleSegmentTrace) {
  const CapacityTrace t({{7.5, 123.0}});
  EXPECT_EQ(t.segment_index_at(0.0), 0u);
  EXPECT_EQ(t.segment_index_at(3.0), 0u);
  EXPECT_EQ(t.segment_index_at(7.5), 0u);
}

TEST(SegmentIndexAt, ZeroRateSegmentsAreOrdinarySegments) {
  const CapacityTrace t({{10.0, 100.0}, {30.0, 0.0}, {10.0, 50.0}});
  EXPECT_EQ(t.segment_index_at(15.0), 1u);
  EXPECT_EQ(t.segment_index_at(10.0), 1u);
  EXPECT_EQ(t.segment_index_at(40.0), 2u);
  EXPECT_DOUBLE_EQ(t.rate_at_bps(15.0), 0.0);
}

TEST(FinishTime, ExactWholeCycleMultiples) {
  const CapacityTrace t({{10.0, 100.0}, {10.0, 300.0}});  // 4000 bits/cycle
  // bits == k * cycle_bits exercises the exact-multiple guard: the skip
  // must leave one cycle for the segment walk instead of overshooting.
  EXPECT_DOUBLE_EQ(t.finish_time_s(0.0, 4000.0), 20.0);
  EXPECT_DOUBLE_EQ(t.finish_time_s(0.0, 8000.0), 40.0);
  EXPECT_DOUBLE_EQ(t.finish_time_s(0.0, 4000.0 * 57), 20.0 * 57);
  // Starting mid-cycle with exactly the rest of the cycle's bits.
  EXPECT_DOUBLE_EQ(t.finish_time_s(10.0, 3000.0), 20.0);
}

TEST(FinishTime, PermanentOutageNeverFinishes) {
  const CapacityTrace dead({{10.0, 0.0}});  // loops, cycle_bits == 0
  EXPECT_TRUE(std::isinf(dead.finish_time_s(0.0, 1.0)));
  EXPECT_TRUE(std::isinf(dead.finish_time_s(5.0, 1.0)));
  // Starting past the first cycle still wraps, still never finishes.
  EXPECT_TRUE(std::isinf(dead.finish_time_s(25.0, 1.0)));
  // Zero bits finish instantly even on a dead link.
  EXPECT_DOUBLE_EQ(dead.finish_time_s(5.0, 0.0), 5.0);
}

TEST(FinishTime, NonLoopingExhaustion) {
  const CapacityTrace t({{10.0, 100.0}, {10.0, 300.0}}, /*loop=*/false);
  EXPECT_DOUBLE_EQ(t.finish_time_s(0.0, 4000.0), 20.0);  // exactly drained
  EXPECT_TRUE(std::isinf(t.finish_time_s(0.0, 4000.0 + 1e-9)));
  EXPECT_TRUE(std::isinf(t.finish_time_s(20.0, 1.0)));  // starts past the end
  EXPECT_TRUE(std::isinf(t.finish_time_s(15.0, 1501.0)));
  EXPECT_DOUBLE_EQ(t.finish_time_s(15.0, 1500.0), 20.0);
}

TEST(FinishTime, ZeroRateHeadSegment) {
  const CapacityTrace t({{30.0, 0.0}, {10.0, 100.0}});
  EXPECT_DOUBLE_EQ(t.finish_time_s(0.0, 500.0), 35.0);
  // A download landing exactly on the outage boundary waits it out.
  EXPECT_DOUBLE_EQ(t.finish_time_s(30.0, 1000.0), 40.0);
}

// Builds a battery of traces covering the structural corner cases.
std::vector<CapacityTrace> test_traces() {
  std::vector<CapacityTrace> traces;
  traces.push_back(CapacityTrace::constant(2e6));
  traces.push_back(CapacityTrace({{10.0, 100.0}, {10.0, 300.0}}));
  traces.push_back(CapacityTrace({{10.0, 100.0}, {30.0, 0.0}, {5.0, 1e6}}));
  traces.push_back(CapacityTrace({{10.0, 100.0}, {10.0, 300.0}},
                                 /*loop=*/false));
  util::Rng rng(99);
  MarkovTraceConfig cfg;
  cfg.duration_s = 900.0;
  traces.push_back(make_markov_trace(cfg, rng));
  OutageConfig outages;
  outages.mean_interval_s = 120.0;
  traces.push_back(with_outages(traces.back(), outages, rng));
  return traces;
}

// --- StreamCursor against CapacityTrace -----------------------------------
//
// Every query stream below checks each answer against the trace's own
// method, then appends the cursor's query/rewind tallies to a list that
// the test compares with recorded constants. The constants were recorded
// by running the identical query streams through the hinted cursor over
// CapacityTrace that served the public player before StreamCursor did
// (net/trace_cursor.cpp, on the commit before its removal). The tallies
// feed the kCursorQueries/kCursorRewinds counters that tool outputs pin,
// so they must not drift.

struct Tally {
  std::uint64_t queries = 0;
  std::uint64_t rewinds = 0;
  bool operator==(const Tally&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Tally& t) {
  return os << "{" << t.queries << ", " << t.rewinds << "}";
}

Tally tally_of(const StreamCursor& cursor) {
  return {cursor.queries(), cursor.rewinds()};
}

// A session-like query stream: monotone (each query starts where the last
// finished, sometimes after an idle gap, as a session's downloads do) or
// rewinding (uniform over several cycles). Both mix rate_at_bps with
// finish_time_s calls large enough to wrap the cycle, and the occasional
// zero-bit call.
Tally session_stream(StreamCursor& stream, const CapacityTrace& trace,
                     std::uint64_t seed, bool rewinding) {
  util::Rng rng(seed);
  const double cycle = trace.cycle_duration_s();
  double now = 0.0;
  for (int i = 0; i < 600; ++i) {
    if (rewinding) {
      now = rng.uniform(0.0, cycle * 3.0);
    } else if (i % 3 == 0) {
      now += rng.uniform(0.0, cycle * 0.05);
    }
    if (i % 4 == 0) {
      EXPECT_EQ(stream.rate_at_bps(now), trace.rate_at_bps(now)) << i;
      continue;
    }
    const double wrap_bits = rng.uniform(1.0, 3.0) * trace.cycle_bits();
    const double bits = i % 17 == 0   ? 0.0
                        : i % 13 == 0 ? wrap_bits
                                      : rng.uniform(0.0, 2e7);
    const double want = trace.finish_time_s(now, bits);
    EXPECT_EQ(stream.finish_time_s(now, bits), want) << i;
    if (!rewinding && std::isfinite(want)) now = want;
  }
  return tally_of(stream);
}

// Monotone query times with gaps of up to a fifth of a cycle, alternating
// rates and downloads of up to 1e7 bits.
Tally gapped_stream(StreamCursor& stream, const CapacityTrace& trace) {
  util::Rng rng(7);
  double now = 0.0;
  for (int i = 0; i < 400; ++i) {
    now += rng.uniform(0.0, trace.cycle_duration_s() * 0.2);
    if (i % 2 == 0) {
      EXPECT_EQ(stream.rate_at_bps(now), trace.rate_at_bps(now)) << i;
    } else {
      const double bits = rng.uniform(0.0, 1e7);
      EXPECT_EQ(stream.finish_time_s(now, bits),
                trace.finish_time_s(now, bits))
          << i;
    }
  }
  return tally_of(stream);
}

// Uniform over three cycles: successive queries rewind about half the
// time, exercising the binary-search fallback.
Tally random_stream(StreamCursor& stream, const CapacityTrace& trace) {
  util::Rng rng(21);
  for (int i = 0; i < 400; ++i) {
    const double now = rng.uniform(0.0, trace.cycle_duration_s() * 3.0);
    const double bits = rng.uniform(0.0, 1e7);
    EXPECT_EQ(stream.rate_at_bps(now), trace.rate_at_bps(now)) << i;
    EXPECT_EQ(stream.finish_time_s(now, bits), trace.finish_time_s(now, bits))
        << i;
  }
  return tally_of(stream);
}

// Cycle multiples, mid-cycle and every segment boundary, each with a
// small download and one of exactly a cycle's bits.
Tally corner_stream(StreamCursor& stream, const CapacityTrace& trace) {
  const double cycle = trace.cycle_duration_s();
  std::vector<double> times = {0.0, cycle, cycle * 2.0, cycle * 0.5};
  times.insert(times.end(), trace.time_prefix().begin(),
               trace.time_prefix().end());
  for (const double at : times) {
    EXPECT_EQ(stream.rate_at_bps(at), trace.rate_at_bps(at)) << at;
    EXPECT_EQ(stream.finish_time_s(at, 12345.0),
              trace.finish_time_s(at, 12345.0))
        << at;
    EXPECT_EQ(stream.finish_time_s(at, trace.cycle_bits()),
              trace.finish_time_s(at, trace.cycle_bits()))
        << at;
  }
  return tally_of(stream);
}

// The TCP slow-start model's probes and integration, through the cursor
// overload and the trace overload.
Tally tcp_stream(StreamCursor& stream, const CapacityTrace& trace) {
  util::Rng rng(31);
  const TcpDownloadModel model{TcpModelConfig{}};
  double now = 0.0;
  double prev_finish = -1.0;
  for (int i = 0; i < 200; ++i) {
    const double bits = rng.uniform(1e5, 2e7);
    const double idle = prev_finish < 0.0
                            ? std::numeric_limits<double>::infinity()
                            : now - prev_finish;
    const double via_trace = model.finish_time_s(trace, now, bits, idle);
    EXPECT_EQ(model.finish_time_s(stream, now, bits, idle), via_trace) << i;
    if (!std::isfinite(via_trace)) break;
    prev_finish = via_trace;
    now = via_trace + (i % 3 == 0 ? rng.uniform(0.0, 5.0) : 0.0);
  }
  return tally_of(stream);
}

MarkovTraceConfig stream_test_config() {
  MarkovTraceConfig cfg;
  cfg.duration_s = 900.0;
  return cfg;
}

TEST(StreamCursor, LazyStreamMatchesCapacityTrace) {
  const std::vector<Tally> want = {
      {996, 38}, {996, 36}, {996, 42}, {996, 38}, {996, 42}, {996, 41},
      {996, 311}, {996, 309}, {996, 317}, {996, 309}, {996, 321}, {996, 308}};
  const MarkovTraceConfig cfg = stream_test_config();
  std::vector<Tally> got;
  for (const bool rewinding : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      util::Rng gen(seed);
      const CapacityTrace trace = make_markov_trace(cfg, gen);
      TraceStream lazy;
      lazy.reset(cfg, util::Rng(seed));
      StreamCursor stream(lazy);
      got.push_back(session_stream(stream, trace, seed + 100, rewinding));
    }
  }
  EXPECT_EQ(got, want);
}

TEST(StreamCursor, AssignedTracesMatchCapacityTrace) {
  // One line per trace: monotone and rewinding session streams, then the
  // gapped, random and corner streams. Last, the TCP stream over a looping
  // trace and over the same segments ending.
  const std::vector<Tally> want = {
      {996, 0}, {996, 0}, {600, 0}, {1200, 0}, {30, 0},
      {996, 315}, {996, 398}, {600, 190}, {1200, 346}, {35, 6},
      {996, 375}, {996, 679}, {600, 287}, {1200, 505}, {40, 14},
      {132, 0}, {194, 43}, {9, 0}, {270, 41}, {14, 1},
      {996, 36}, {996, 313}, {600, 41}, {1200, 188}, {315, 60},
      {996, 37}, {996, 325}, {600, 41}, {1200, 188}, {365, 79},
      {996, 39}, {996, 309}, {600, 46}, {1200, 191}, {430, 101},
      {996, 41}, {996, 317}, {600, 46}, {1200, 192}, {425, 90},
      {996, 39}, {996, 315}, {600, 42}, {1200, 195}, {435, 101},
      {996, 43}, {996, 303}, {600, 43}, {1200, 191}, {355, 73},
      {996, 422}, {996, 451}, {600, 218}, {1200, 399}, {35, 12},
      {996, 11}, {996, 244}, {600, 121}, {1200, 186}, {35, 4},
      {126, 0}, {188, 48}, {9, 0}, {270, 41}, {14, 1},
      {540, 0}, {540, 0}, {400, 0}, {800, 0}, {12, 0},
      {565, 1}, {419, 0}};
  // Outage traces (the harness's materialized keys), the corner-case
  // battery with its non-looping trace, and hand-built traces with
  // zero-rate segments, including a zero-rate head, a zero-rate tail and
  // a link that is always down.
  std::vector<CapacityTrace> traces = test_traces();
  const MarkovTraceConfig cfg = stream_test_config();
  OutageConfig outages;
  outages.mean_interval_s = 120.0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng gen(seed);
    const CapacityTrace base = make_markov_trace(cfg, gen);
    traces.push_back(with_outages(base, outages, gen));
  }
  traces.push_back(CapacityTrace({{30.0, 0.0}, {10.0, 100.0}}));
  traces.push_back(CapacityTrace({{10.0, 100.0}, {10.0, 0.0}}));
  traces.push_back(CapacityTrace({{10.0, 100.0}, {10.0, 0.0}},
                                 /*loop=*/false));
  traces.push_back(CapacityTrace({{10.0, 0.0}}));
  TraceStream assigned;
  std::vector<Tally> got;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "trace " << i);
    const CapacityTrace& trace = traces[i];
    assigned.assign(trace);
    for (const bool rewinding : {false, true}) {
      StreamCursor stream(assigned);
      EXPECT_EQ(stream.cycle_duration_s(), trace.cycle_duration_s());
      EXPECT_EQ(stream.loops(), trace.loops());
      got.push_back(session_stream(stream, trace, i + 200, rewinding));
    }
    StreamCursor gapped(assigned);
    got.push_back(gapped_stream(gapped, trace));
    StreamCursor random(assigned);
    got.push_back(random_stream(random, trace));
    StreamCursor corners(assigned);
    got.push_back(corner_stream(corners, trace));
  }
  util::Rng gen(31);
  MarkovTraceConfig tcp_cfg;
  tcp_cfg.duration_s = 600.0;
  const CapacityTrace tcp_trace = make_markov_trace(tcp_cfg, gen);
  for (const bool loop : {true, false}) {
    const CapacityTrace trace(tcp_trace.segments(), loop);
    assigned.assign(trace);
    StreamCursor tcp(assigned);
    got.push_back(tcp_stream(tcp, trace));
  }
  EXPECT_EQ(got, want);
}

TEST(StreamCursor, NonLoopingEndMatchesTrace) {
  // Each step: the answer equals the trace's, and the tallies grow by the
  // rule on StreamCursor (and as recorded).
  TraceStream assigned;
  auto expect_step = [](StreamCursor& c, double got, double want,
                        Tally before, std::uint64_t queries) {
    EXPECT_EQ(got, want);
    EXPECT_EQ(c.queries(), before.queries + queries);
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();

  const CapacityTrace once({{10.0, 100.0}, {10.0, 300.0}}, /*loop=*/false);
  assigned.assign(once);
  StreamCursor c(assigned);
  ASSERT_FALSE(c.loops());
  // A download that the trace carries exactly to its end.
  expect_step(c, c.finish_time_s(0.0, 4000.0), 20.0, Tally{}, 2);
  // Starts exactly at and after the end: no lookup at all.
  Tally t = tally_of(c);
  expect_step(c, c.finish_time_s(20.0, 1.0), kInf, t, 0);
  expect_step(c, c.finish_time_s(25.0, 1.0), kInf, t, 0);
  expect_step(c, c.rate_at_bps(20.0), 0.0, t, 0);
  expect_step(c, c.rate_at_bps(25.0), 0.0, t, 0);
  // Exhausted: the rest of the trace cannot carry the download.
  expect_step(c, c.finish_time_s(15.0, 1501.0), kInf, t, 1);
  t = tally_of(c);
  expect_step(c, c.finish_time_s(0.0, 4000.0 + 1e-9), kInf, t, 1);
  t = tally_of(c);
  expect_step(c, c.finish_time_s(15.0, 1500.0), 20.0, t, 2);
  EXPECT_EQ(tally_of(c), (Tally{6, 1}));

  // FP residue: the bits left after 0.12 s are exactly what the prefix
  // table says the trace still carries, but the walk's per-segment sum
  // falls short by an ulp, so the trace runs out mid-walk.
  const CapacityTrace residue({{7.5, 46.4}, {3.1, 32.9}}, /*loop=*/false);
  const double bits = residue.cycle_bits() - residue.bits_between(0.0, 0.12);
  ASSERT_TRUE(std::isinf(residue.finish_time_s(0.12, bits)));
  assigned.assign(residue);
  StreamCursor r(assigned);
  expect_step(r, r.finish_time_s(0.12, bits), kInf, Tally{}, 2);
  EXPECT_EQ(tally_of(r), (Tally{2, 0}));
  // Looping, the same walk wraps into the next cycle and finishes.
  const CapacityTrace residue_loop(residue.segments(), /*loop=*/true);
  assigned.assign(residue_loop);
  StreamCursor rl(assigned);
  const double wrapped = residue_loop.finish_time_s(0.12, bits);
  EXPECT_TRUE(std::isfinite(wrapped));
  expect_step(rl, rl.finish_time_s(0.12, bits), wrapped, Tally{}, 2);

  // A zero-rate tail: downloads that reach into it never finish.
  const CapacityTrace tail({{10.0, 100.0}, {10.0, 0.0}}, /*loop=*/false);
  assigned.assign(tail);
  StreamCursor z(assigned);
  expect_step(z, z.finish_time_s(0.0, 1000.0), 10.0, Tally{}, 2);
  t = tally_of(z);
  expect_step(z, z.finish_time_s(5.0, 600.0), kInf, t, 1);
  t = tally_of(z);
  expect_step(z, z.finish_time_s(12.0, 1.0), kInf, t, 1);
  t = tally_of(z);
  expect_step(z, z.rate_at_bps(15.0), 0.0, t, 1);
  EXPECT_EQ(tally_of(z), (Tally{5, 0}));
}

TEST(StreamCursor, OneStreamReusedLazyAssignedLazy) {
  const std::vector<Tally> want = {
      {996, 40}, {996, 309}, {126, 0},
      {996, 39}, {996, 322}, {136, 0},
      {996, 41}, {996, 313}, {126, 0},
      {996, 302}};
  // The harness's per-slot stream serves lazy and materialized keys in any
  // order, and the public player's per-thread stream any trace; nothing
  // may leak from one key into the next.
  const MarkovTraceConfig cfg = stream_test_config();
  OutageConfig outages;
  outages.mean_interval_s = 90.0;
  TraceStream reused;
  std::vector<Tally> got;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng gen(seed);
    const CapacityTrace plain = make_markov_trace(cfg, gen);
    reused.reset(cfg, util::Rng(seed));
    StreamCursor lazy(reused);
    got.push_back(session_stream(lazy, plain, seed, false));

    const CapacityTrace outage = with_outages(plain, outages, gen);
    reused.assign(outage);
    StreamCursor assigned(reused);
    got.push_back(session_stream(assigned, outage, seed, true));

    const CapacityTrace once(outage.segments(), /*loop=*/false);
    reused.assign(once);
    StreamCursor ends(reused);
    got.push_back(session_stream(ends, once, seed, false));
  }
  util::Rng gen(9);
  const CapacityTrace last = make_markov_trace(cfg, gen);
  reused.reset(cfg, util::Rng(9));
  StreamCursor lazy(reused);
  EXPECT_TRUE(lazy.loops());
  got.push_back(session_stream(lazy, last, 9, true));
  EXPECT_EQ(got, want);
}

TEST(TraceStreamDeathTest, ResetRejectsADegenerateConfig) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  TraceStream stream;
  MarkovTraceConfig cfg;
  cfg.duration_s = 0.0;
  EXPECT_DEATH(stream.reset(cfg, util::Rng(1)), "duration");
  cfg = MarkovTraceConfig{};
  cfg.median_bps = 0.0;
  EXPECT_DEATH(stream.reset(cfg, util::Rng(1)), "median");
  cfg = MarkovTraceConfig{};
  cfg.mean_dwell_s = 0.0;
  EXPECT_DEATH(stream.reset(cfg, util::Rng(1)), "dwell");
}

TEST(TraceStreamDeathTest, ResetRejectsABadOutageConfig) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  TraceStream stream;
  const MarkovTraceConfig cfg;
  OutageConfig bad;
  bad.mean_interval_s = 0.0;
  EXPECT_DEATH(stream.reset(cfg, util::Rng(1), &bad), "interval");
  bad = OutageConfig{};
  bad.min_outage_s = 0.0;
  EXPECT_DEATH(stream.reset(cfg, util::Rng(1), &bad), "duration range");
  bad = OutageConfig{};
  bad.min_outage_s = -5.0;
  EXPECT_DEATH(stream.reset(cfg, util::Rng(1), &bad), "duration range");
  bad = OutageConfig{};
  bad.max_outage_s = bad.min_outage_s / 2.0;
  EXPECT_DEATH(stream.reset(cfg, util::Rng(1), &bad), "duration range");
}

// --- Lazy outage streams against the materialized trace --------------------

// A harness-like session: back-to-back downloads from t = 0 with an idle
// gap now and then, a rate probe per download and an occasional look back
// (a rewind). On a 7200 s trace it reads a few hundred segments.
void short_session(StreamCursor& c, const CapacityTrace& trace,
                   std::uint64_t seed) {
  util::Rng rng(seed);
  double now = 0.0;
  for (int i = 0; i < 200; ++i) {
    if (i % 5 == 0) now += rng.uniform(0.0, 8.0);
    EXPECT_EQ(c.rate_at_bps(now), trace.rate_at_bps(now)) << i;
    if (i % 23 == 0) {
      const double back = rng.uniform(0.0, now);
      EXPECT_EQ(c.rate_at_bps(back), trace.rate_at_bps(back)) << i;
    }
    const double bits = rng.uniform(1e5, 2e7);
    const double want = trace.finish_time_s(now, bits);
    EXPECT_EQ(c.finish_time_s(now, bits), want) << i;
    if (!std::isfinite(want)) break;
    now = want;
  }
}

// The finished stream holds exactly the trace's prefix tables and rates.
void expect_same_tables(TraceStream& stream, const CapacityTrace& trace) {
  stream.ensure_done();
  ASSERT_EQ(stream.num_segments(), trace.segments().size());
  for (std::size_t i = 0; i < stream.num_segments(); ++i) {
    ASSERT_EQ(stream.rate[i], trace.segments()[i].rate_bps) << i;
    ASSERT_EQ(stream.tp[i + 1], trace.time_prefix()[i + 1]) << i;
    ASSERT_EQ(stream.bp[i + 1], trace.bits_prefix_table()[i + 1]) << i;
  }
  EXPECT_EQ(stream.cycle_s, trace.cycle_duration_s());
  EXPECT_EQ(stream.cycle_bits, trace.cycle_bits());
  EXPECT_TRUE(stream.loops);
}

TEST(TraceStream, LazyOutageKeysMatchMaterializedTraces) {
  // Every key of an all-outage population: the lazily spliced stream
  // answers and tallies exactly as the materialized trace assigned into a
  // stream, first over a short session, then over random queries across
  // three cycles, and finishes with the trace's own tables.
  exp::PopulationConfig pc;
  pc.outage_session_fraction = 1.0;
  const exp::Population population(pc);
  TraceStream lazy, assigned;
  TraceScratch scratch;
  CapacityTrace trace = CapacityTrace::constant(1.0);
  std::size_t read = 0, total = 0;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const exp::SessionKey key{2014, i / 600, i % 12, (i / 12) % 50};
    SCOPED_TRACE(testing::Message() << "key " << i);
    const exp::UserEnvironment env = population.environment_for(key);
    ASSERT_TRUE(env.has_outages);
    population.trace_for_into(env, key, scratch, trace);
    assigned.assign(trace);
    population.stream_into(env, key, lazy);
    ASSERT_EQ(lazy.num_segments(), 0u);
    {
      StreamCursor a(assigned), l(lazy);
      short_session(a, trace, i);
      short_session(l, trace, i);
      EXPECT_EQ(l.queries(), a.queries());
      EXPECT_EQ(l.rewinds(), a.rewinds());
    }
    read += lazy.num_segments();
    total += trace.segments().size();
    {
      StreamCursor a(assigned), l(lazy);
      EXPECT_EQ(session_stream(l, trace, i, true),
                session_stream(a, trace, i, true));
    }
    expect_same_tables(lazy, trace);
  }
  // The short sessions left most of every trace ungenerated.
  EXPECT_LT(read, total / 2);
}

// Dwells of exactly 0.5 s (the floor, under a vanishing mean) and frequent
// outages of 1 us: an outage that starts within kMinSegmentS of where the
// previous one ended, or of where a base segment ends, carries a sliver.
MarkovTraceConfig dense_config() {
  MarkovTraceConfig cfg;
  cfg.mean_dwell_s = 1e-12;
  cfg.duration_s = 0.5;
  return cfg;
}

OutageConfig dense_outages() {
  OutageConfig outages;
  outages.mean_interval_s = 1e-5;
  outages.min_outage_s = 1e-6;
  outages.max_outage_s = 1e-6;
  return outages;
}

// The kOutage pass's splice over (cfg, seed), counting what it did.
struct SpliceShape {
  std::size_t base = 0, outages = 0, segments = 0;
  bool flushed = false;  ///< the final flush lengthened the last segment

  void push(double, double) { ++segments; }
  bool empty() const { return segments == 0; }
  void extend_last(double) { flushed = true; }
};

SpliceShape splice_shape(const MarkovTraceConfig& cfg,
                         const OutageConfig& outages, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<CapacityTrace::Segment> base;
  make_markov_trace_into(cfg, rng, base);
  SpliceShape shape;
  shape.base = base.size();
  SegmentEmitter emit;
  OutageSplice splice(outages.mean_interval_s, outages.min_outage_s,
                      outages.max_outage_s, rng);
  for (const CapacityTrace::Segment& seg : base) {
    splice.splice(seg.duration_s, seg.rate_bps, rng, emit, shape,
                  [&](double, double) { ++shape.outages; });
  }
  emit.flush(shape, base.back().rate_bps);
  return shape;
}

// The lazy stream of (cfg, outages, seed) against make_markov_trace +
// with_outages: a monotone and a rewinding session stream, then the tables.
void expect_lazy_matches(const MarkovTraceConfig& cfg,
                         const OutageConfig& outages, std::uint64_t seed) {
  util::Rng gen(seed);
  const CapacityTrace base = make_markov_trace(cfg, gen);
  const CapacityTrace trace = with_outages(base, outages, gen);
  TraceStream lazy, assigned;
  assigned.assign(trace);
  for (const bool rewinding : {false, true}) {
    lazy.reset(cfg, util::Rng(seed), &outages);
    StreamCursor a(assigned), l(lazy);
    EXPECT_EQ(session_stream(l, trace, seed, rewinding),
              session_stream(a, trace, seed, rewinding));
  }
  lazy.reset(cfg, util::Rng(seed), &outages);
  expect_same_tables(lazy, trace);
}

TEST(TraceStream, OutageCarryMatchesTrace) {
  // Seed 1 carries slivers mid-trace: fewer segments than two per outage
  // on top of the base segments. Its last emitted segment is not a sliver.
  const SpliceShape shape = splice_shape(dense_config(), dense_outages(), 1);
  ASSERT_GT(shape.outages, 40000u);
  ASSERT_LT(shape.segments, shape.base + 2 * shape.outages);
  ASSERT_FALSE(shape.flushed);
  expect_lazy_matches(dense_config(), dense_outages(), 1);
}

TEST(TraceStream, OutageCarryAtTheEndIsFlushed) {
  // Seed 21505 (found by search) ends an outage within kMinSegmentS of
  // the trace's end: the flush lengthens the last segment, which the lazy
  // stream holds back until then.
  const SpliceShape shape =
      splice_shape(dense_config(), dense_outages(), 21505);
  ASSERT_TRUE(shape.flushed);
  expect_lazy_matches(dense_config(), dense_outages(), 21505);
}

TEST(TraceStream, ResetDropsWhatTheLastKeyLeftPending) {
  // Seed 276 (found by search) splices its first base segment into an
  // emitted segment held back and a sliver carried. The harness may move
  // on to its next key right there; neither may leak into that key.
  MarkovTraceConfig cfg = dense_config();
  cfg.duration_s = 1.0;
  const OutageConfig outages = dense_outages();
  {
    util::Rng rng(276);
    std::vector<CapacityTrace::Segment> base;
    make_markov_trace_into(cfg, rng, base);
    ASSERT_EQ(base.size(), 2u);
    SpliceShape first;
    SegmentEmitter emit;
    OutageSplice splice(outages.mean_interval_s, outages.min_outage_s,
                        outages.max_outage_s, rng);
    splice.splice(base[0].duration_s, base[0].rate_bps, rng, emit, first,
                  [](double, double) {});
    ASSERT_GT(first.segments, 0u);
    emit.flush(first, 0.0);
    ASSERT_TRUE(first.flushed);
  }
  TraceStream reused;
  reused.reset(cfg, util::Rng(276), &outages);
  reused.step_one();
  ASSERT_FALSE(reused.done);

  OutageConfig next_outages;
  next_outages.mean_interval_s = 90.0;
  const MarkovTraceConfig next_cfg = stream_test_config();
  util::Rng gen(5);
  const CapacityTrace base = make_markov_trace(next_cfg, gen);
  const CapacityTrace trace = with_outages(base, next_outages, gen);
  reused.reset(next_cfg, util::Rng(5), &next_outages);
  expect_same_tables(reused, trace);
}

TEST(TraceStream, OutagesShorterThanASliverAreCarried) {
  // Every outage is itself a sliver: carried into the next segment, none
  // is emitted, and the trace keeps no zero-rate segment.
  OutageConfig outages;
  outages.mean_interval_s = 20.0;
  outages.min_outage_s = kMinSegmentS;
  outages.max_outage_s = kMinSegmentS;
  const MarkovTraceConfig cfg = stream_test_config();
  const SpliceShape shape = splice_shape(cfg, outages, 3);
  ASSERT_GT(shape.outages, 10u);
  ASSERT_EQ(shape.segments, shape.base + shape.outages);
  expect_lazy_matches(cfg, outages, 3);
}

TEST(TraceStream, OutageGapLongerThanTheTrace) {
  // The first gap outlasts the trace: no outage, and the stream equals the
  // plain Markov trace, whose rng it never touches past the walk.
  OutageConfig outages;
  outages.mean_interval_s = 1e12;
  const MarkovTraceConfig cfg = stream_test_config();
  const SpliceShape shape = splice_shape(cfg, outages, 4);
  ASSERT_EQ(shape.outages, 0u);
  ASSERT_EQ(shape.segments, shape.base);
  expect_lazy_matches(cfg, outages, 4);
  util::Rng gen(4);
  const CapacityTrace plain = make_markov_trace(cfg, gen);
  TraceStream lazy;
  lazy.reset(cfg, util::Rng(4), &outages);
  expect_same_tables(lazy, plain);
}

TEST(TraceStream, DownloadsThatWrapAFreshOutageStream) {
  // Each download is the first query of a fresh lazy stream: the walk
  // exhausts the lazy prefix, the stream finishes, and the download wraps
  // the cycle (once, or several times) -- as on the assigned trace.
  OutageConfig outages;
  outages.mean_interval_s = 90.0;
  const MarkovTraceConfig cfg = stream_test_config();
  util::Rng gen(5);
  const CapacityTrace base = make_markov_trace(cfg, gen);
  const CapacityTrace trace = with_outages(base, outages, gen);
  const double cycle = trace.cycle_duration_s();
  const double cycle_bits = trace.cycle_bits();
  TraceStream lazy, assigned;
  assigned.assign(trace);
  const double starts[] = {0.0, cycle * 0.3, cycle * 0.99, cycle * 1.5};
  const double sizes[] = {cycle_bits * 0.8, cycle_bits, cycle_bits * 2.5};
  for (const double start : starts) {
    for (const double bits : sizes) {
      SCOPED_TRACE(testing::Message() << start << " " << bits);
      lazy.reset(cfg, util::Rng(5), &outages);
      StreamCursor l(lazy), a(assigned);
      const double want = trace.finish_time_s(start, bits);
      EXPECT_EQ(l.finish_time_s(start, bits), want);
      EXPECT_EQ(a.finish_time_s(start, bits), want);
      EXPECT_EQ(tally_of(l), tally_of(a));
      EXPECT_EQ(l.rate_at_bps(want), trace.rate_at_bps(want));
    }
  }
}

void expect_same_segments(const CapacityTrace& a, const CapacityTrace& b) {
  ASSERT_EQ(a.segments().size(), b.segments().size());
  for (std::size_t i = 0; i < a.segments().size(); ++i) {
    EXPECT_EQ(a.segments()[i].duration_s, b.segments()[i].duration_s);
    EXPECT_EQ(a.segments()[i].rate_bps, b.segments()[i].rate_bps);
  }
  EXPECT_EQ(a.loops(), b.loops());
  EXPECT_EQ(a.cycle_duration_s(), b.cycle_duration_s());
  EXPECT_EQ(a.cycle_bits(), b.cycle_bits());
}

TEST(TraceRebuild, MarkovIntoMatchesValueVariant) {
  MarkovTraceConfig cfg;
  cfg.duration_s = 600.0;
  util::Rng rng_a(5);
  util::Rng rng_b(5);
  const CapacityTrace fresh = make_markov_trace(cfg, rng_a);
  std::vector<CapacityTrace::Segment> buf;
  make_markov_trace_into(cfg, rng_b, buf);
  const CapacityTrace rebuilt(buf, /*loop=*/true);
  expect_same_segments(fresh, rebuilt);
  // Identical rng consumption: both streams are in the same state.
  EXPECT_EQ(rng_a.uniform(0.0, 1.0), rng_b.uniform(0.0, 1.0));
}

TEST(TraceRebuild, OutagesIntoMatchesValueVariant) {
  MarkovTraceConfig cfg;
  cfg.duration_s = 600.0;
  OutageConfig outages;
  outages.mean_interval_s = 90.0;
  util::Rng rng_a(6);
  util::Rng rng_b(6);
  const CapacityTrace base_a = make_markov_trace(cfg, rng_a);
  const CapacityTrace fresh = with_outages(base_a, outages, rng_a);

  TraceScratch scratch;
  make_markov_trace_into(cfg, rng_b, scratch.segments);
  insert_outages(scratch.segments, outages, rng_b, scratch.outage_segments);
  const CapacityTrace rebuilt(scratch.outage_segments, /*loop=*/true);
  expect_same_segments(fresh, rebuilt);
  EXPECT_EQ(rng_a.uniform(0.0, 1.0), rng_b.uniform(0.0, 1.0));
}

TEST(TraceRebuild, AssignReusesOneTraceAcrossSessions) {
  // The harness pattern: one CapacityTrace instance rebuilt per session
  // through the same scratch, compared against fresh construction.
  MarkovTraceConfig cfg;
  cfg.duration_s = 300.0;
  CapacityTrace reused = CapacityTrace::constant(1.0);
  TraceScratch scratch;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    util::Rng rng_a(seed);
    util::Rng rng_b(seed);
    const CapacityTrace fresh = make_markov_trace(cfg, rng_a);
    make_markov_trace_into(cfg, rng_b, scratch.segments);
    reused.assign(scratch.segments, /*loop=*/true);
    expect_same_segments(fresh, reused);
    // Behave identically too, not just structurally.
    TraceStream stream;
    stream.assign(reused);
    StreamCursor cursor(stream);
    EXPECT_EQ(cursor.finish_time_s(3.0, 1e6), fresh.finish_time_s(3.0, 1e6));
  }
}

}  // namespace
}  // namespace bba::net
