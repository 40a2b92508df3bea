// StreamCursor, the player's one trace reader, against CapacityTrace's own
// binary search: bit-identical answers over lazy and assigned streams,
// looping or not, and query/rewind tallies against recorded constants.
// Also segment_index_at edge cases, finish_time_s corner cases, and the
// allocation-free trace rebuild path (make_*_into + CapacityTrace::assign).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <vector>

#include "net/capacity_trace.hpp"
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

TEST(StreamCursor, LazyStreamMatchesTraceCursor) {
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

TEST(StreamCursor, AssignedTracesMatchTraceCursor) {
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
