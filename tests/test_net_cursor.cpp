// TraceCursor vs CapacityTrace bit-for-bit equivalence, StreamCursor vs
// TraceCursor equivalence (answers and query/rewind tallies, over lazy and
// assigned streams), segment_index_at edge cases, finish_time_s corner
// cases, and the allocation-free trace rebuild path (make_*_into +
// CapacityTrace::assign).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "net/capacity_trace.hpp"
#include "net/tcp_model.hpp"
#include "net/trace_cursor.hpp"
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

TEST(TraceCursor, MonotoneQueryStreamIsBitIdentical) {
  for (const CapacityTrace& t : test_traces()) {
    TraceCursor cursor(t);
    util::Rng rng(7);
    double now = 0.0;
    for (int i = 0; i < 400; ++i) {
      now += rng.uniform(0.0, t.cycle_duration_s() * 0.2);
      switch (i % 4) {
        case 0:
          EXPECT_EQ(cursor.rate_at_bps(now), t.rate_at_bps(now));
          break;
        case 1: {
          const double bits = rng.uniform(0.0, 1e7);
          EXPECT_EQ(cursor.finish_time_s(now, bits),
                    t.finish_time_s(now, bits));
          break;
        }
        case 2: {
          const double t1 = now + rng.uniform(0.0, 30.0);
          EXPECT_EQ(cursor.bits_between(now, t1), t.bits_between(now, t1));
          break;
        }
        default: {
          const double t1 = now + rng.uniform(0.0, 30.0);
          EXPECT_EQ(cursor.average_bps(now, t1), t.average_bps(now, t1));
          break;
        }
      }
    }
  }
}

TEST(TraceCursor, RandomRewindingStreamIsBitIdentical) {
  for (const CapacityTrace& t : test_traces()) {
    TraceCursor cursor(t);
    util::Rng rng(21);
    for (int i = 0; i < 400; ++i) {
      // Uniform over several cycles: successive queries rewind about half
      // the time, exercising the binary-search fallback.
      const double now = rng.uniform(0.0, t.cycle_duration_s() * 3.0);
      const double bits = rng.uniform(0.0, 1e7);
      EXPECT_EQ(cursor.rate_at_bps(now), t.rate_at_bps(now));
      EXPECT_EQ(cursor.finish_time_s(now, bits), t.finish_time_s(now, bits));
    }
  }
}

TEST(TraceCursor, CornerTimesAreBitIdentical) {
  for (const CapacityTrace& t : test_traces()) {
    TraceCursor cursor(t);
    const double cycle = t.cycle_duration_s();
    std::vector<double> times = {0.0, cycle, cycle * 2.0, cycle * 0.5};
    for (std::size_t i = 0; i < t.time_prefix().size(); ++i) {
      times.push_back(t.time_prefix()[i]);  // every segment boundary
    }
    for (const double at : times) {
      EXPECT_EQ(cursor.rate_at_bps(at), t.rate_at_bps(at));
      EXPECT_EQ(cursor.finish_time_s(at, 12345.0),
                t.finish_time_s(at, 12345.0));
      EXPECT_EQ(cursor.finish_time_s(at, t.cycle_bits()),
                t.finish_time_s(at, t.cycle_bits()));
      EXPECT_EQ(cursor.bits_between(at, at + cycle),
                t.bits_between(at, at + cycle));
    }
  }
}

TEST(TraceCursor, TcpModelOverloadIsBitIdentical) {
  util::Rng rng(31);
  MarkovTraceConfig cfg;
  cfg.duration_s = 600.0;
  const CapacityTrace t = make_markov_trace(cfg, rng);
  const TcpModelConfig tcp_cfg;
  const TcpDownloadModel model(tcp_cfg);
  TraceCursor cursor(t);
  double now = 0.0;
  double prev_finish = -1.0;
  for (int i = 0; i < 200; ++i) {
    const double bits = rng.uniform(1e5, 2e7);
    const double idle = prev_finish < 0.0
                            ? std::numeric_limits<double>::infinity()
                            : now - prev_finish;
    const double via_trace = model.finish_time_s(t, now, bits, idle);
    const double via_cursor = model.finish_time_s(cursor, now, bits, idle);
    EXPECT_EQ(via_cursor, via_trace);
    prev_finish = via_trace;
    now = via_trace + (i % 3 == 0 ? rng.uniform(0.0, 5.0) : 0.0);
  }
}

// --- StreamCursor: the A/B harness's reader, against TraceCursor -----------

// A query stream: monotone (each query starts where the last finished,
// sometimes after an idle gap, as a session's downloads do) or rewinding
// (uniform over several cycles). Both mix rate_at_bps with finish_time_s
// calls large enough to wrap the cycle, and the occasional zero-bit call.
void expect_streams_agree(StreamCursor& stream, const CapacityTrace& trace,
                          std::uint64_t seed, bool rewinding) {
  TraceCursor cursor(trace);
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
      EXPECT_EQ(stream.rate_at_bps(now), cursor.rate_at_bps(now)) << i;
      continue;
    }
    const double wrap_bits = rng.uniform(1.0, 3.0) * trace.cycle_bits();
    const double bits = i % 17 == 0   ? 0.0
                        : i % 13 == 0 ? wrap_bits
                                      : rng.uniform(0.0, 2e7);
    const double got = stream.finish_time_s(now, bits);
    const double want = cursor.finish_time_s(now, bits);
    EXPECT_EQ(got, want) << i;
    if (!rewinding && std::isfinite(want)) now = want;
  }
  EXPECT_EQ(stream.queries(), cursor.queries());
  EXPECT_EQ(stream.rewinds(), cursor.rewinds());
}

MarkovTraceConfig stream_test_config() {
  MarkovTraceConfig cfg;
  cfg.duration_s = 900.0;
  return cfg;
}

TEST(StreamCursor, LazyStreamMatchesTraceCursor) {
  const MarkovTraceConfig cfg = stream_test_config();
  for (const bool rewinding : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      util::Rng gen(seed);
      const CapacityTrace trace = make_markov_trace(cfg, gen);
      TraceStream lazy;
      lazy.reset(cfg, util::Rng(seed));
      StreamCursor stream(lazy);
      expect_streams_agree(stream, trace, seed + 100, rewinding);
    }
  }
}

TEST(StreamCursor, AssignedTracesMatchTraceCursor) {
  // Outage traces (the harness's materialized keys) and hand-built traces
  // with zero-rate segments, including a zero-rate head and a link that is
  // always down.
  std::vector<CapacityTrace> traces;
  const MarkovTraceConfig cfg = stream_test_config();
  OutageConfig outages;
  outages.mean_interval_s = 120.0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng gen(seed);
    const CapacityTrace base = make_markov_trace(cfg, gen);
    traces.push_back(with_outages(base, outages, gen));
  }
  traces.push_back(CapacityTrace::constant(2e6));
  traces.push_back(CapacityTrace({{10.0, 100.0}, {30.0, 0.0}, {5.0, 1e6}}));
  traces.push_back(CapacityTrace({{30.0, 0.0}, {10.0, 100.0}}));
  traces.push_back(CapacityTrace({{10.0, 0.0}}));
  TraceStream assigned;
  for (const bool rewinding : {false, true}) {
    for (std::size_t i = 0; i < traces.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "trace " << i);
      assigned.assign(traces[i]);
      StreamCursor stream(assigned);
      EXPECT_EQ(stream.cycle_duration_s(), traces[i].cycle_duration_s());
      expect_streams_agree(stream, traces[i], i + 200, rewinding);
    }
  }
}

TEST(StreamCursor, OneStreamReusedLazyAssignedLazy) {
  // The harness's per-slot stream serves lazy and materialized keys in any
  // order; nothing may leak from one key into the next.
  const MarkovTraceConfig cfg = stream_test_config();
  OutageConfig outages;
  outages.mean_interval_s = 90.0;
  TraceStream reused;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng gen(seed);
    const CapacityTrace plain = make_markov_trace(cfg, gen);
    reused.reset(cfg, util::Rng(seed));
    StreamCursor lazy(reused);
    expect_streams_agree(lazy, plain, seed, false);

    const CapacityTrace outage = with_outages(plain, outages, gen);
    reused.assign(outage);
    StreamCursor assigned(reused);
    expect_streams_agree(assigned, outage, seed, true);
  }
  util::Rng gen(9);
  const CapacityTrace last = make_markov_trace(cfg, gen);
  reused.reset(cfg, util::Rng(9));
  StreamCursor lazy(reused);
  expect_streams_agree(lazy, last, 9, true);
}

TEST(StreamCursorDeathTest, AssigningANonLoopingTraceAborts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  TraceStream stream;
  const CapacityTrace once({{10.0, 100.0}, {10.0, 300.0}}, /*loop=*/false);
  EXPECT_DEATH(stream.assign(once), "looping trace");
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
    TraceCursor cursor(reused);
    EXPECT_EQ(cursor.finish_time_s(3.0, 1e6), fresh.finish_time_s(3.0, 1e6));
  }
}

}  // namespace
}  // namespace bba::net
