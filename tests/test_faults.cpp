// Fault injection: spec parsing, pass semantics, legacy equivalence, the
// outage-boundary regression, stall attribution, and harness determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/bba2.hpp"
#include "exp/abtest.hpp"
#include "media/video.hpp"
#include "net/capacity_trace.hpp"
#include "net/fault_inject.hpp"
#include "net/trace_gen.hpp"
#include "net/trace_stream.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/metrics.hpp"
#include "sim/player.hpp"
#include "util/rng.hpp"

namespace bba {
namespace {

using net::CapacityTrace;
using net::FaultKind;
using net::FaultPlan;
using net::FaultSpec;
using net::InjectedFault;

double total_duration(const std::vector<CapacityTrace::Segment>& segs) {
  double sum = 0.0;
  for (const auto& s : segs) sum += s.duration_s;
  return sum;
}

// --- Spec parsing ---------------------------------------------------------

TEST(FaultSpecParse, EmptyVariantsYieldEmptyPlan) {
  for (const char* spec : {"", "off", "none"}) {
    FaultPlan plan;
    plan.specs.push_back(FaultSpec{});  // must be cleared
    EXPECT_TRUE(net::parse_fault_plan(spec, &plan)) << spec;
    EXPECT_TRUE(plan.empty()) << spec;
  }
}

TEST(FaultSpecParse, BareKindsTakeDocumentedDefaults) {
  FaultPlan plan;
  ASSERT_TRUE(net::parse_fault_plan("outage;spike;failover", &plan));
  ASSERT_EQ(plan.specs.size(), 3u);

  EXPECT_EQ(plan.specs[0].kind, FaultKind::kOutage);
  EXPECT_DOUBLE_EQ(plan.specs[0].mean_interval_s, 600.0);
  EXPECT_DOUBLE_EQ(plan.specs[0].min_duration_s, 15.0);
  EXPECT_DOUBLE_EQ(plan.specs[0].max_duration_s, 35.0);

  EXPECT_EQ(plan.specs[1].kind, FaultKind::kSpike);
  EXPECT_DOUBLE_EQ(plan.specs[1].mean_interval_s, 300.0);
  EXPECT_DOUBLE_EQ(plan.specs[1].min_factor, 0.10);
  EXPECT_DOUBLE_EQ(plan.specs[1].max_factor, 0.25);

  EXPECT_EQ(plan.specs[2].kind, FaultKind::kFailover);
  EXPECT_DOUBLE_EQ(plan.specs[2].mean_interval_s, 1800.0);
  EXPECT_DOUBLE_EQ(plan.specs[2].min_factor, 0.30);
  EXPECT_DOUBLE_EQ(plan.specs[2].max_factor, 0.70);
}

TEST(FaultSpecParse, FullSpecParsesEveryKey) {
  FaultPlan plan;
  ASSERT_TRUE(net::parse_fault_plan(
      "outage:every=300,dur=20..35;spike:every=240,dur=3..10,"
      "depth=0.1..0.3;failover:every=900,dur=2,shift=0.5",
      &plan));
  ASSERT_EQ(plan.specs.size(), 3u);
  EXPECT_DOUBLE_EQ(plan.specs[0].mean_interval_s, 300.0);
  EXPECT_DOUBLE_EQ(plan.specs[0].min_duration_s, 20.0);
  EXPECT_DOUBLE_EQ(plan.specs[0].max_duration_s, 35.0);
  EXPECT_DOUBLE_EQ(plan.specs[1].min_factor, 0.1);
  EXPECT_DOUBLE_EQ(plan.specs[1].max_factor, 0.3);
  // Single-number ranges collapse to lo == hi.
  EXPECT_DOUBLE_EQ(plan.specs[2].min_duration_s, 2.0);
  EXPECT_DOUBLE_EQ(plan.specs[2].max_duration_s, 2.0);
  EXPECT_DOUBLE_EQ(plan.specs[2].min_factor, 0.5);
  EXPECT_DOUBLE_EQ(plan.specs[2].max_factor, 0.5);
}

TEST(FaultSpecParse, RoundTripsThroughToSpec) {
  FaultPlan plan;
  ASSERT_TRUE(net::parse_fault_plan(
      "spike:every=120,dur=2..8,depth=0.25;outage:dur=10..10", &plan));
  FaultPlan again;
  ASSERT_TRUE(net::parse_fault_plan(net::to_spec(plan), &again));
  ASSERT_EQ(again.specs.size(), plan.specs.size());
  for (std::size_t i = 0; i < plan.specs.size(); ++i) {
    EXPECT_EQ(again.specs[i].kind, plan.specs[i].kind);
    EXPECT_DOUBLE_EQ(again.specs[i].mean_interval_s,
                     plan.specs[i].mean_interval_s);
    EXPECT_DOUBLE_EQ(again.specs[i].min_duration_s,
                     plan.specs[i].min_duration_s);
    EXPECT_DOUBLE_EQ(again.specs[i].max_duration_s,
                     plan.specs[i].max_duration_s);
    EXPECT_DOUBLE_EQ(again.specs[i].min_factor, plan.specs[i].min_factor);
    EXPECT_DOUBLE_EQ(again.specs[i].max_factor, plan.specs[i].max_factor);
  }
}

TEST(FaultSpecParse, RejectsMalformedSpecs) {
  const char* bad[] = {
      "bogus",                    // unknown kind
      "outage:foo=1",             // unknown key
      "outage:every=abc",         // not a number
      "outage:every=1..2",        // 'every' is not a range
      "outage:every=0",           // must be > 0
      "outage:dur=10..5",         // inverted range
      "outage:dur=0",             // zero duration
      "outage:depth=0.5",         // depth only valid for spike
      "spike:depth=0.5..0.1",     // inverted factor range
      "failover:shift=0",         // failover shift must be > 0
      "outage:every",             // missing '='
  };
  for (const char* spec : bad) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(net::parse_fault_plan(spec, &plan, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
  // Non-finite numbers and trailing junk, in every numeric key and at both
  // ends of a range where the key takes one.
  const char* templates[] = {
      "outage:every=#",   "outage:dur=#",       "outage:dur=#..30",
      "outage:dur=20..#", "spike:depth=#",      "spike:depth=0.1..#",
      "failover:shift=#", "failover:shift=#..0.7",
  };
  for (const std::string tmpl : templates) {
    for (const char* token : {"nan", "inf", "-inf", "5junk"}) {
      std::string spec = tmpl;
      spec.replace(spec.find('#'), 1, token);
      FaultPlan plan;
      std::string error;
      EXPECT_FALSE(net::parse_fault_plan(spec, &plan, &error)) << spec;
      EXPECT_FALSE(error.empty()) << spec;
    }
  }
}

// --- Outage pass: legacy equivalence and the boundary regression ----------

TEST(FaultInject, OutageSpecMatchesLegacyWithOutages) {
  util::Rng gen(3);
  const CapacityTrace base = net::make_markov_trace({}, gen);

  net::OutageConfig legacy_cfg;
  legacy_cfg.mean_interval_s = 200.0;
  util::Rng legacy_rng(42);
  const CapacityTrace legacy = net::with_outages(base, legacy_cfg, legacy_rng);

  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultKind::kOutage;
  spec.mean_interval_s = legacy_cfg.mean_interval_s;
  spec.min_duration_s = legacy_cfg.min_outage_s;
  spec.max_duration_s = legacy_cfg.max_outage_s;
  plan.specs.push_back(spec);
  util::Rng plan_rng(42);
  std::vector<InjectedFault> events;
  const CapacityTrace faulted = net::with_faults(base, plan, plan_rng, &events);

  ASSERT_EQ(faulted.segments().size(), legacy.segments().size());
  for (std::size_t i = 0; i < legacy.segments().size(); ++i) {
    EXPECT_EQ(faulted.segments()[i].duration_s,
              legacy.segments()[i].duration_s);
    EXPECT_EQ(faulted.segments()[i].rate_bps, legacy.segments()[i].rate_bps);
  }
  EXPECT_EQ(faulted.loops(), legacy.loops());
  // Identical RNG consumption: the next draw from each stream agrees.
  EXPECT_EQ(legacy_rng.uniform(0.0, 1.0), plan_rng.uniform(0.0, 1.0));
  // One event per inserted zero-rate segment.
  std::size_t zero_segments = 0;
  for (const auto& s : faulted.segments()) {
    zero_segments += s.rate_bps == 0.0;
  }
  EXPECT_EQ(events.size(), zero_segments);
  for (const auto& e : events) EXPECT_EQ(e.kind, FaultKind::kOutage);
}

// Regression: an outage landing within floating-point residue of a segment
// boundary used to leave a ~5e-10 s splinter of the split segment in the
// output. The rigged base puts the first boundary exactly residue past the
// first outage arrival; pre-fix code emits a sub-nanosecond segment.
TEST(FaultInject, OutageOnSegmentBoundaryEmitsNoSliverSegments) {
  const double mean_interval = 600.0;
  util::Rng probe(7);
  const double first_arrival = probe.exponential(mean_interval);

  const std::vector<CapacityTrace::Segment> base = {
      {first_arrival + 5e-10, 100.0}, {50.0, 200.0}};
  net::OutageConfig cfg;
  cfg.mean_interval_s = mean_interval;
  util::Rng rng(7);
  std::vector<CapacityTrace::Segment> out;
  net::insert_outages(base, cfg, rng, out);

  ASSERT_FALSE(out.empty());
  for (const auto& seg : out) {
    EXPECT_GT(seg.duration_s, 1e-9)
        << "splinter segment leaked through an outage boundary";
  }
  // Duration is conserved: base plus every inserted outage.
  double outage_total = 0.0;
  for (const auto& seg : out) {
    if (seg.rate_bps == 0.0) outage_total += seg.duration_s;
  }
  EXPECT_NEAR(total_duration(out), total_duration(base) + outage_total, 1e-6);
}

// --- Spike and failover semantics -----------------------------------------

TEST(FaultInject, SpikeDipsCapacityWithoutStretchingTimeline) {
  const std::vector<CapacityTrace::Segment> base = {{1000.0, 1e6}};
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultKind::kSpike;
  spec.mean_interval_s = 150.0;
  spec.min_duration_s = spec.max_duration_s = 10.0;
  spec.min_factor = spec.max_factor = 0.5;
  plan.specs.push_back(spec);

  util::Rng rng(5);
  std::vector<InjectedFault> events;
  const CapacityTrace faulted =
      net::with_faults(CapacityTrace(base, true), plan, rng, &events);

  // Overlay only: the cycle is exactly as long as the base trace.
  EXPECT_NEAR(faulted.cycle_duration_s(), 1000.0, 1e-6);
  ASSERT_FALSE(events.empty());
  for (const auto& e : events) {
    EXPECT_EQ(e.kind, FaultKind::kSpike);
    EXPECT_GE(e.start_s, 0.0);
    EXPECT_LE(e.start_s + e.duration_s, 1000.0 + 1e-6);
    EXPECT_LE(e.duration_s, 10.0 + 1e-9);
    EXPECT_DOUBLE_EQ(e.factor, 0.5);
    // Capacity inside the recorded window is the dipped rate.
    EXPECT_DOUBLE_EQ(faulted.rate_at_bps(e.start_s + e.duration_s / 2.0),
                     5e5);
  }
}

TEST(FaultInject, FailoverInsertsBlackoutAndCompoundsRegime) {
  const std::vector<CapacityTrace::Segment> base = {{1000.0, 1e6}};
  FaultPlan plan;
  FaultSpec spec;
  spec.kind = FaultKind::kFailover;
  spec.mean_interval_s = 250.0;
  spec.min_duration_s = spec.max_duration_s = 2.0;
  spec.min_factor = spec.max_factor = 0.5;  // exactly halves: exact doubles
  plan.specs.push_back(spec);

  util::Rng rng(9);
  std::vector<InjectedFault> events;
  const CapacityTrace faulted =
      net::with_faults(CapacityTrace(base, true), plan, rng, &events);

  ASSERT_FALSE(events.empty());
  const std::size_t n = events.size();
  EXPECT_NEAR(faulted.cycle_duration_s(), 1000.0 + 2.0 * n, 1e-6);
  for (const auto& e : events) {
    EXPECT_EQ(e.kind, FaultKind::kFailover);
    EXPECT_DOUBLE_EQ(e.duration_s, 2.0);
    EXPECT_DOUBLE_EQ(e.factor, 0.5);
    // The blackout itself is a hard zero.
    EXPECT_DOUBLE_EQ(faulted.rate_at_bps(e.start_s + 1.0), 0.0);
  }
  // Every non-blackout rate is the base rate scaled by a compounded regime.
  for (const auto& seg : faulted.segments()) {
    if (seg.rate_bps == 0.0) continue;
    bool matches = false;
    double regime = 1.0;
    for (std::size_t k = 0; k <= n; ++k, regime *= 0.5) {
      matches |= seg.rate_bps == 1e6 * regime;
    }
    EXPECT_TRUE(matches) << "unexpected rate " << seg.rate_bps;
  }
  // The final regime (after all failovers) is present at the trace end.
  EXPECT_DOUBLE_EQ(faulted.segments().back().rate_bps,
                   1e6 * std::pow(0.5, static_cast<double>(n)));
}

TEST(FaultInject, MultiPassPlanReportsEventsInFinalOutputTime) {
  const std::vector<CapacityTrace::Segment> base = {{2000.0, 1e6}};
  FaultPlan plan;
  FaultSpec spike;
  spike.kind = FaultKind::kSpike;
  spike.mean_interval_s = 100.0;
  spike.min_duration_s = spike.max_duration_s = 5.0;
  spike.min_factor = spike.max_factor = 0.5;
  FaultSpec outage;
  outage.kind = FaultKind::kOutage;
  outage.mean_interval_s = 150.0;
  outage.min_duration_s = outage.max_duration_s = 20.0;
  // The outage pass runs second and stretches the timeline, so the spike
  // events recorded by the first pass must be shifted to stay aligned.
  plan.specs = {spike, outage};

  util::Rng rng(13);
  std::vector<InjectedFault> events;
  const CapacityTrace faulted =
      net::with_faults(CapacityTrace(base, true), plan, rng, &events);

  std::size_t spikes = 0, outages = 0, dipped = 0;
  for (const auto& e : events) {
    const double mid = e.start_s + e.duration_s / 2.0;
    if (e.kind == FaultKind::kOutage) {
      ++outages;
      EXPECT_DOUBLE_EQ(faulted.rate_at_bps(mid), 0.0);
    } else {
      ++spikes;
      // A shifted spike window holds the dipped rate unless a later outage
      // covered that instant.
      const double rate = faulted.rate_at_bps(mid);
      EXPECT_TRUE(rate == 5e5 || rate == 0.0) << rate;
      dipped += rate == 5e5;
    }
  }
  EXPECT_GT(spikes, 0u);
  EXPECT_GT(outages, 0u);
  // If event times were left in pre-insertion coordinates most windows
  // would read the full 1e6 rate; require the dipped reads to dominate.
  EXPECT_GT(dipped, spikes / 2);
}

TEST(FaultInject, PlanApplicationIsDeterministic) {
  util::Rng gen(21);
  const CapacityTrace base = net::make_markov_trace({}, gen);
  FaultPlan plan;
  ASSERT_TRUE(net::parse_fault_plan(
      "outage:every=120;spike:every=90,depth=0.2;failover:every=400",
      &plan));

  util::Rng rng_a(77), rng_b(77);
  std::vector<InjectedFault> ev_a, ev_b;
  const CapacityTrace a = net::with_faults(base, plan, rng_a, &ev_a);
  const CapacityTrace b = net::with_faults(base, plan, rng_b, &ev_b);

  ASSERT_EQ(a.segments().size(), b.segments().size());
  EXPECT_EQ(std::memcmp(a.segments().data(), b.segments().data(),
                        a.segments().size() * sizeof(CapacityTrace::Segment)),
            0);
  ASSERT_EQ(ev_a.size(), ev_b.size());
  for (std::size_t i = 0; i < ev_a.size(); ++i) {
    EXPECT_EQ(ev_a[i].kind, ev_b[i].kind);
    EXPECT_EQ(ev_a[i].start_s, ev_b[i].start_s);
    EXPECT_EQ(ev_a[i].duration_s, ev_b[i].duration_s);
    EXPECT_EQ(ev_a[i].factor, ev_b[i].factor);
  }
}

TEST(FaultInject, EmptyPlanCopiesBaseAndConsumesNoRandomness) {
  const std::vector<CapacityTrace::Segment> base = {{10.0, 1e6},
                                                    {20.0, 2e6}};
  net::FaultScratch scratch;
  std::vector<CapacityTrace::Segment> out;
  util::Rng rng(4), untouched(4);
  std::vector<InjectedFault> events;
  net::apply_fault_plan(base, FaultPlan{}, rng, scratch, out, &events);

  ASSERT_EQ(out.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(out[i].duration_s, base[i].duration_s);
    EXPECT_EQ(out[i].rate_bps, base[i].rate_bps);
  }
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(rng.uniform(0.0, 1.0), untouched.uniform(0.0, 1.0));
}

// --- fault_overlaps -------------------------------------------------------

TEST(FaultOverlaps, NonLoopingWindows) {
  const std::vector<InjectedFault> faults = {
      {FaultKind::kOutage, 10.0, 5.0, 0.0}};
  EXPECT_TRUE(net::fault_overlaps(faults, 100.0, false, 12.0, 13.0));
  EXPECT_TRUE(net::fault_overlaps(faults, 100.0, false, 14.9, 30.0));
  EXPECT_TRUE(net::fault_overlaps(faults, 100.0, false, 12.0, 12.0));
  EXPECT_TRUE(net::fault_overlaps(faults, 100.0, false, 0.0, 10.0));
  EXPECT_FALSE(net::fault_overlaps(faults, 100.0, false, 0.0, 9.0));
  EXPECT_FALSE(net::fault_overlaps(faults, 100.0, false, 16.0, 20.0));
  // Past the first cycle: a non-looping trace never repeats the fault.
  EXPECT_FALSE(net::fault_overlaps(faults, 100.0, false, 110.0, 112.0));
}

TEST(FaultOverlaps, LoopingTraceUnrollsCycles) {
  const std::vector<InjectedFault> faults = {
      {FaultKind::kOutage, 10.0, 5.0, 0.0}};
  EXPECT_TRUE(net::fault_overlaps(faults, 100.0, true, 110.0, 112.0));
  EXPECT_TRUE(net::fault_overlaps(faults, 100.0, true, 1012.0, 1013.0));
  EXPECT_FALSE(net::fault_overlaps(faults, 100.0, true, 116.0, 119.0));
  EXPECT_FALSE(net::fault_overlaps(faults, 100.0, true, 216.0, 219.0));
  // An interval spanning a whole cycle always hits.
  EXPECT_TRUE(net::fault_overlaps(faults, 100.0, true, 150.0, 260.0));
  // Before the first occurrence.
  EXPECT_FALSE(net::fault_overlaps(faults, 100.0, true, 0.0, 9.0));
}

TEST(FaultOverlaps, EmptyAndZeroDurationFaultsNeverOverlap) {
  EXPECT_FALSE(net::fault_overlaps({}, 100.0, true, 0.0, 1e9));
  const std::vector<InjectedFault> zero = {
      {FaultKind::kSpike, 10.0, 0.0, 0.5}};
  EXPECT_FALSE(net::fault_overlaps(zero, 100.0, true, 0.0, 1e9));
}

// --- Cursor agreement incl. the +infinity path ----------------------------

TEST(FaultInject, CursorAgreesWithTraceOnFaultedNonLoopingTrace) {
  const std::vector<CapacityTrace::Segment> base = {{30.0, 1e6},
                                                    {40.0, 2e6}};
  FaultPlan plan;
  ASSERT_TRUE(net::parse_fault_plan("outage:every=20,dur=5", &plan));
  util::Rng rng(31);
  const CapacityTrace faulted =
      net::with_faults(CapacityTrace(base, /*loop=*/false), plan, rng);
  ASSERT_FALSE(faulted.loops());

  net::TraceStream stream;
  stream.assign(faulted);
  net::StreamCursor cursor(stream);
  EXPECT_FALSE(cursor.loops());
  for (double t = 0.0; t < faulted.cycle_duration_s() + 5.0; t += 1.7) {
    EXPECT_EQ(cursor.rate_at_bps(t), faulted.rate_at_bps(t));
    EXPECT_EQ(cursor.finish_time_s(t, 3e5), faulted.finish_time_s(t, 3e5));
  }
  // More bits than the dead-at-the-end trace can ever deliver: both paths
  // must report the download never finishes, with the identical +inf.
  const double inf_trace = faulted.finish_time_s(0.0, 1e18);
  net::StreamCursor fresh(stream);
  const double inf_cursor = fresh.finish_time_s(0.0, 1e18);
  EXPECT_TRUE(std::isinf(inf_trace));
  EXPECT_EQ(inf_cursor, inf_trace);
}

// --- Player stall attribution ---------------------------------------------

media::Video test_video(int chunks) {
  util::Rng rng(11);
  return media::make_vbr_video("t", media::EncodingLadder::netflix_2013(),
                               chunks, 4.0, media::VbrConfig{}, rng);
}

TEST(PlayerFaults, StallsDuringInjectedOutagesAreAttributed) {
  const media::Video video = test_video(400);
  FaultPlan plan;
  ASSERT_TRUE(net::parse_fault_plan("outage:every=60,dur=600", &plan));
  util::Rng rng(17);
  std::vector<InjectedFault> events;
  const CapacityTrace faulted =
      net::with_faults(CapacityTrace({{3600.0, 3e6}}, true), plan, rng,
                       &events);
  ASSERT_FALSE(events.empty());

  core::Bba2 abr;
  sim::PlayerConfig player;
  player.watch_duration_s = 900.0;
  player.max_wall_s = 7200.0;
  player.faults = &events;
  const sim::SessionResult session =
      sim::simulate_session(video, faulted, abr, player);
  const sim::SessionMetrics m = sim::compute_metrics(session);

  ASSERT_GT(m.rebuffer_count, 0);
  EXPECT_GT(m.fault_stall_count, 0);
  // A 10-minute outage on a 1-minute interval dominates the session: every
  // stall here lies inside a fault window.
  for (const auto& rb : session.rebuffers) {
    EXPECT_TRUE(rb.during_fault);
    EXPECT_TRUE(net::fault_overlaps(events, faulted.cycle_duration_s(),
                                    faulted.loops(), rb.start_s,
                                    rb.start_s + rb.duration_s));
  }

  // Without the faults pointer the same run leaves every flag false.
  sim::PlayerConfig unattributed = player;
  unattributed.faults = nullptr;
  const sim::SessionResult plain =
      sim::simulate_session(video, faulted, abr, unattributed);
  const sim::SessionMetrics mp = sim::compute_metrics(plain);
  EXPECT_EQ(mp.rebuffer_count, m.rebuffer_count);
  EXPECT_EQ(mp.fault_stall_count, 0);
  for (const auto& rb : plain.rebuffers) EXPECT_FALSE(rb.during_fault);
}

TEST(PlayerFaults, GiveUpStallIsHonoredUnderInjectedFaults) {
  const media::Video video = test_video(400);
  FaultPlan plan;
  ASSERT_TRUE(net::parse_fault_plan("outage:every=60,dur=600", &plan));
  util::Rng rng(17);
  std::vector<InjectedFault> events;
  const CapacityTrace faulted =
      net::with_faults(CapacityTrace({{3600.0, 3e6}}, true), plan, rng,
                       &events);

  core::Bba2 abr;
  sim::PlayerConfig player;
  player.watch_duration_s = 3600.0;
  player.give_up_stall_s = 10.0;
  player.faults = &events;
  const sim::SessionResult session =
      sim::simulate_session(video, faulted, abr, player);
  const sim::SessionMetrics m = sim::compute_metrics(session);

  EXPECT_TRUE(m.abandoned);
  ASSERT_FALSE(session.rebuffers.empty());
  // The terminal stall is capped at exactly the give-up threshold and falls
  // inside the outage that killed the session.
  const auto& last = session.rebuffers.back();
  EXPECT_DOUBLE_EQ(last.duration_s, 10.0);
  EXPECT_TRUE(last.during_fault);
}

// --- Harness determinism with faults enabled ------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_path(const char* tag) {
  return testing::TempDir() + "faults_" + tag + ".jsonl";
}

exp::AbTestConfig faulted_config(std::size_t threads) {
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 3;
  cfg.days = 1;
  cfg.seed = 99;
  cfg.threads = threads;
  EXPECT_TRUE(net::parse_fault_plan("outage:every=45,dur=25..45;spike:"
                                    "every=120,dur=5..15,depth=0.05..0.2",
                                    &cfg.population.faults));
  return cfg;
}

std::vector<exp::Group> tiny_groups() {
  std::vector<exp::Group> groups;
  groups.push_back({"control", exp::make_control_factory()});
  groups.push_back({"bba2", exp::make_bba2_factory()});
  return groups;
}

bool results_bitwise_equal(const exp::AbTestResult& a,
                           const exp::AbTestResult& b) {
  if (a.group_names != b.group_names) return false;
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t g = 0; g < a.cells.size(); ++g) {
    if (a.cells[g].size() != b.cells[g].size()) return false;
    for (std::size_t d = 0; d < a.cells[g].size(); ++d) {
      if (a.cells[g][d].size() != b.cells[g][d].size()) return false;
      for (std::size_t w = 0; w < a.cells[g][d].size(); ++w) {
        if (std::memcmp(&a.cells[g][d][w], &b.cells[g][d][w],
                        sizeof(exp::WindowMetrics)) != 0) {
          return false;
        }
      }
    }
  }
  return true;
}

TEST(AbTestFaults, ResultsBitIdenticalAcrossThreadCounts) {
  const media::VideoLibrary library = media::VideoLibrary::standard(3);
  const exp::AbTestResult r1 =
      exp::run_ab_test(tiny_groups(), library, faulted_config(1));
  const exp::AbTestResult r4 =
      exp::run_ab_test(tiny_groups(), library, faulted_config(4));
  EXPECT_TRUE(results_bitwise_equal(r1, r4));

  // The aggressive plan produces fault-attributed stalls somewhere.
  double fault_stalls = 0.0;
  for (const auto& g : r1.cells) {
    for (const auto& d : g) {
      for (const auto& w : d) fault_stalls += w.fault_stall_count;
    }
  }
  EXPECT_GT(fault_stalls, 0.0);
}

exp::AbTestResult run_traced_faulted(std::size_t threads,
                                     const std::string& path,
                                     bool with_faults) {
  obs::Observability handle;
  obs::TraceConfig tc;
  tc.path = path;
  tc.sample = 1;
  handle.trace = std::make_unique<obs::TraceCollector>(tc);
  EXPECT_TRUE(handle.trace->ok());
  obs::install(&handle);
  const media::VideoLibrary library = media::VideoLibrary::standard(3);
  exp::AbTestConfig cfg = faulted_config(threads);
  if (!with_faults) cfg.population.faults.specs.clear();
  exp::AbTestResult result = exp::run_ab_test(tiny_groups(), library, cfg);
  obs::install(nullptr);
  return result;
}

TEST(AbTestFaults, TraceFilesCarryFaultEventsAndStayThreadInvariant) {
  const std::string p1 = temp_path("t1");
  const std::string p4 = temp_path("t4");
  const exp::AbTestResult r1 = run_traced_faulted(1, p1, true);
  const exp::AbTestResult r4 = run_traced_faulted(4, p4, true);
  EXPECT_TRUE(results_bitwise_equal(r1, r4));

  const std::string bytes = read_file(p1);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, read_file(p4));

  // Headers declare the fault count; each injected fault has an event
  // line; stall lines carry the attribution flag.
  EXPECT_NE(bytes.find("\"ev\":\"fault\""), std::string::npos);
  EXPECT_NE(bytes.find("\"faults\":"), std::string::npos);
  EXPECT_NE(bytes.find("\"trace_cycle_s\":"), std::string::npos);
  std::istringstream in(bytes);
  std::string line;
  unsigned long long declared = 0, seen = 0;
  bool checked_header = false;
  while (std::getline(in, line)) {
    if (line.find("\"ev\":\"session\"") != std::string::npos) {
      if (checked_header) {
        EXPECT_EQ(seen, declared);
      }
      const auto pos = line.find("\"faults\":");
      ASSERT_NE(pos, std::string::npos) << line;
      ASSERT_EQ(std::sscanf(line.c_str() + pos + 9, "%llu", &declared), 1);
      seen = 0;
      checked_header = true;
    } else if (line.find("\"ev\":\"fault\"") != std::string::npos) {
      ++seen;
      EXPECT_TRUE(line.find("\"kind\":\"outage\"") != std::string::npos ||
                  line.find("\"kind\":\"spike\"") != std::string::npos ||
                  line.find("\"kind\":\"failover\"") != std::string::npos)
          << line;
    } else if (line.find("\"ev\":\"stall\"") != std::string::npos) {
      EXPECT_NE(line.find("\"fault\":"), std::string::npos) << line;
    }
  }
  if (checked_header) {
    EXPECT_EQ(seen, declared);
  }
}

TEST(AbTestFaults, DisabledFaultsLeaveTraceSchemaUntouched) {
  const std::string path = temp_path("off");
  (void)run_traced_faulted(1, path, false);
  const std::string bytes = read_file(path);
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(bytes.find("\"ev\":\"fault\""), std::string::npos);
  EXPECT_EQ(bytes.find("\"faults\":"), std::string::npos);
  EXPECT_EQ(bytes.find("\"fault\":"), std::string::npos);
}

}  // namespace
}  // namespace bba
