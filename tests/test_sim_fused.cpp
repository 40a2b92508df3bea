// Differential tests of the session player's static dispatch: the fused
// instantiations the A/B harness runs -- exact-type and table-driven
// policies, one StreamCursor over lazily generated or assigned streams,
// the inline StreamingMetricsSink -- against the virtual player over a
// materialized trace read by its own binary search (net::SearchSource).
// A "batch" in the test names is the harness's unit of work: one session
// key streamed by every group. Everything is compared at the byte level
// (SessionMetrics via memcmp, the obs registry via full snapshot equality)
// because the contract is bit-identity, not closeness.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "core/bba2.hpp"
#include "core/bba_table.hpp"
#include "exp/abtest.hpp"
#include "exp/block.hpp"
#include "exp/population.hpp"
#include "exp/session_key.hpp"
#include "exp/workload.hpp"
#include "media/decision_table.hpp"
#include "media/video.hpp"
#include "net/capacity_trace.hpp"
#include "net/fault_inject.hpp"
#include "net/search_source.hpp"
#include "net/trace_gen.hpp"
#include "net/trace_stream.hpp"
#include "obs/metrics.hpp"
#include "sim/metrics.hpp"
#include "sim/player.hpp"
#include "sim/session_sink.hpp"
#include "sim/simulate.hpp"

namespace {

using namespace bba;

void expect_identical(const sim::SessionMetrics& a,
                      const sim::SessionMetrics& b, std::size_t i) {
  auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  EXPECT_TRUE(same(a.play_s, b.play_s)) << "session " << i;
  EXPECT_TRUE(same(a.join_s, b.join_s)) << "session " << i;
  EXPECT_EQ(a.rebuffer_count, b.rebuffer_count) << "session " << i;
  EXPECT_TRUE(same(a.rebuffer_s, b.rebuffer_s)) << "session " << i;
  EXPECT_TRUE(same(a.rebuffers_per_hour, b.rebuffers_per_hour))
      << "session " << i;
  EXPECT_EQ(a.fault_stall_count, b.fault_stall_count) << "session " << i;
  EXPECT_TRUE(same(a.avg_rate_bps, b.avg_rate_bps)) << "session " << i;
  EXPECT_TRUE(same(a.startup_rate_bps, b.startup_rate_bps))
      << "session " << i;
  EXPECT_TRUE(same(a.steady_rate_bps, b.steady_rate_bps)) << "session " << i;
  EXPECT_EQ(a.has_steady, b.has_steady) << "session " << i;
  EXPECT_TRUE(same(a.steady_play_s, b.steady_play_s)) << "session " << i;
  EXPECT_EQ(a.switch_count, b.switch_count) << "session " << i;
  EXPECT_TRUE(same(a.switches_per_hour, b.switches_per_hour))
      << "session " << i;
  EXPECT_TRUE(same(a.avg_buffer_s, b.avg_buffer_s)) << "session " << i;
  EXPECT_EQ(a.abandoned, b.abandoned) << "session " << i;
}

void expect_snapshots_equal(const obs::MetricsSnapshot& a,
                            const obs::MetricsSnapshot& b) {
  for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
    EXPECT_EQ(a.counters[c], b.counters[c])
        << obs::counter_name(static_cast<obs::Counter>(c));
  }
  for (std::size_t h = 0; h < obs::kNumHists; ++h) {
    const auto& ha = a.hists[h];
    const auto& hb = b.hists[h];
    EXPECT_EQ(ha.count, hb.count) << obs::hist_name(static_cast<obs::Hist>(h));
    EXPECT_EQ(ha.sum, hb.sum) << obs::hist_name(static_cast<obs::Hist>(h));
    for (int i = 0; i < obs::HistSlot::kBuckets; ++i) {
      EXPECT_EQ(ha.buckets[i], hb.buckets[i])
          << obs::hist_name(static_cast<obs::Hist>(h)) << " bucket " << i;
    }
  }
}

// One session's inputs, resolved from a SessionKey exactly the way the A/B
// harness does.
struct Case {
  exp::SessionKey key;
  exp::UserEnvironment env;
  exp::SessionSpec spec;
  net::CapacityTrace trace = net::CapacityTrace::constant(1.0);
};

struct Fixture {
  exp::Population population;
  media::VideoLibrary library = media::VideoLibrary::standard(11);
  exp::WorkloadConfig workload;
  sim::PlayerConfig player;
  std::uint64_t seed = 2014;

  explicit Fixture(exp::PopulationConfig pop_cfg = {})
      : population(std::move(pop_cfg)) {}

  // Every case with its materialized trace (the virtual oracle's input;
  // the fused path materializes only outage sessions).
  std::vector<Case> cases(std::size_t n) {
    std::vector<Case> out(n);
    net::TraceScratch scratch;
    for (std::size_t i = 0; i < n; ++i) {
      Case& c = out[i];
      c.key = exp::SessionKey{seed, 0, i % exp::kWindowsPerDay,
                              i / exp::kWindowsPerDay};
      c.env = population.environment_for(c.key);
      c.spec = exp::session_for(library, workload, c.key);
      population.trace_for_into(c.env, c.key, scratch, c.trace);
    }
    return out;
  }

  sim::PlayerConfig config_for(const Case& c) const {
    sim::PlayerConfig cfg = player;
    cfg.watch_duration_s = c.spec.watch_duration_s;
    return cfg;
  }

  const media::Video& video(const Case& c) const {
    return library.at(c.spec.video_index);
  }

  // The reference: virtual ABR, the materialized trace's own binary
  // search, virtual sink.
  sim::SessionMetrics reference(const Case& c, core::Bba2& abr,
                                const sim::PlayerConfig& cfg) const {
    sim::StreamingMetricsSink sink;
    sim::SessionSink& virtual_sink = sink;
    abr::RateAdaptation& virtual_abr = abr;
    sim::simulate(video(c), net::SearchSource{c.trace}, virtual_abr, cfg,
                  virtual_sink);
    return sink.metrics();
  }

  // The harness's fused path: table-driven BBA-2, a lazy stream for
  // outage-free sessions and the materialized trace assigned to the same
  // stream otherwise, inline sink. Returns whether it streamed lazily.
  bool fused(const Case& c, core::BbaTable& policy, net::TraceStream& stream,
             sim::StreamingMetricsSink& sink,
             const sim::PlayerConfig& cfg) const {
    const bool lazy = !c.env.has_outages;
    if (lazy) {
      stream.reset(c.env.trace,
                   exp::session_rng(c.key, exp::StreamClass::kTrace));
    } else {
      stream.assign(c.trace);
    }
    sim::simulate(video(c), net::StreamCursor(stream), policy, cfg, sink);
    return lazy;
  }
};

core::BbaTable table_policy(const core::Bba2& abr) {
  std::optional<core::BbaTable> policy = core::BbaTable::of(abr);
  EXPECT_TRUE(policy.has_value());
  return *policy;
}

constexpr std::size_t kSweep = 180;  // 15 sessions in each of 12 windows

TEST(SimBatch, MixedStreamAndTraceLanesMatchScalar) {
  Fixture fx;
  const std::vector<Case> cases = fx.cases(kSweep);
  core::Bba2 abr;
  core::BbaTable policy = table_policy(abr);
  net::TraceStream stream;
  sim::StreamingMetricsSink sink;
  std::size_t streamed = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const sim::PlayerConfig cfg = fx.config_for(cases[i]);
    if (fx.fused(cases[i], policy, stream, sink, cfg)) ++streamed;
    expect_identical(sink.metrics(), fx.reference(cases[i], abr, cfg), i);
  }
  // The sweep must exercise both kinds of stream, through one reused
  // TraceStream.
  EXPECT_GT(streamed, kSweep / 2);
  EXPECT_LT(streamed, kSweep);
}

TEST(SimBatch, AllOutageLanesMatchScalar) {
  exp::PopulationConfig pop;
  pop.outage_session_fraction = 1.0;  // every trace carries outage windows
  Fixture fx(pop);
  const std::vector<Case> cases = fx.cases(60);
  core::Bba2 abr;
  core::BbaTable policy = table_policy(abr);
  net::TraceStream stream;
  sim::StreamingMetricsSink sink;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_TRUE(cases[i].env.has_outages);
    const sim::PlayerConfig cfg = fx.config_for(cases[i]);
    EXPECT_FALSE(fx.fused(cases[i], policy, stream, sink, cfg));
    expect_identical(sink.metrics(), fx.reference(cases[i], abr, cfg), i);
  }
}

TEST(SimBatch, ObsRegistryDeltasMatchScalar) {
  // Table builds (kReservoirMemoBuilds) happen once per title, so each side
  // gets its own identically-seeded library copy and a cold registry.
  Fixture fx_fused;
  Fixture fx_virtual;
  const std::vector<Case> fc = fx_fused.cases(kSweep);
  const std::vector<Case> vc = fx_virtual.cases(kSweep);

  obs::MetricsRegistry reg_fused(1);
  {
    obs::SlotBinding bind(&reg_fused, 0);
    core::Bba2 abr;
    core::BbaTable policy = table_policy(abr);
    net::TraceStream stream;
    sim::StreamingMetricsSink sink;
    for (const Case& c : fc) {
      fx_fused.fused(c, policy, stream, sink, fx_fused.config_for(c));
    }
  }
  // The virtual side runs the public simulate_session, not the untallied
  // reference: its StreamCursor over the assigned trace must count the
  // same cursor queries and rewinds as the harness's lazy streams.
  obs::MetricsRegistry reg_virtual(1);
  {
    obs::SlotBinding bind(&reg_virtual, 0);
    core::Bba2 abr;
    sim::StreamingMetricsSink sink;
    sim::SessionSink& virtual_sink = sink;
    for (const Case& c : vc) {
      sim::simulate_session(fx_virtual.video(c), c.trace, abr,
                            fx_virtual.config_for(c), virtual_sink);
    }
  }
  expect_snapshots_equal(reg_fused.snapshot(), reg_virtual.snapshot());
}

// --- Harness-level differentials ------------------------------------------

exp::AbTestConfig harness_config(std::size_t threads) {
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 6;
  cfg.days = 1;
  cfg.seed = 77;
  cfg.threads = threads;
  return cfg;
}

std::vector<exp::Group> harness_groups() {
  std::vector<exp::Group> groups;
  groups.push_back({"control", exp::make_control_factory()});
  groups.push_back({"bba1", exp::make_bba1_factory()});
  groups.push_back({"bba2", exp::make_bba2_factory()});
  return groups;
}

std::vector<exp::SessionKey> harness_keys(const exp::AbTestConfig& cfg) {
  std::vector<exp::SessionKey> keys;
  for (std::size_t w = 0; w < exp::kWindowsPerDay; ++w) {
    for (std::size_t s = 0; s < cfg.sessions_per_window; ++s) {
      keys.push_back(exp::SessionKey{cfg.seed, 0, w, s});
    }
  }
  return keys;
}

// Every (key, group) session of the runner, in fold order.
std::vector<sim::SessionMetrics> run_blocks(
    const std::vector<exp::Group>& groups, const exp::AbTestConfig& cfg,
    const std::vector<std::size_t>& block_sizes) {
  const media::VideoLibrary library = media::VideoLibrary::standard(5);
  const std::vector<exp::SessionKey> keys = harness_keys(cfg);
  exp::SessionBlockRunner runner(groups, library, cfg);
  std::vector<sim::SessionMetrics> out;
  std::size_t first = 0;
  for (std::size_t n : block_sizes) {
    runner.run(
        n, [&](std::size_t i) { return keys[first + i]; },
        [&](std::size_t, std::size_t, const sim::SessionMetrics& m) {
          out.push_back(m);
        });
    first += n;
  }
  EXPECT_EQ(first, keys.size());
  return out;
}

// The same sessions replayed one at a time through the virtual player over
// materialized (and, with a fault plan, faulted) traces, read by their own
// binary search.
std::vector<sim::SessionMetrics> replay_virtual(
    const std::vector<exp::Group>& groups, const exp::AbTestConfig& cfg) {
  const media::VideoLibrary library = media::VideoLibrary::standard(5);
  const exp::Population population(cfg.population);
  net::TraceScratch scratch;
  net::FaultScratch fault_scratch;
  net::CapacityTrace trace = net::CapacityTrace::constant(1.0);
  sim::StreamingMetricsSink sink;
  std::vector<sim::SessionMetrics> out;
  for (const exp::SessionKey& key : harness_keys(cfg)) {
    const exp::UserEnvironment env = population.environment_for(key);
    const exp::SessionSpec spec = exp::session_for(library, cfg.workload, key);
    population.trace_for_into(env, key, scratch, trace);
    sim::PlayerConfig player = cfg.player;
    player.watch_duration_s = spec.watch_duration_s;
    if (population.has_faults()) {
      population.inject_faults(key, fault_scratch, trace);
      player.faults = &fault_scratch.events;
    }
    for (const exp::Group& g : groups) {
      std::unique_ptr<abr::RateAdaptation> abr = g.factory();
      sim::SessionSink& virtual_sink = sink;
      sim::simulate(library.at(spec.video_index), net::SearchSource{trace},
                    *abr, player, virtual_sink);
      out.push_back(sink.metrics());
    }
  }
  return out;
}

void expect_all_identical(const std::vector<sim::SessionMetrics>& a,
                          const std::vector<sim::SessionMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], b[i], i);
}

TEST(SimBatch, BatchSplitInvariance) {
  // Results must not depend on how keys are grouped into run() calls: one
  // block vs uneven blocks (a block of 1, a non-dividing remainder) through
  // one runner's reused scratch.
  const exp::AbTestConfig cfg = harness_config(1);
  const std::size_t n = harness_keys(cfg).size();  // 72
  expect_all_identical(run_blocks(harness_groups(), cfg, {n}),
                       run_blocks(harness_groups(), cfg, {1, 7, 16, 2, 46}));
}

TEST(SimBatch, SharedStreamKeyLanesMatchPrivateStreams) {
  // Common random numbers: every group of a key reads one lazily generated
  // stream, each further than the last. Results must equal the same
  // sessions run on private streams.
  Fixture fx;
  const std::vector<Case> cases = fx.cases(40);
  core::Bba2 abr;
  core::BbaTable policy = table_policy(abr);
  sim::StreamingMetricsSink sink;
  std::size_t shared_keys = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    if (c.env.has_outages) continue;
    ++shared_keys;
    net::TraceStream shared;
    shared.reset(c.env.trace, exp::session_rng(c.key, exp::StreamClass::kTrace));
    // Three "groups" with different watch limits on the shared stream.
    for (double watch : {60.0, 1800.0, 300.0}) {
      sim::PlayerConfig cfg = fx.config_for(c);
      cfg.watch_duration_s = watch;
      sim::simulate(fx.video(c), net::StreamCursor(shared), policy, cfg,
                    sink);
      const sim::SessionMetrics on_shared = sink.metrics();
      net::TraceStream own;
      fx.fused(c, policy, own, sink, cfg);
      expect_identical(on_shared, sink.metrics(), i);
    }
  }
  EXPECT_GT(shared_keys, 0u);
}

TEST(SimBatch, IneligibleLanesFallBackIdentically) {
  // The player's session-level branches -- give-up timers, mid-title
  // starts, the TCP model, the wall-clock cap -- run in the same fused
  // loop and must equal the virtual path with the same config.
  Fixture fx;
  const std::vector<Case> cases = fx.cases(40);
  core::Bba2 abr;
  core::BbaTable policy = table_policy(abr);
  net::TraceStream stream;
  sim::StreamingMetricsSink sink;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    sim::PlayerConfig cfg = fx.config_for(cases[i]);
    switch (i % 5) {
      case 0: cfg.give_up_stall_s = 8.0; break;
      case 1: cfg.start_chunk = 3; break;
      case 2: cfg.tcp = net::TcpModelConfig{}; break;
      case 3: cfg.max_wall_s = 200.0; break;
      case 4: break;
    }
    fx.fused(cases[i], policy, stream, sink, cfg);
    const sim::SessionMetrics fused = sink.metrics();
    expect_identical(fused, fx.reference(cases[i], abr, cfg), i);
  }
}

TEST(SimBatch, EligibilityRejectsUnsupportedConfigs) {
  // The table-driven policy answers exactly for Bba1/Bba2/BbaOthers;
  // everything else keeps the class's own choose_rate.
  EXPECT_TRUE(core::BbaTable::of(core::Bba1{}).has_value());
  EXPECT_TRUE(core::BbaTable::of(core::Bba2{}).has_value());
  EXPECT_TRUE(
      core::BbaTable::of(*exp::make_bba_others_factory()()).has_value());
  EXPECT_FALSE(core::BbaTable::of(*exp::make_control_factory()()).has_value());
  EXPECT_FALSE(core::BbaTable::of(*exp::make_bba0_factory()()).has_value());
}

TEST(SimBatch, HarnessBatchOnOffBitIdentical) {
  // The harness (fused, lazy, shared streams) at 1 and 4 threads against a
  // one-session-at-a-time virtual replay.
  const std::vector<sim::SessionMetrics> want =
      replay_virtual(harness_groups(), harness_config(1));
  const std::size_t n = harness_keys(harness_config(1)).size();
  expect_all_identical(run_blocks(harness_groups(), harness_config(1), {n}),
                       want);
  expect_all_identical(run_blocks(harness_groups(), harness_config(4), {n}),
                       want);
}

TEST(SimBatch, HarnessBatchWithFaultsBitIdentical) {
  exp::AbTestConfig cfg = harness_config(2);
  std::string err;
  ASSERT_TRUE(net::parse_fault_plan("outage:every=400,dur=20..30",
                                    &cfg.population.faults, &err))
      << err;
  const std::size_t n = harness_keys(cfg).size();
  expect_all_identical(run_blocks(harness_groups(), cfg, {n}),
                       replay_virtual(harness_groups(), cfg));
}

TEST(SimBatch, DerivedAbrRefusesProfile) {
  // The exact-dynamic-type guard: a subclass that might override behaviour
  // must not be replaced by the base class's table-driven decisions, and
  // the harness runs it through its own virtual choose_rate.
  struct TweakedBba2 : core::Bba2 {
    using core::Bba2::Bba2;
  };
  EXPECT_FALSE(core::BbaTable::of(TweakedBba2{}).has_value());

  std::vector<exp::Group> groups = harness_groups();
  groups.push_back(
      {"tweaked", [] { return std::make_unique<TweakedBba2>(); }});
  const exp::AbTestConfig cfg = harness_config(2);
  expect_all_identical(
      run_blocks(groups, cfg, {harness_keys(cfg).size()}),
      replay_virtual(groups, cfg));
}

}  // namespace
