// Property sweeps: structural invariants of the player that must hold for
// EVERY algorithm on EVERY trace -- randomized over seeds, checked for all
// algorithms in the library. The second suite randomizes the player's whole
// input space (ladders, VBR tables, traces with outages, buffer geometries,
// watch limits, give-up timers) and checks that every instantiation of the
// player template -- virtual or exact-type policy, recording or streaming
// sink, materialized or lazily generated trace -- produces the same
// session.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <tuple>

#include "abr/baselines.hpp"
#include "abr/bola.hpp"
#include "abr/control.hpp"
#include "abr/related_work.hpp"
#include "core/bba0.hpp"
#include "core/bba1.hpp"
#include "core/bba2.hpp"
#include "core/bba_others.hpp"
#include "core/bba_table.hpp"
#include "exp/population.hpp"
#include "exp/workload.hpp"
#include "media/decision_table.hpp"
#include "media/vbr.hpp"
#include "media/video.hpp"
#include "net/search_source.hpp"
#include "net/trace_gen.hpp"
#include "net/trace_stream.hpp"
#include "sim/metrics.hpp"
#include "sim/player.hpp"
#include "sim/session_sink.hpp"
#include "sim/simulate.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace bba {
namespace {

std::unique_ptr<abr::RateAdaptation> make(const std::string& name) {
  if (name == "bba0") return std::make_unique<core::Bba0>();
  if (name == "bba1") return std::make_unique<core::Bba1>();
  if (name == "bba2") return std::make_unique<core::Bba2>();
  if (name == "bba_others") return std::make_unique<core::BbaOthers>();
  if (name == "control") return std::make_unique<abr::ControlAbr>();
  if (name == "pid") return std::make_unique<abr::PidAbr>();
  if (name == "elastic") return std::make_unique<abr::ElasticAbr>();
  if (name == "rmax") return std::make_unique<abr::RMaxAlways>();
  return std::make_unique<abr::RMinAlways>();
}

class PlayerInvariants
    : public testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(PlayerInvariants, HoldOnRandomizedSessions) {
  const auto [name, seed] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed) * 977 + 13);

  // A random environment drawn from the experiment population, plus a
  // random title (VBR or CBR).
  const exp::Population population;
  const std::size_t window = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(exp::kWindowsPerDay) - 1));
  const exp::UserEnvironment env = population.sample_environment(window, rng);
  const net::CapacityTrace trace = population.make_trace(env, rng);
  const media::VideoLibrary lib = media::VideoLibrary::standard(11);
  const media::Video& video = lib.pick(rng);

  sim::PlayerConfig cfg;
  cfg.watch_duration_s = rng.uniform(180.0, 2400.0);
  cfg.max_wall_s = 4.0 * 3600.0;  // generous dead-network guard

  auto algorithm = make(name);
  const sim::SessionResult r =
      sim::simulate_session(video, trace, *algorithm, cfg);

  const double V = video.chunk_duration_s();
  const double watch_limit =
      std::min(cfg.watch_duration_s, video.duration_s());

  // Play accounting.
  EXPECT_LE(r.played_s, watch_limit + 1e-6);
  if (!r.abandoned) {
    EXPECT_NEAR(r.played_s, watch_limit, 1e-6);
  }
  EXPECT_GE(r.wall_s, r.played_s - 1e-6);

  // Chunk log invariants.
  double prev_finish = 0.0;
  std::size_t prev_index = 0;
  bool first = true;
  for (const auto& c : r.chunks) {
    EXPECT_LT(c.rate_index, video.ladder().size());
    EXPECT_DOUBLE_EQ(c.rate_bps, video.ladder().rate_bps(c.rate_index));
    EXPECT_DOUBLE_EQ(c.size_bits,
                     video.chunks().size_bits(c.rate_index, c.index));
    EXPECT_GT(c.download_s, 0.0);
    EXPECT_NEAR(c.finish_s - c.request_s, c.download_s, 1e-9);
    EXPECT_GT(c.throughput_bps, 0.0);
    EXPECT_GE(c.buffer_after_s, 0.0);
    EXPECT_LE(c.buffer_after_s, cfg.buffer_capacity_s + 1e-9);
    EXPECT_GE(c.off_wait_s, 0.0);
    if (!first) {
      EXPECT_EQ(c.index, prev_index + 1);       // sequential, no skips
      EXPECT_GE(c.request_s, prev_finish - 1e-9);  // no overlap
    }
    prev_finish = c.finish_s;
    prev_index = c.index;
    first = false;
  }

  // Rebuffer invariants.
  double total_stall = 0.0;
  for (const auto& rb : r.rebuffers) {
    EXPECT_GT(rb.duration_s, -1e-9);
    EXPECT_GE(rb.start_s, r.join_s - 1e-9);  // no stalls before playback
    EXPECT_LE(rb.start_s + rb.duration_s, r.wall_s + 1e-6);
    total_stall += rb.duration_s;
  }
  // Wall = join + played + stalls + trailing idle; at minimum:
  EXPECT_GE(r.wall_s + 1e-6, r.join_s + r.played_s * 0.0 + total_stall);

  // Metrics are finite and self-consistent.
  const sim::SessionMetrics m = sim::compute_metrics(r);
  EXPECT_TRUE(std::isfinite(m.avg_rate_bps));
  if (m.play_s > 0.0 && !r.chunks.empty()) {
    EXPECT_GE(m.avg_rate_bps, video.ladder().rmin_bps() - 1e-6);
    EXPECT_LE(m.avg_rate_bps, video.ladder().rmax_bps() + 1e-6);
  }
  EXPECT_EQ(m.rebuffer_count,
            static_cast<long long>(r.rebuffers.size()));
  EXPECT_LE(m.switch_count,
            static_cast<long long>(r.chunks.empty() ? 0
                                                    : r.chunks.size() - 1));
  (void)V;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, PlayerInvariants,
    testing::Combine(testing::Values("bba0", "bba1", "bba2", "bba_others",
                                     "control", "pid", "elastic", "rmin",
                                     "rmax"),
                     testing::Range(0, 6)),
    [](const testing::TestParamInfo<PlayerInvariants::ParamType>& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// --- Randomized input space, every player instantiation -------------------

bool same_bits(const sim::SessionMetrics& a, const sim::SessionMetrics& b) {
  auto eq = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  return eq(a.play_s, b.play_s) && eq(a.join_s, b.join_s) &&
         a.rebuffer_count == b.rebuffer_count &&
         eq(a.rebuffer_s, b.rebuffer_s) &&
         eq(a.rebuffers_per_hour, b.rebuffers_per_hour) &&
         a.fault_stall_count == b.fault_stall_count &&
         eq(a.avg_rate_bps, b.avg_rate_bps) &&
         eq(a.startup_rate_bps, b.startup_rate_bps) &&
         eq(a.steady_rate_bps, b.steady_rate_bps) &&
         a.has_steady == b.has_steady &&
         eq(a.steady_play_s, b.steady_play_s) &&
         a.switch_count == b.switch_count &&
         eq(a.switches_per_hour, b.switches_per_hour) &&
         eq(a.avg_buffer_s, b.avg_buffer_s) && a.abandoned == b.abandoned;
}

/// Forwards to an ABR and records the extremes of the buffer it observed.
class BufferProbe final : public abr::RateAdaptation {
 public:
  explicit BufferProbe(abr::RateAdaptation& inner) : inner_(&inner) {}
  std::size_t choose_rate(const abr::Observation& obs) override {
    lo = std::min(lo, obs.buffer_s);
    hi = std::max(hi, obs.buffer_s);
    return inner_->choose_rate(obs);
  }
  void reset() override { inner_->reset(); }
  std::string name() const override { return inner_->name(); }

  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();

 private:
  abr::RateAdaptation* inner_;
};

/// One random draw of the player's input space.
struct RandomSession {
  media::Video video;
  net::MarkovTraceConfig markov;
  util::Rng trace_rng{0};
  bool outages = false;
  net::CapacityTrace trace = net::CapacityTrace::constant(1.0);
  sim::PlayerConfig cfg;

  static RandomSession draw(std::uint64_t seed) {
    util::Rng rng(seed * 7919 + 17);
    // Ladder: 2..12 increasing rates between 100 kb/s and 12 Mb/s.
    const auto n_rates = static_cast<std::size_t>(rng.uniform_int(2, 12));
    std::vector<double> rates;
    double rate = rng.uniform(100e3, 600e3);
    for (std::size_t i = 0; i < n_rates; ++i) {
      rates.push_back(rate);
      rate *= rng.uniform(1.15, 2.0);
    }
    const media::EncodingLadder ladder(rates);
    const double V = rng.uniform(1.0, 8.0);
    const auto chunks = static_cast<std::size_t>(rng.uniform_int(20, 900));
    RandomSession s{rng.bernoulli(0.2)
                        ? media::make_cbr_video("cbr", ladder, chunks, V)
                        : media::make_vbr_video("vbr", ladder, chunks, V,
                                                media::VbrConfig{}, rng)};
    s.markov.median_bps = rates[rng.uniform_int(0, n_rates - 1)] *
                          rng.uniform(0.5, 3.0);
    s.markov.sigma_log = rng.uniform(0.1, 1.2);
    s.markov.mean_dwell_s = rng.uniform(2.0, 40.0);
    s.markov.duration_s = rng.uniform(60.0, 3000.0);
    s.trace_rng = util::Rng(rng.next_u64());
    util::Rng gen = s.trace_rng;
    s.trace = net::make_markov_trace(s.markov, gen);
    s.outages = rng.bernoulli(0.3);
    if (s.outages) {
      net::OutageConfig outages;
      outages.mean_interval_s = rng.uniform(60.0, 400.0);
      outages.min_outage_s = rng.uniform(2.0, 20.0);
      outages.max_outage_s = outages.min_outage_s + rng.uniform(0.0, 30.0);
      s.trace = net::with_outages(s.trace, outages, rng);
    }
    // Buffer geometry: capacity from 100 s (the smallest that leaves the
    // BBA chunk map its minimum cushion) to 300 s, thresholds inside.
    s.cfg.buffer_capacity_s = rng.uniform(100.0, 300.0);
    s.cfg.play_threshold_s = rng.uniform(0.5, s.cfg.buffer_capacity_s);
    s.cfg.resume_threshold_s = rng.uniform(0.5, s.cfg.buffer_capacity_s);
    s.cfg.watch_duration_s = rng.uniform(0.0, 1.3 * V * chunks);
    if (rng.bernoulli(0.3)) s.cfg.give_up_stall_s = rng.uniform(1.0, 60.0);
    if (rng.bernoulli(0.2)) s.cfg.max_wall_s = rng.uniform(30.0, 4000.0);
    return s;
  }

 private:
  explicit RandomSession(media::Video v) : video(std::move(v)) {}
};

std::unique_ptr<abr::RateAdaptation> make_group(int group) {
  switch (group) {
    case 0: return std::make_unique<abr::ControlAbr>();
    case 1: return std::make_unique<abr::RMinAlways>();
    case 2: return std::make_unique<core::Bba0>();
    case 3: return std::make_unique<core::Bba1>();
    case 4: return std::make_unique<core::Bba2>();
    case 5: return std::make_unique<core::BbaOthers>();
    default: return std::make_unique<abr::BolaAbr>();
  }
}

// The exact-type instantiation the A/B harness would pick for `abr`.
template <class Source>
sim::SessionMetrics fused(abr::RateAdaptation& abr, const RandomSession& s,
                          Source src, media::DecisionTableCache& tables) {
  sim::StreamingMetricsSink sink;
  if (std::optional<core::BbaTable> table = core::BbaTable::of(abr, tables)) {
    sim::simulate(s.video, src, *table, s.cfg, sink);
  } else if (auto* control = dynamic_cast<abr::ControlAbr*>(&abr)) {
    sim::simulate(s.video, src, *control, s.cfg, sink);
  } else if (auto* others = dynamic_cast<core::BbaOthers*>(&abr)) {
    sim::simulate(s.video, src, *others, s.cfg, sink);
  } else {
    sim::simulate(s.video, src, abr, s.cfg, sink);
  }
  return sink.metrics();
}

class PlayerProperties : public testing::TestWithParam<int> {};

TEST_P(PlayerProperties, InvariantsAndInstantiationsAgree) {
  for (int trial = 0; trial < 6; ++trial) {
    const std::uint64_t seed =
        static_cast<std::uint64_t>(GetParam()) * 100 + trial;
    const RandomSession s = RandomSession::draw(seed);
    const double cap = s.cfg.buffer_capacity_s;
    const double watch_limit =
        std::min(s.cfg.watch_duration_s, s.video.duration_s());
    for (int group = 0; group < 7; ++group) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " group " << group);
      std::unique_ptr<abr::RateAdaptation> abr = make_group(group);

      // The reference: recording sink + compute_metrics over the trace's
      // own binary search, with the observed buffer probed.
      BufferProbe probe(*abr);
      sim::SessionResult r;
      sim::RecordingSink recording(&r);
      abr::RateAdaptation& probed = probe;
      sim::simulate(s.video, net::SearchSource{s.trace}, probed, s.cfg,
                    recording);
      // The ON-OFF wait drains exactly the overshoot, so a full buffer
      // lands on cap up to the rounding of buffer - (buffer + V - cap) + V.
      const double cap_ulps = cap * (1.0 + 1e-12);
      EXPECT_GE(probe.lo, 0.0);
      EXPECT_LE(probe.hi, cap_ulps);
      for (const sim::ChunkRecord& c : r.chunks) {
        EXPECT_GE(c.buffer_after_s, 0.0);
        EXPECT_LE(c.buffer_after_s, cap_ulps);
      }
      EXPECT_LE(r.played_s, watch_limit);
      double stalls = 0.0;
      for (const sim::RebufferEvent& e : r.rebuffers) {
        EXPECT_GE(e.duration_s, 0.0);
        stalls += e.duration_s;
      }
      const sim::SessionMetrics recorded = sim::compute_metrics(r);
      EXPECT_EQ(recorded.rebuffer_s, stalls);  // summed in event order
      EXPECT_EQ(recorded.rebuffer_count,
                static_cast<long long>(r.rebuffers.size()));

      // Sink and reader invariance: the public player's streaming fold over
      // its StreamCursor equals the recorded metrics.
      sim::StreamingMetricsSink streaming;
      sim::simulate_session(s.video, s.trace, *abr, s.cfg, streaming);
      EXPECT_TRUE(same_bits(recorded, streaming.metrics()));

      // Source and dispatch invariance: exact-type or table-driven policy
      // over the materialized looping trace assigned to a stream, and --
      // for outage-free traces, which the harness never materializes --
      // over the lazy stream.
      media::DecisionTableCache tables;
      net::TraceStream stream;
      stream.assign(s.trace);
      EXPECT_TRUE(same_bits(
          recorded, fused(*abr, s, net::StreamCursor(stream), tables)));
      EXPECT_TRUE(same_bits(
          recorded, fused(*abr, s, net::SearchSource{s.trace}, tables)));
      if (!s.outages) {
        stream.reset(s.markov, s.trace_rng);
        EXPECT_TRUE(same_bits(
            recorded, fused(*abr, s, net::StreamCursor(stream), tables)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Randomized, PlayerProperties, testing::Range(0, 12));

}  // namespace
}  // namespace bba
