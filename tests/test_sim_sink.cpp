// SessionSink equivalence: the streaming metrics sink must be
// bit-identical to compute_metrics over a full recording, for the same
// session, across the whole behaviour space (stalls, abandons, give-up,
// outages, TCP model, short sessions with no steady state). This is the
// invariant that lets the A/B harness drop per-chunk recording.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "abr/baselines.hpp"
#include "abr/control.hpp"
#include "core/bba0.hpp"
#include "core/bba2.hpp"
#include "exp/population.hpp"
#include "exp/session_key.hpp"
#include "media/video.hpp"
#include "net/capacity_trace.hpp"
#include "net/trace_gen.hpp"
#include "sim/metrics.hpp"
#include "sim/player.hpp"
#include "sim/session_sink.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace bba::sim {
namespace {

using util::kbps;
using util::mbps;

media::Video small_cbr_video(std::size_t chunks = 100) {
  return media::make_cbr_video("t", media::EncodingLadder::netflix_2013(),
                               chunks, 4.0);
}

// Bitwise comparison of every SessionMetrics field (EXPECT_EQ on doubles
// is exact equality, which is the contract).
void expect_identical(const SessionMetrics& streamed,
                      const SessionMetrics& computed) {
  EXPECT_EQ(streamed.play_s, computed.play_s);
  EXPECT_EQ(streamed.join_s, computed.join_s);
  EXPECT_EQ(streamed.rebuffer_count, computed.rebuffer_count);
  EXPECT_EQ(streamed.rebuffer_s, computed.rebuffer_s);
  EXPECT_EQ(streamed.rebuffers_per_hour, computed.rebuffers_per_hour);
  EXPECT_EQ(streamed.avg_rate_bps, computed.avg_rate_bps);
  EXPECT_EQ(streamed.startup_rate_bps, computed.startup_rate_bps);
  EXPECT_EQ(streamed.steady_rate_bps, computed.steady_rate_bps);
  EXPECT_EQ(streamed.has_steady, computed.has_steady);
  EXPECT_EQ(streamed.steady_play_s, computed.steady_play_s);
  EXPECT_EQ(streamed.switch_count, computed.switch_count);
  EXPECT_EQ(streamed.switches_per_hour, computed.switches_per_hour);
  EXPECT_EQ(streamed.avg_buffer_s, computed.avg_buffer_s);
  EXPECT_EQ(streamed.abandoned, computed.abandoned);
}

// Runs the session twice -- recorded and streamed -- and compares.
void check_session(const media::Video& video, const net::CapacityTrace& trace,
                   abr::RateAdaptation& recorded_abr,
                   abr::RateAdaptation& streamed_abr,
                   const PlayerConfig& config,
                   StreamingMetricsSink& streaming) {
  const SessionResult recorded =
      simulate_session(video, trace, recorded_abr, config);
  const SessionMetrics computed = compute_metrics(recorded);
  simulate_session(video, trace, streamed_abr, config, streaming);
  expect_identical(streaming.metrics(), computed);
}

TEST(StreamingSink, ConstantLinkSession) {
  const media::Video video = small_cbr_video(100);
  const net::CapacityTrace trace = net::CapacityTrace::constant(mbps(3));
  core::Bba0 a, b;
  StreamingMetricsSink sink;
  check_session(video, trace, a, b, PlayerConfig{}, sink);
}

TEST(StreamingSink, ShortSessionWithoutSteadyState) {
  const media::Video video = small_cbr_video(100);
  const net::CapacityTrace trace = net::CapacityTrace::constant(mbps(3));
  PlayerConfig config;
  config.watch_duration_s = 60.0;  // ends inside the startup window
  core::Bba0 a, b;
  StreamingMetricsSink sink;
  check_session(video, trace, a, b, config, sink);
}

TEST(StreamingSink, StallingSessionWithOutages) {
  const media::Video video = small_cbr_video(150);
  const net::CapacityTrace trace(
      {{30.0, kbps(900)}, {25.0, 0.0}, {60.0, mbps(2)}});
  core::Bba2 a, b;
  StreamingMetricsSink sink;
  check_session(video, trace, a, b, PlayerConfig{}, sink);
}

TEST(StreamingSink, GiveUpMidStall) {
  const media::Video video = small_cbr_video(150);
  const net::CapacityTrace trace({{20.0, mbps(2)}, {300.0, 0.0}});
  PlayerConfig config;
  config.give_up_stall_s = 30.0;  // the early-return path
  core::Bba0 a, b;
  StreamingMetricsSink sink;
  check_session(video, trace, a, b, config, sink);
}

TEST(StreamingSink, DeadLinkAbandon) {
  const media::Video video = small_cbr_video(50);
  const net::CapacityTrace trace({{10.0, mbps(2)}, {10.0, 0.0}},
                                 /*loop=*/false);
  core::Bba0 a, b;
  StreamingMetricsSink sink;
  check_session(video, trace, a, b, PlayerConfig{}, sink);
}

TEST(StreamingSink, TcpModelSession) {
  const media::Video video = small_cbr_video(120);
  const net::CapacityTrace trace(
      {{40.0, mbps(4)}, {20.0, kbps(700)}, {40.0, mbps(2)}});
  PlayerConfig config;
  config.tcp = net::TcpModelConfig{};
  abr::ControlAbr a, b;
  StreamingMetricsSink sink;
  check_session(video, trace, a, b, config, sink);
}

TEST(StreamingSink, ReusedSinkMatchesAcrossPopulationSessions) {
  // The harness pattern: one sink (and one reused ABR via reset()) across
  // many population-drawn sessions, against fresh recording each time.
  const media::VideoLibrary library = media::VideoLibrary::standard(7);
  const exp::Population population;
  StreamingMetricsSink sink;
  core::Bba2 reused;
  for (std::size_t user = 0; user < 40; ++user) {
    const exp::SessionKey key{2014, user % 3, user % exp::kWindowsPerDay,
                              user};
    const exp::UserEnvironment env = population.environment_for(key);
    const net::CapacityTrace trace = population.trace_for(env, key);
    const media::Video& video = library.at(user % library.size());
    PlayerConfig config;
    config.watch_duration_s = 30.0 + 40.0 * static_cast<double>(user % 11);
    core::Bba2 fresh;
    check_session(video, trace, fresh, reused, config, sink);
  }
}

TEST(StreamingSink, ReusedSinkMatchesRecordingAcrossLongShortLong) {
  // The sink's chunk buffer keeps its capacity across sessions: a short
  // session after a long one must not see the long one's chunks, and a
  // long one after a short one must fold all of its own. Each session is
  // compared with compute_metrics over a RecordingSink of the same run.
  const media::Video video = small_cbr_video(150);
  const net::CapacityTrace stalling(
      {{20.0, mbps(3)}, {60.0, 0.0}, {60.0, mbps(2)}});
  const net::CapacityTrace dying({{20.0, mbps(2)}, {300.0, 0.0}});

  PlayerConfig long_stalling;  // whole title, stalls in the outages
  PlayerConfig short_give_up;  // walks out mid-stall
  short_give_up.give_up_stall_s = 30.0;
  PlayerConfig long_seek_start;  // starts mid-title after a seek
  long_seek_start.start_chunk = 40;
  long_seek_start.position_offset_s = 160.0;

  struct Case {
    const net::CapacityTrace* trace;
    const PlayerConfig* config;
  };
  StreamingMetricsSink sink;
  SessionResult recorded;
  RecordingSink recording(&recorded);
  for (const Case& c : {Case{&stalling, &long_stalling},
                        Case{&dying, &short_give_up},
                        Case{&stalling, &long_seek_start}}) {
    core::Bba2 a, b;
    simulate_session(video, *c.trace, a, *c.config, recording);
    simulate_session(video, *c.trace, b, *c.config, sink);
    expect_identical(sink.metrics(), compute_metrics(recorded));
  }
  // The cases cover what they claim.
  core::Bba2 abr;
  EXPECT_GT(simulate_session(video, stalling, abr, long_stalling)
                .rebuffers.size(),
            0u);
  EXPECT_TRUE(
      simulate_session(video, dying, abr, short_give_up).abandoned);
}

TEST(StreamingSink, CursorOffMatchesCursorOnBitForBit) {
  // The use_trace_cursor escape hatch (benchmark baseline) must change
  // nothing but the lookup cost, with and without the TCP model.
  const media::VideoLibrary library = media::VideoLibrary::standard(3);
  const exp::Population population;
  for (std::size_t user = 0; user < 12; ++user) {
    const exp::SessionKey key{7, 0, user % exp::kWindowsPerDay, user};
    const net::CapacityTrace trace =
        population.trace_for(population.environment_for(key), key);
    const media::Video& video = library.at(user % library.size());
    PlayerConfig with_cursor;
    with_cursor.watch_duration_s = 600.0;
    if (user % 2 == 1) with_cursor.tcp = net::TcpModelConfig{};
    PlayerConfig without_cursor = with_cursor;
    without_cursor.use_trace_cursor = false;
    core::Bba2 a, b;
    const SessionMetrics on =
        compute_metrics(simulate_session(video, trace, a, with_cursor));
    const SessionMetrics off =
        compute_metrics(simulate_session(video, trace, b, without_cursor));
    expect_identical(on, off);
  }
}

TEST(RecordingSink, ReusedTargetMatchesFreshRun) {
  const media::Video video = small_cbr_video(100);
  const net::CapacityTrace a_trace = net::CapacityTrace::constant(mbps(3));
  const net::CapacityTrace b_trace(
      {{30.0, kbps(900)}, {25.0, 0.0}, {60.0, mbps(2)}});

  SessionResult reused;
  RecordingSink sink(&reused);
  for (const net::CapacityTrace* trace : {&a_trace, &b_trace, &a_trace}) {
    core::Bba0 abr_a, abr_b;
    const SessionResult fresh = simulate_session(video, *trace, abr_a);
    simulate_session(video, *trace, abr_b, PlayerConfig{}, sink);
    ASSERT_EQ(reused.chunks.size(), fresh.chunks.size());
    for (std::size_t i = 0; i < fresh.chunks.size(); ++i) {
      EXPECT_EQ(reused.chunks[i].finish_s, fresh.chunks[i].finish_s);
      EXPECT_EQ(reused.chunks[i].rate_index, fresh.chunks[i].rate_index);
      EXPECT_EQ(reused.chunks[i].buffer_after_s,
                fresh.chunks[i].buffer_after_s);
    }
    ASSERT_EQ(reused.rebuffers.size(), fresh.rebuffers.size());
    EXPECT_EQ(reused.played_s, fresh.played_s);
    EXPECT_EQ(reused.wall_s, fresh.wall_s);
    EXPECT_EQ(reused.join_s, fresh.join_s);
    EXPECT_EQ(reused.started, fresh.started);
    EXPECT_EQ(reused.abandoned, fresh.abandoned);
  }
}

}  // namespace
}  // namespace bba::sim
