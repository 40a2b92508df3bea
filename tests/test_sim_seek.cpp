// Tests for mid-title session starts and seek composition.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "abr/baselines.hpp"
#include "core/bba2.hpp"
#include "media/video.hpp"
#include "net/capacity_trace.hpp"
#include "sim/metrics.hpp"
#include "sim/player.hpp"
#include "util/units.hpp"

namespace bba::sim {
namespace {

using util::kbps;
using util::mbps;

media::Video cbr(std::size_t chunks = 200) {
  return media::make_cbr_video("t", media::EncodingLadder::netflix_2013(),
                               chunks, 4.0);
}

TEST(StartChunk, SessionBeginsMidTitle) {
  const media::Video video = cbr(100);
  const net::CapacityTrace trace = net::CapacityTrace::constant(mbps(10));
  abr::RMinAlways abr;
  PlayerConfig cfg;
  cfg.start_chunk = 90;
  const SessionResult r = simulate_session(video, trace, abr, cfg);
  ASSERT_EQ(r.chunks.size(), 10u);
  EXPECT_EQ(r.chunks.front().index, 90u);
  EXPECT_DOUBLE_EQ(r.chunks.front().position_s, 0.0);
  EXPECT_DOUBLE_EQ(r.chunks.back().position_s, 36.0);
  // Only the 40 s tail plays.
  EXPECT_NEAR(r.played_s, 40.0, 1e-9);
}

TEST(StartChunk, WallClockAndPositionOffsets) {
  const media::Video video = cbr(50);
  const net::CapacityTrace trace = net::CapacityTrace::constant(mbps(10));
  abr::RMinAlways abr;
  PlayerConfig cfg;
  cfg.start_chunk = 10;
  cfg.start_wall_s = 100.0;
  cfg.position_offset_s = 77.0;
  const SessionResult r = simulate_session(video, trace, abr, cfg);
  EXPECT_GE(r.chunks.front().request_s, 100.0);
  EXPECT_DOUBLE_EQ(r.chunks.front().position_s, 77.0);
  EXPECT_GE(r.join_s, 100.0);
}

TEST(Seek, SingleSeekComposesSegments) {
  const media::Video video = cbr(200);  // 800 s title
  const net::CapacityTrace trace = net::CapacityTrace::constant(mbps(10));
  abr::RMinAlways abr;
  PlayerConfig cfg;
  cfg.watch_duration_s = 200.0;
  // Watch 100 s from the top, then jump to 10 minutes in.
  const std::vector<Seek> seeks{{100.0, 600.0}};
  const SessionResult r =
      simulate_session_with_seeks(video, trace, abr, seeks, cfg);
  EXPECT_NEAR(r.played_s, 200.0, 1e-9);
  // The second segment starts at chunk 150 (600 s / 4 s).
  bool saw_jump = false;
  for (std::size_t i = 1; i < r.chunks.size(); ++i) {
    if (r.chunks[i].index == 150 && r.chunks[i - 1].index + 1 != 150) {
      saw_jump = true;
    }
    // Wall clock must be monotone across the seek.
    EXPECT_GE(r.chunks[i].request_s, r.chunks[i - 1].request_s - 1e-9);
  }
  EXPECT_TRUE(saw_jump);
}

TEST(Seek, PositionsStayContiguousAcrossSeek) {
  const media::Video video = cbr(200);
  const net::CapacityTrace trace = net::CapacityTrace::constant(mbps(10));
  abr::RMinAlways abr;
  PlayerConfig cfg;
  cfg.watch_duration_s = 160.0;
  const std::vector<Seek> seeks{{80.0, 400.0}};
  const SessionResult r =
      simulate_session_with_seeks(video, trace, abr, seeks, cfg);
  // Within each segment position_s increases by V per chunk; chunks
  // downloaded past the seek point are marked never-played (+inf).
  for (std::size_t i = 1; i < r.chunks.size(); ++i) {
    const double prev = r.chunks[i - 1].position_s;
    const double cur = r.chunks[i].position_s;
    if (std::isfinite(prev) && std::isfinite(cur) && cur > prev) {
      EXPECT_NEAR(cur - prev, 4.0, 1e-9);
    }
  }
  // Played positions cover [0, 160) exactly once despite the seek.
  double finite_weight = 0.0;
  for (const auto& c : r.chunks) {
    if (std::isfinite(c.position_s) && c.position_s < r.played_s) {
      finite_weight += std::min(4.0, r.played_s - c.position_s);
    }
  }
  EXPECT_NEAR(finite_weight, 160.0, 4.0);
  const SessionMetrics m = compute_metrics(r);
  EXPECT_NEAR(m.avg_rate_bps, kbps(235), 1.0);  // R_min everywhere
}

TEST(Seek, MultipleSeeks) {
  const media::Video video = cbr(300);
  const net::CapacityTrace trace = net::CapacityTrace::constant(mbps(10));
  abr::RMinAlways abr;
  PlayerConfig cfg;
  cfg.watch_duration_s = 120.0;
  const std::vector<Seek> seeks{{40.0, 600.0}, {80.0, 200.0}};
  const SessionResult r =
      simulate_session_with_seeks(video, trace, abr, seeks, cfg);
  EXPECT_NEAR(r.played_s, 120.0, 1e-9);
  // Three segments: from 0, from chunk 150, from chunk 50.
  std::vector<std::size_t> first_indices;
  std::size_t prev_index = 1000000;
  for (const auto& c : r.chunks) {
    if (c.index != prev_index + 1) first_indices.push_back(c.index);
    prev_index = c.index;
  }
  ASSERT_EQ(first_indices.size(), 3u);
  EXPECT_EQ(first_indices[0], 0u);
  EXPECT_EQ(first_indices[1], 150u);
  EXPECT_EQ(first_indices[2], 50u);
}

TEST(Seek, SeekNearVideoEndClamps) {
  const media::Video video = cbr(100);  // 400 s
  const net::CapacityTrace trace = net::CapacityTrace::constant(mbps(10));
  abr::RMinAlways abr;
  PlayerConfig cfg;
  const std::vector<Seek> seeks{{20.0, 5000.0}};  // way past the end
  const SessionResult r =
      simulate_session_with_seeks(video, trace, abr, seeks, cfg);
  // Lands on the last chunk and plays it out.
  EXPECT_NEAR(r.played_s, 24.0, 1e-9);  // 20 s + the final 4 s chunk
}

std::vector<std::size_t> segment_starts(const SessionResult& r) {
  std::vector<std::size_t> starts;
  std::size_t prev_index = 1000000;
  for (const auto& c : r.chunks) {
    if (c.index != prev_index + 1) starts.push_back(c.index);
    prev_index = c.index;
  }
  return starts;
}

TEST(Seek, SegmentThatRunsOutOfTitleEndsTheViewing) {
  // 200 s title. After 40 s the viewer jumps to 190 s: that segment plays
  // the last 12 s and runs out of title at 52 s watched, which ends the
  // viewing. The seeks at 150 s and 300 s watched are never reached, even
  // though the watch limit (100 s) is not used up.
  const media::Video video = cbr(50);
  const net::CapacityTrace trace = net::CapacityTrace::constant(mbps(10));
  PlayerConfig cfg;
  cfg.watch_duration_s = 100.0;
  for (const std::vector<Seek>& seeks :
       {std::vector<Seek>{{40.0, 190.0}, {150.0, 0.0}, {300.0, 0.0}},
        std::vector<Seek>{{40.0, 190.0}, {150.0, 0.0}}}) {
    abr::RMinAlways abr;
    const SessionResult r =
        simulate_session_with_seeks(video, trace, abr, seeks, cfg);
    EXPECT_NEAR(r.played_s, 52.0, 1e-9);
    EXPECT_EQ(segment_starts(r), (std::vector<std::size_t>{0, 47}));
  }
}

TEST(SeekDeathTest, UnorderedSeeksAbort) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const media::Video video = cbr(300);
  const net::CapacityTrace trace = net::CapacityTrace::constant(mbps(10));
  abr::RMinAlways abr;
  PlayerConfig cfg;
  cfg.watch_duration_s = 120.0;
  const std::vector<Seek> seeks{{80.0, 200.0}, {40.0, 600.0}};
  EXPECT_DEATH(simulate_session_with_seeks(video, trace, abr, seeks, cfg),
               "ordered");
}

TEST(Seek, Bba2RestartsItsStartupRampAfterSeek) {
  // After a seek the ABR is reset: BBA-2 re-enters the startup phase and
  // begins at R_min again even though it had reached a high rate.
  const media::Video video = cbr(400);
  const net::CapacityTrace trace = net::CapacityTrace::constant(mbps(6));
  core::Bba2 abr;
  PlayerConfig cfg;
  cfg.watch_duration_s = 400.0;
  const std::vector<Seek> seeks{{200.0, 1200.0}};
  const SessionResult r =
      simulate_session_with_seeks(video, trace, abr, seeks, cfg);
  // Find the first chunk of the second segment (index 300).
  const ChunkRecord* first_after_seek = nullptr;
  for (const auto& c : r.chunks) {
    if (c.index == 300) {
      first_after_seek = &c;
      break;
    }
  }
  ASSERT_NE(first_after_seek, nullptr);
  EXPECT_EQ(first_after_seek->rate_index, 0u);
}

TEST(Seek, NoSeeksEqualsPlainSession) {
  const media::Video video = cbr(100);
  const net::CapacityTrace trace = net::CapacityTrace::constant(mbps(5));
  abr::RMinAlways a1;
  abr::RMinAlways a2;
  PlayerConfig cfg;
  cfg.watch_duration_s = 150.0;
  const SessionResult plain = simulate_session(video, trace, a1, cfg);
  const SessionResult composed =
      simulate_session_with_seeks(video, trace, a2, {}, cfg);
  ASSERT_EQ(plain.chunks.size(), composed.chunks.size());
  EXPECT_DOUBLE_EQ(plain.played_s, composed.played_s);
  EXPECT_DOUBLE_EQ(plain.wall_s, composed.wall_s);
  for (std::size_t i = 0; i < plain.chunks.size(); ++i) {
    EXPECT_DOUBLE_EQ(plain.chunks[i].finish_s, composed.chunks[i].finish_s);
  }
}

}  // namespace
}  // namespace bba::sim
