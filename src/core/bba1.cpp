#include "core/bba1.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace bba::core {

namespace {

// Chunk k's decision inputs read from the ChunkTable: the reservoir
// lookahead goes through the window-sum memo, one lookup per decision.
struct ChunkTableRow {
  const media::Video& video;
  std::size_t k;
  const ReservoirConfig& reservoir;

  double raw_reservoir_s() const {
    const media::EncodingLadder& ladder = video.ladder();
    return core::raw_reservoir_s(video.chunks(), ladder.min_index(),
                                 ladder.rmin_bps(), k, reservoir.lookahead_s,
                                 reservoir.cache_window_sums);
  }
  double size_bits(std::size_t i) const {
    return video.chunks().size_bits(i, k);
  }
  std::size_t num_rates() const { return video.ladder().size(); }
  double chunk_min_mean() const {
    return video.chunks().mean_size_bits(video.ladder().min_index());
  }
  double chunk_max_mean() const {
    return video.chunks().mean_size_bits(video.ladder().max_index());
  }
  double chunk_duration_s() const { return video.chunk_duration_s(); }
};

BbaDecision::Params bba1_params(const Bba1Config& cfg) {
  BbaDecision::Params p;
  p.base = cfg;
  return p;
}

}  // namespace

BbaDecision::BbaDecision(const Params& params) : p_(params) {
  BBA_ASSERT(p_.base.upper_knee_fraction > 0.0 &&
                 p_.base.upper_knee_fraction <= 1.0,
             "upper knee fraction must be in (0, 1]");
  BBA_ASSERT(p_.base.min_cushion_s > 0.0, "min cushion must be > 0");
  BBA_ASSERT(p_.base.reservoir.min_s <= p_.base.reservoir.max_s,
             "reservoir bounds inverted");
  reset();
}

std::size_t BbaDecision::lookahead_chunks(double buffer_s,
                                          double chunk_duration_s,
                                          std::size_t max_lookahead_chunks) {
  BBA_ASSERT(chunk_duration_s > 0.0, "chunk duration must be > 0");
  // "We look ahead the same number of chunks as what we have in the buffer"
  // -- at least the next chunk, at most max_lookahead_chunks.
  const auto buffered =
      static_cast<std::size_t>(buffer_s / chunk_duration_s);
  return std::clamp<std::size_t>(buffered, 1, max_lookahead_chunks);
}

std::size_t BbaDecision::smooth_up_switch(const abr::Observation& obs,
                                          std::size_t max_lookahead_chunks,
                                          std::size_t candidate,
                                          std::size_t prev, double map_bits) {
  const auto& chunks = obs.video->chunks();
  const auto& ladder = obs.video->ladder();
  const std::size_t window = lookahead_chunks(
      obs.buffer_s, chunks.chunk_duration_s(), max_lookahead_chunks);
  // Hold an up-switch that would soon be undone: after moving to rate r,
  // the map triggers a step-down when its allowable size falls to the size
  // of an upcoming chunk at the next-lower rate. Accept the highest rate
  // (up to the candidate) whose lookahead window stays clear of that
  // down-barrier; otherwise hold the current rate. Only increases are
  // smoothed ("it does not smooth decreases so as to avoid increasing the
  // likelihood of rebuffering").
  for (std::size_t r = candidate; r > prev; --r) {
    if (chunks.max_size_in_window_bits(ladder.down(r), obs.chunk_index,
                                       window) < map_bits) {
      return r;
    }
  }
  return prev;
}

Bba1::Bba1(Bba1Config cfg) : Bba1(bba1_params(cfg)) {}

Bba1::Bba1(const BbaDecision::Params& params) : decision_(params) {}

std::size_t Bba1::choose_rate(const abr::Observation& obs) {
  BBA_ASSERT(obs.video != nullptr, "observation must carry the video");
  return decision_.decide(
      obs, ChunkTableRow{*obs.video, obs.chunk_index,
                         decision_.params().base.reservoir});
}

}  // namespace bba::core
