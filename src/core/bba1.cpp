#include "core/bba1.hpp"

#include <algorithm>

#include "core/bba_table.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace bba::core {

namespace {

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
  BBA_ASSERT(obs.chunk_index < obs.video->num_chunks(),
             "chunk index out of range");
  bool built = false;
  if (obs.video != video_) {
    table_ = BbaTable::table_for(
        *obs.video, decision_.params().base.reservoir.lookahead_s, &built);
    video_ = obs.video;
  }
  if (!built) obs::count(obs::Counter::kReservoirMemoHits);
  return decision_.decide(obs, BbaTable::Row{table_, obs.chunk_index});
}

}  // namespace bba::core
