#include "abr/bola.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace bba::abr {

BolaAbr::BolaAbr(BolaConfig cfg) : cfg_(cfg) {
  BBA_ASSERT(cfg_.min_threshold_s > 0.0 &&
                 cfg_.max_threshold_s > cfg_.min_threshold_s,
             "BOLA thresholds must satisfy 0 < min < max");
}

void BolaAbr::prepare(const media::Video& video) const {
  const auto& chunks = video.chunks();
  const std::size_t n = video.ladder().size();
  // Each term is the expression the per-call objective used to evaluate,
  // in the same order, so decisions are bit-identical.
  auto utility = [&](std::size_t m) {
    return 1.0 + std::log(chunks.mean_size_bits(m) / chunks.mean_size_bits(0));
  };
  const double u_top = utility(video.ladder().max_index());
  // dash.js parameterization: gp fixes the spread of the per-rendition
  // buffer bands; Vp scales them so the lowest band starts at the minimum
  // threshold.
  const double gp =
      u_top > 1.0
          ? (u_top - 1.0) /
                (cfg_.max_threshold_s / cfg_.min_threshold_s - 1.0)
          : 1.0;
  const double vp = cfg_.min_threshold_s / gp;
  numerator_.resize(n);
  size_.resize(n);
  for (std::size_t m = 0; m < n; ++m) {
    numerator_[m] = vp * (utility(m) + gp);
    size_[m] = chunks.mean_size_bits(m);
  }
  prepared_for_ = &video;
}

double BolaAbr::objective(const Observation& obs, std::size_t m) const {
  BBA_ASSERT(obs.video != nullptr, "observation must carry the video");
  if (obs.video != prepared_for_) prepare(*obs.video);
  return (numerator_[m] - obs.buffer_s) / size_[m];
}

}  // namespace bba::abr
