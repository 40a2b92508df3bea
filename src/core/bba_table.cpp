#include "core/bba_table.hpp"

#include <algorithm>
#include <cmath>
#include <typeinfo>

#include "core/bba2.hpp"
#include "core/bba_others.hpp"

namespace bba::core {

std::optional<BbaTable> BbaTable::of(const abr::RateAdaptation& abr,
                                     media::DecisionTableCache& tables) {
  const std::type_info& type = typeid(abr);
  if (type != typeid(Bba1) && type != typeid(Bba2) &&
      type != typeid(BbaOthers)) {
    return std::nullopt;
  }
  const Bba1& bba = static_cast<const Bba1&>(abr);
  if (!bba.params().base.reservoir.cache_window_sums) return std::nullopt;
  return BbaTable(BbaDecision(bba.params()), tables);
}

const media::DecisionTable* BbaTable::lookup(media::DecisionTableCache& tables,
                                             const media::Video& video,
                                             double lookahead_s,
                                             bool* built_now) {
  // The lookahead window of core::raw_reservoir_s.
  const std::size_t window_chunks = static_cast<std::size_t>(
      std::max(1.0, std::floor(lookahead_s / video.chunk_duration_s())));
  return &tables.get(video, window_chunks, built_now);
}

}  // namespace bba::core
