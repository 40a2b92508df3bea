#include "core/bba_table.hpp"

#include <typeinfo>

#include "core/bba2.hpp"
#include "core/bba_others.hpp"

namespace bba::core {

std::optional<BbaTable> BbaTable::of(const abr::RateAdaptation& abr) {
  const std::type_info& type = typeid(abr);
  if (type != typeid(Bba1) && type != typeid(Bba2) &&
      type != typeid(BbaOthers)) {
    return std::nullopt;
  }
  return BbaTable(BbaDecision(static_cast<const Bba1&>(abr).params()));
}

const media::DecisionTable* BbaTable::table_for(const media::Video& video,
                                                double lookahead_s,
                                                bool* built) {
  return &video.decision_table(
      reservoir_window_chunks(lookahead_s, video.chunk_duration_s()), built);
}

}  // namespace bba::core
