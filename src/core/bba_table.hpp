// BBA-1, BBA-2 and BBA-Others decisions read straight from the title's
// media::DecisionTable.
//
// Every BBA decision reads one chunk-major DecisionTable row: the reservoir
// lookahead and the next chunk's size at every rate. A title builds the
// table once per lookahead window, on first use (media::Video::
// decision_table), and every thread, slot and session shares it. The
// Bba1/Bba2/BbaOthers classes and BbaTable both feed core::BbaDecision
// from these rows; BbaTable is a plain value type, so the session player
// (sim/simulate.hpp) inlines it. The chosen rates are bit-identical
// (tests/test_golden.cpp).
//
// Reservoir memo accounting: kReservoirMemoBuilds counts the tables built
// (in Video::decision_table), kReservoirMemoHits every BBA decision but the
// one that built its table. The classes count a hit per decision; BbaTable
// counts its session's decisions at session end, minus one if the
// session's lookup built the table. Hits + builds is the number of BBA
// decisions, at every thread count.
#pragma once

#include <cstddef>
#include <optional>
#include <type_traits>

#include "abr/abr.hpp"
#include "core/bba1.hpp"
#include "media/decision_table.hpp"
#include "media/video.hpp"
#include "obs/metrics.hpp"

namespace bba::core {

class BbaTable {
 public:
  /// The table-driven equivalent of `abr` when its dynamic type is exactly
  /// Bba1, Bba2 or BbaOthers; nullopt for anything else, including other
  /// derived classes.
  static std::optional<BbaTable> of(const abr::RateAdaptation& abr);

  /// Chunk k's row: [raw reservoir, size_bits(0, k), ...,
  /// size_bits(R-1, k)], the inputs core::BbaDecision::decide reads.
  struct Row {
    const media::DecisionTable* dt;
    std::size_t k;

    const double* row() const { return dt->szt.data() + k * dt->row_stride; }
    double raw_reservoir_s() const { return row()[0]; }
    double size_bits(std::size_t i) const { return row()[1 + i]; }
    std::size_t num_rates() const { return dt->n_rates; }
    double chunk_min_mean() const { return dt->chunk_min_mean; }
    double chunk_max_mean() const { return dt->chunk_max_mean; }
    double chunk_duration_s() const { return dt->V; }
  };

  /// `video`'s table for a reservoir lookahead of `lookahead_s` (built on
  /// first use; `*built` says whether this call built it). Static, so the
  /// player can keep a BbaTable's state in registers.
  static const media::DecisionTable* table_for(const media::Video& video,
                                               double lookahead_s,
                                               bool* built);

  void reset() {
    decision_.reset();
    table_ = nullptr;
    built_now_ = false;
    decisions_ = 0;
  }

  std::size_t choose_rate(const abr::Observation& obs) {
    // Looked up on the session's first decision, so a session that never
    // decides never touches the table.
    if (table_ == nullptr) {
      bool built_now = false;
      table_ = table_for(*obs.video,
                         decision_.params().base.reservoir.lookahead_s,
                         &built_now);
      built_now_ = built_now;
    }
    ++decisions_;
    return decision_.decide(obs, Row{table_, obs.chunk_index});
  }

  /// Flushes the session's reservoir memo accounting.
  void on_session_end() {
    if (decisions_ > 0) {
      obs::count(obs::Counter::kReservoirMemoHits,
                 built_now_ ? decisions_ - 1 : decisions_);
    }
  }

 private:
  explicit BbaTable(const BbaDecision& decision) : decision_(decision) {}

  BbaDecision decision_;
  const media::DecisionTable* table_ = nullptr;
  bool built_now_ = false;
  std::size_t decisions_ = 0;
};

// The player keeps a trivially copyable policy in locals (sim/simulate.hpp).
static_assert(std::is_trivially_copyable_v<BbaTable>);

}  // namespace bba::core
