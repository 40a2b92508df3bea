// BBA-1, BBA-2 and BBA-Others decisions read straight from a
// media::DecisionTable.
//
// The classes feed core::BbaDecision from the ChunkTable: the reservoir
// lookahead from the window-sum memo and the next chunk's size at every
// rate from per-rate rows. BbaTable feeds the same decision from one
// chunk-major DecisionTable row and is a plain value type, so the session
// player (sim/simulate.hpp) inlines it; the chosen rates are bit-identical
// (tests/test_golden.cpp).
//
// Reservoir memo accounting stays exact: the classes call
// ChunkTable::window_sums once per decision (one kReservoirMemoHits each,
// or a build on a cold memo); a table entry performs that call once when it
// is built, so the session that built it reports decisions - 1 hits and
// every other session reports one per decision.
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
  /// Bba1, Bba2 or BbaOthers and it memoizes window sums (the memo
  /// accounting above relies on it); nullopt for anything else, including
  /// other derived classes.
  static std::optional<BbaTable> of(const abr::RateAdaptation& abr,
                                    media::DecisionTableCache& tables);

  void reset() {
    decision_.reset();
    table_ = nullptr;
    built_now_ = false;
    decisions_ = 0;
  }

  std::size_t choose_rate(const abr::Observation& obs) {
    if (table_ == nullptr) {
      bool built_now = false;
      table_ = lookup(*tables_, *obs.video,
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
  // Chunk k's row: [raw reservoir, size_bits(0, k), ..., size_bits(R-1, k)].
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

  BbaTable(const BbaDecision& decision, media::DecisionTableCache& tables)
      : decision_(decision), tables_(&tables) {}

  /// The table for `video` (built on first use; `*built_now` says whether
  /// this call built it). Looked up on the session's first decision, so a
  /// session that never decides never touches the memo. Static, so the
  /// player can keep a BbaTable's state in registers.
  static const media::DecisionTable* lookup(media::DecisionTableCache& tables,
                                            const media::Video& video,
                                            double lookahead_s,
                                            bool* built_now);

  BbaDecision decision_;
  media::DecisionTableCache* tables_;
  const media::DecisionTable* table_ = nullptr;
  bool built_now_ = false;
  std::size_t decisions_ = 0;
};

// The player keeps a trivially copyable policy in locals (sim/simulate.hpp).
static_assert(std::is_trivially_copyable_v<BbaTable>);

}  // namespace bba::core
