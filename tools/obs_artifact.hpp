// bba_obs's view of a bba.timeline.v1 artifact, shared by the CLI
// (tools/bba_obs_cli.cpp) and its tests (tests/test_obs_cli.cpp).
//
// The artifact reads back into the writer's own model: obs::load_timeline
// / obs::parse_timeline (obs/timeline.hpp) rebuild an
// obs::TimelineAggregator and accept exactly what its to_json() emits.
// What lives here is the dashboard arithmetic over its cells: the
// per-hour rates bba_obs prints, the per-window merge across days of
// `bba_obs timeline`, and the baseline-normalized samples of `bba_obs
// diff`.
#pragma once

#include <cstddef>
#include <vector>

#include "obs/timeline.hpp"

namespace bba::tools {

/// Played hours of a cell.
inline double play_h(const obs::TimelineCell& c) {
  return static_cast<double>(c.play_micro) * 1e-6 / 3600.0;
}

/// Rebuffers per played hour (0 with no play time).
inline double rebuf_per_hour(const obs::TimelineCell& c) {
  const double h = play_h(c);
  return h > 0.0 ? static_cast<double>(c.rebuffers) / h : 0.0;
}

/// Play-time-weighted delivered rate in kb/s (0 with no play time). Not
/// obs::monitor_metric_value's rate_kbps: the two round differently, and
/// the dashboard's digits are pinned.
inline double rate_kbps(const obs::TimelineCell& c) {
  const double s = static_cast<double>(c.play_micro) * 1e-6;
  return s > 0.0 ? static_cast<double>(c.rate_play_kbit) / s : 0.0;
}

/// The per-(window, group) cells merged across days, indexed
/// [window * num_groups + group]: the rows of `bba_obs timeline`.
inline std::vector<obs::TimelineCell> merged_by_window(
    const obs::TimelineAggregator& a) {
  const std::size_t groups = a.num_groups();
  std::vector<obs::TimelineCell> by_window(a.windows_per_day() * groups);
  for (std::size_t d = 0; d < a.days(); ++d) {
    for (std::size_t w = 0; w < a.windows_per_day(); ++w) {
      for (std::size_t g = 0; g < groups; ++g) {
        by_window[w * groups + g].merge(a.cell(d, w, g));
      }
    }
  }
  return by_window;
}

/// Per-(day, window) baseline-normalized samples of one metric for one
/// group: value(group cell) / value(baseline cell). Cells where either
/// side is undefined (no sessions on one side, or a zero/undefined
/// baseline value) carry no sample; `*skipped` (if non-null) counts them
/// so a diff can SAY how much of the grid it ignored instead of silently
/// thinning the sample set (a sparse partial artifact used to look like a
/// confident full-grid comparison).
inline std::vector<double> normalized_samples(
    const obs::TimelineAggregator& a, std::size_t group, std::size_t baseline,
    double (*metric)(const obs::TimelineCell&),
    std::size_t* skipped = nullptr) {
  std::vector<double> samples;
  samples.reserve(a.days() * a.windows_per_day());
  if (skipped != nullptr) *skipped = 0;
  for (std::size_t d = 0; d < a.days(); ++d) {
    for (std::size_t w = 0; w < a.windows_per_day(); ++w) {
      const obs::TimelineCell& cg = a.cell(d, w, group);
      const obs::TimelineCell& cb = a.cell(d, w, baseline);
      const double vb = metric(cb);
      if (cg.sessions == 0 || cb.sessions == 0 || !(vb > 0.0)) {
        if (skipped != nullptr) ++*skipped;
        continue;
      }
      samples.push_back(metric(cg) / vb);
    }
  }
  return samples;
}

}  // namespace bba::tools
