// The paper's A/B figures and the claims checked against them.
//
// Every A/B figure of the paper (Figs. 7-9, 14-24) is a view of one
// experiment: the six standard groups over the same common-random-number
// keys. A figure names the groups its panels show and the metric they
// plot; a claim is one shape the paper reports, judged on the six-group
// result. bba_paper_report runs the experiment once, prints each figure
// from a group subset of it (exp::AbTestResult::select) and checks every
// claim.
//
// The bounds are point-estimate bands set for the default population (120
// sessions per window, 3 days): a noisier realization can flip the peak
// ratios, so a claim that fails at another seed is a finding to check
// against more sessions, not a bound to move.
#pragma once

#include <string>
#include <vector>

#include "exp/abtest.hpp"
#include "exp/report.hpp"

namespace bba::exp {

/// One A/B figure: each group's per-window metric, then its ratio to
/// Control (rebuffer and switching figures) or Control minus it (video-rate
/// figures, `delta`).
struct Figure {
  const char* id;     ///< "Fig. 7"
  const char* title;  ///< what the panels plot
  const char* shape;  ///< the paper's result, one line
  const char* csv;    ///< stem of its figure_data/ CSVs, "fig07_rebuffers"
  MetricDef metric;
  bool delta;
  std::vector<std::string> groups;  ///< Control first
};

/// The twelve A/B figures, in paper order.
const std::vector<Figure>& paper_figures();

/// One claim of the paper over the six-group result. `value` is the
/// number the claim prints (with `format`); `holds` judges it, reading
/// any other quantity it compares against from the result.
struct Claim {
  const char* figure;  ///< "Fig. 7", or "Abstract"
  const char* text;
  const char* format;  ///< printf format of the value, "%.2fx"
  double (*value)(const AbTestResult& result);
  bool (*holds)(const AbTestResult& result, double value);
};

/// Every claim, in paper order (the abstract first).
const std::vector<Claim>& paper_claims();

}  // namespace bba::exp
