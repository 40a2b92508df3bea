#include "exp/abtest.hpp"

#include <cstdint>
#include <vector>

#include "abr/baselines.hpp"
#include "abr/bola.hpp"
#include "abr/control.hpp"
#include "abr/related_work.hpp"
#include "core/bba0.hpp"
#include "core/bba1.hpp"
#include "core/bba2.hpp"
#include "core/bba_others.hpp"
#include "exp/checkpoint.hpp"
#include "net/estimators.hpp"
#include "sim/metrics.hpp"
#include "util/assert.hpp"

namespace bba::exp {

void accumulate_session(WindowMetrics& cell, const sim::SessionMetrics& m) {
  const double hours = m.play_s / 3600.0;
  cell.play_hours += hours;
  cell.rebuffer_count += static_cast<double>(m.rebuffer_count);
  cell.rebuffer_s += m.rebuffer_s;
  cell.fault_stall_count += static_cast<double>(m.fault_stall_count);
  cell.switch_count += static_cast<double>(m.switch_count);
  cell.sessions += 1;
  if (cell.play_hours > 0.0) {
    const double w_new = hours / cell.play_hours;
    cell.avg_rate_bps += (m.avg_rate_bps - cell.avg_rate_bps) * w_new;
    // Startup uses the total play-hours weight for simplicity; the startup
    // window is a fixed 120 s per session, so the bias is tiny.
    cell.startup_rate_bps +=
        (m.startup_rate_bps - cell.startup_rate_bps) * w_new;
  }
  // Steady state is weighted by steady play hours over the sessions that
  // actually reached it: a session's steady_rate_bps covers only its play
  // time past 120 s, and short sessions carry no steady signal at all.
  // Weighting by total play hours (as avg/startup do) would let both
  // effects bias the cell toward startup-heavy sessions.
  if (m.has_steady) {
    const double steady_hours = m.steady_play_s / 3600.0;
    cell.steady_play_hours += steady_hours;
    if (cell.steady_play_hours > 0.0) {
      const double w_steady = steady_hours / cell.steady_play_hours;
      cell.steady_rate_bps +=
          (m.steady_rate_bps - cell.steady_rate_bps) * w_steady;
    }
  }
}

std::size_t AbTestResult::group_index(const std::string& name) const {
  for (std::size_t i = 0; i < group_names.size(); ++i) {
    if (group_names[i] == name) return i;
  }
  BBA_ASSERT(false, "unknown group name");
  return 0;
}

AbTestResult AbTestResult::select(
    const std::vector<std::string>& names) const {
  AbTestResult out;
  for (const auto& name : names) {
    out.group_names.push_back(name);
    out.cells.push_back(cells[group_index(name)]);
  }
  return out;
}

WindowMetrics AbTestResult::merged(std::size_t group,
                                   std::size_t window) const {
  BBA_ASSERT(group < cells.size(), "group out of range");
  WindowMetrics out;
  for (const auto& day : cells[group]) {
    BBA_ASSERT(window < day.size(), "window out of range");
    const WindowMetrics& c = day[window];
    const double total = out.play_hours + c.play_hours;
    if (total > 0.0) {
      const double w_new = c.play_hours / total;
      out.avg_rate_bps += (c.avg_rate_bps - out.avg_rate_bps) * w_new;
      out.startup_rate_bps +=
          (c.startup_rate_bps - out.startup_rate_bps) * w_new;
    }
    const double steady_total = out.steady_play_hours + c.steady_play_hours;
    if (steady_total > 0.0) {
      const double w_steady = c.steady_play_hours / steady_total;
      out.steady_rate_bps +=
          (c.steady_rate_bps - out.steady_rate_bps) * w_steady;
    }
    out.steady_play_hours = steady_total;
    out.play_hours = total;
    out.rebuffer_count += c.rebuffer_count;
    out.rebuffer_s += c.rebuffer_s;
    out.fault_stall_count += c.fault_stall_count;
    out.switch_count += c.switch_count;
    out.sessions += c.sessions;
  }
  return out;
}

std::vector<double> AbTestResult::per_day(
    std::size_t group, std::size_t window,
    const std::function<double(const WindowMetrics&)>& metric) const {
  BBA_ASSERT(group < cells.size(), "group out of range");
  std::vector<double> values;
  values.reserve(cells[group].size());
  for (const auto& day : cells[group]) {
    BBA_ASSERT(window < day.size(), "window out of range");
    values.push_back(metric(day[window]));
  }
  return values;
}

AbTestResult run_ab_test(const std::vector<Group>& groups,
                         const media::VideoLibrary& library,
                         const AbTestConfig& cfg) {
  // The checkpointed harness (exp/checkpoint.cpp) with default options IS
  // the plain run: one chunk, no files, the identical canonical fold. With
  // no checkpoint I/O configured the only failure modes are the programmer
  // errors both paths already abort on, and a grid past obs::grid_fits
  // while a timeline or monitor is installed (see
  // RunCheckpoints::check_grid).
  AbTestResult result;
  std::string error;
  const bool ok = run_ab_test_checkpointed(groups, library, cfg,
                                           CheckpointOptions{}, &result,
                                           &error);
  BBA_ASSERT(ok, "run_ab_test failed");
  return result;
}

AbrFactory abr_factory(const std::string& name) {
  if (name == "control") return make_control_factory();
  if (name == "rmin-always") return make_rmin_factory();
  if (name == "bba0") return make_bba0_factory();
  if (name == "bba1") return make_bba1_factory();
  if (name == "bba2") return make_bba2_factory();
  if (name == "bba-others") return make_bba_others_factory();
  if (name == "rmax-always") {
    return [] { return std::make_unique<abr::RMaxAlways>(); };
  }
  if (name == "throughput") {
    return [] {
      return std::make_unique<abr::ThroughputAbr>(
          std::make_unique<net::EwmaEstimator>(0.3));
    };
  }
  if (name == "pid") return [] { return std::make_unique<abr::PidAbr>(); };
  if (name == "elastic") {
    return [] { return std::make_unique<abr::ElasticAbr>(); };
  }
  if (name == "bola") return [] { return std::make_unique<abr::BolaAbr>(); };
  return nullptr;
}

AbrFactory make_control_factory() {
  return [] { return std::make_unique<abr::ControlAbr>(); };
}

AbrFactory make_rmin_factory() {
  return [] { return std::make_unique<abr::RMinAlways>(); };
}

AbrFactory make_bba0_factory() {
  return [] { return std::make_unique<core::Bba0>(); };
}

AbrFactory make_bba1_factory() {
  return [] { return std::make_unique<core::Bba1>(); };
}

AbrFactory make_bba2_factory() {
  return [] { return std::make_unique<core::Bba2>(); };
}

AbrFactory make_bba_others_factory() {
  return [] { return std::make_unique<core::BbaOthers>(); };
}

}  // namespace bba::exp
