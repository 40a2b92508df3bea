#include "seq/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "exp/block.hpp"
#include "exp/session_key.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "obs/trace_jsonl.hpp"
#include "stats/ttest.hpp"
#include "util/assert.hpp"

namespace bba::seq {

namespace {

/// JSON-appends a double with the %.10g convention the trace sinks use.
/// Deterministic: the engine's values are bit-identical at any thread
/// count, so the rendered bytes are too.
void append_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out += buf;
}

using obs::jsonl::append_u64;

/// The canonical key sequence: the (day, window) grid walked session-major
/// -- index i covers user i / (days*windows) of cell i % (days*windows).
/// Every window fills evenly (like the fixed harness) and the sequence
/// extends past the fixed-budget grid without bound, so reallocated budget
/// simply draws deeper user indices. Pure function of i: batch membership
/// can never depend on wall clock or thread timing.
exp::SessionKey key_at(std::uint64_t seed, std::size_t days, std::size_t i) {
  const std::size_t cells = days * exp::kWindowsPerDay;
  const std::size_t user = i / cells;
  const std::size_t rem = i % cells;
  return exp::SessionKey{seed, rem / exp::kWindowsPerDay,
                         rem % exp::kWindowsPerDay, user};
}

/// Metric value of one finished session, through the same window-cell
/// accessor the fixed-budget reports use.
double session_value(const exp::MetricDef& def, const sim::SessionMetrics& m) {
  exp::WindowMetrics one;
  exp::accumulate_session(one, m);
  return def.get(one);
}

struct ArmState {
  std::size_t group = 0;        ///< index into the groups vector
  bool is_baseline = false;
  bool candidate = true;        ///< not yet eliminated
  std::size_t eliminated_round = 0;
  stats::Running deltas;        ///< signed per-session deltas vs baseline
  double lo = 0.0;              ///< CI at the last completed round
  double hi = 0.0;
};

/// CI half-width on the mean paired delta: Student-t at the arm's own df.
double ci_half_width(const stats::Running& r, double confidence) {
  if (r.count() < 2) return 0.0;
  const double var = r.variance();
  if (var <= 0.0) return 0.0;
  const double n = static_cast<double>(r.count());
  return stats::student_t_critical(n - 1.0, confidence) *
         std::sqrt(var / n);
}

}  // namespace

bool seq_metric_by_name(const std::string& name, SeqMetric* out) {
  if (name == "rebuffers") {
    *out = {exp::rebuffers_per_hour_metric(), /*higher_is_better=*/false,
            name};
  } else if (name == "rate") {
    *out = {exp::avg_rate_kbps_metric(), true, name};
  } else if (name == "steady") {
    *out = {exp::steady_rate_kbps_metric(), true, name};
  } else if (name == "startup") {
    *out = {exp::startup_rate_kbps_metric(), true, name};
  } else if (name == "switches") {
    *out = {exp::switches_per_hour_metric(), false, name};
  } else {
    return false;
  }
  return true;
}

SeqResult run_sequential(const std::vector<exp::Group>& groups,
                         const media::VideoLibrary& library,
                         const exp::AbTestConfig& cfg,
                         const SeqMetric& metric, const SeqConfig& seq) {
  // The checkpointed engine with default options is the plain run: no
  // files, identical rounds, identical bytes.
  SeqResult result;
  std::string error;
  const bool ok = run_sequential_checkpointed(
      groups, library, cfg, metric, seq, exp::CheckpointOptions{}, &result,
      &error);
  BBA_ASSERT(ok, "run_sequential failed");
  return result;
}

bool run_sequential_checkpointed(const std::vector<exp::Group>& groups,
                                 const media::VideoLibrary& library,
                                 const exp::AbTestConfig& cfg,
                                 const SeqMetric& metric,
                                 const SeqConfig& seq,
                                 const exp::CheckpointOptions& opts,
                                 SeqResult* out_result, std::string* error) {
  BBA_ASSERT(groups.size() >= 2, "sequential runs need >= 2 arms");
  BBA_ASSERT(seq.baseline < groups.size(), "baseline index out of range");
  BBA_ASSERT(seq.confidence > 0.0 && seq.confidence < 1.0,
             "confidence must lie in (0, 1)");
  BBA_ASSERT(seq.batch_sessions >= 1, "batch_sessions must be >= 1");
  BBA_ASSERT(cfg.days >= 1 && cfg.sessions_per_window >= 1,
             "experiment dimensions must be >= 1");
  BBA_ASSERT(opts.shard_count == 1,
             "--shard partitions the fixed grid; sequential runs cannot "
             "shard");
  std::string scratch_error;
  if (error == nullptr) error = &scratch_error;
  std::vector<std::string> names;
  names.reserve(groups.size());
  for (const auto& g : groups) names.push_back(g.name);
  // Round checkpoints (kind 1) carry no health monitor: the engine folds
  // keys in its own adaptive order.
  exp::RunCheckpoints checkpoints{
      1, cfg, opts, std::move(names),
      exp::CheckpointInstruments::installed(/*monitor=*/false)};
  if (!checkpoints.check_grid(error)) return false;
  SeqResult& result = *out_result;
  result = SeqResult{};

  obs::Observability* o = obs::global();
  obs::ScopedTimer run_span(o != nullptr ? o->profiler.get() : nullptr, 0,
                            "run_sequential");

  const std::size_t n_arms = groups.size();
  const double direction = metric.higher_is_better ? 1.0 : -1.0;

  result.budget_sessions =
      seq.budget_sessions != 0
          ? seq.budget_sessions
          : n_arms * cfg.sessions_per_window * cfg.days * exp::kWindowsPerDay;
  result.cells.group_names = checkpoints.groups;
  result.cells.cells.assign(
      n_arms, std::vector<std::vector<exp::WindowMetrics>>(
                  cfg.days, std::vector<exp::WindowMetrics>(
                                exp::kWindowsPerDay)));

  obs::TimelineAggregator* timeline = checkpoints.instruments.timeline;
  checkpoints.begin_run();

  std::vector<ArmState> arms(n_arms);
  for (std::size_t a = 0; a < n_arms; ++a) {
    arms[a].group = a;
    arms[a].is_baseline = a == seq.baseline;
  }

  // Arms currently simulated: every candidate plus the baseline (the
  // baseline keeps streaming even after it is ruled out as the winner --
  // every delta is paired against it). Rebuilt after each elimination.
  auto simulated_arms = [&] {
    std::vector<std::size_t> sim;
    for (std::size_t a = 0; a < n_arms; ++a) {
      if (arms[a].candidate || arms[a].is_baseline) sim.push_back(a);
    }
    return sim;
  };

  std::vector<std::size_t> sim;
  std::unique_ptr<exp::SessionBlockRunner> runner;
  auto rebuild_runner = [&] {
    std::vector<exp::Group> active;
    active.reserve(sim.size());
    for (std::size_t a : sim) active.push_back(groups[a]);
    runner = std::make_unique<exp::SessionBlockRunner>(active, library, cfg);
  };

  std::size_t next_key = 0;  ///< cursor into the canonical key sequence
  std::vector<double> row;  ///< per-key metric values, sim order

  auto candidate_count = [&] {
    std::size_t n = 0;
    for (const auto& a : arms) n += a.candidate ? 1 : 0;
    return n;
  };

  // The leader: best mean among candidates, ties to the lowest index.
  auto leader_of = [&]() -> std::size_t {
    std::size_t best = n_arms;
    for (std::size_t a = 0; a < n_arms; ++a) {
      if (!arms[a].candidate) continue;
      if (best == n_arms || arms[a].deltas.mean() > arms[best].deltas.mean())
        best = a;
    }
    return best;
  };

  // Final-result assembly, shared by the live path and a resume of an
  // already-finished checkpoint.
  auto finish_result = [&](const std::string& verdict) {
    result.verdict = verdict;
    const std::size_t winner = leader_of();
    result.winner = winner < n_arms ? groups[winner].name : std::string();
    result.arms.resize(n_arms);
    for (std::size_t a = 0; a < n_arms; ++a) {
      ArmReport& r = result.arms[a];
      r.name = groups[a].name;
      r.is_baseline = arms[a].is_baseline;
      r.eliminated_round = arms[a].eliminated_round;
      r.n = arms[a].deltas.count();
      r.mean = arms[a].deltas.mean();
      r.lo = arms[a].lo;
      r.hi = arms[a].hi;
    }
    // Observability: strictly observational tallies of what adaptivity
    // bought (no simulation value reads them, so results stay
    // bit-identical with obs on or off).
    obs::count(obs::Counter::kSeqBatches, result.rounds);
    obs::count(obs::Counter::kSeqSessions, result.sessions_used);
    obs::count(obs::Counter::kSeqSessionsSaved,
               result.budget_sessions - result.sessions_used);
  };

  auto progress = [&] { return "round " + std::to_string(result.rounds); };
  auto save_seq = [&](const std::string& verdict) -> bool {
    exp::Checkpoint ck = checkpoints.snapshot();
    ck.total_keys = result.budget_sessions;
    ck.cursor = result.sessions_used;
    ck.cells = result.cells.cells;
    ck.has_seq = true;
    exp::CheckpointSeq& cs = ck.seq;
    cs.rounds = result.rounds;
    cs.sessions_used = result.sessions_used;
    cs.budget_sessions = result.budget_sessions;
    cs.next_key = next_key;
    cs.batch_sessions = seq.batch_sessions;
    cs.min_batches = seq.min_batches;
    cs.baseline = seq.baseline;
    cs.confidence = seq.confidence;
    cs.metric = metric.name;
    cs.verdict = verdict;
    cs.arms.resize(n_arms);
    for (std::size_t a = 0; a < n_arms; ++a) {
      exp::CheckpointSeq::Arm& ca = cs.arms[a];
      ca.candidate = arms[a].candidate;
      ca.eliminated_round = arms[a].eliminated_round;
      ca.n = arms[a].deltas.count();
      ca.mean = arms[a].deltas.mean();
      ca.m2 = arms[a].deltas.m2();
      ca.lo = arms[a].lo;
      ca.hi = arms[a].hi;
    }
    cs.decision_log = result.decision_log;
    return checkpoints.save(ck, progress(), error);
  };

  if (opts.resuming()) {
    exp::Checkpoint ck;
    if (!checkpoints.load(&ck, error)) return false;
    const exp::CheckpointSeq& cs = ck.seq;
    if (cs.metric != metric.name || cs.confidence != seq.confidence ||
        cs.batch_sessions != seq.batch_sessions ||
        cs.min_batches != seq.min_batches || cs.baseline != seq.baseline ||
        cs.budget_sessions != result.budget_sessions ||
        cs.arms.size() != n_arms) {
      *error = opts.resume +
               " was checkpointed with different engine knobs or metric";
      return false;
    }
    result.rounds = static_cast<std::size_t>(cs.rounds);
    result.sessions_used = static_cast<std::size_t>(cs.sessions_used);
    result.decision_log = cs.decision_log;
    result.cells.cells = std::move(ck.cells);
    next_key = static_cast<std::size_t>(cs.next_key);
    for (std::size_t a = 0; a < n_arms; ++a) {
      arms[a].candidate = cs.arms[a].candidate;
      arms[a].eliminated_round =
          static_cast<std::size_t>(cs.arms[a].eliminated_round);
      arms[a].deltas = stats::Running::from_moments(
          cs.arms[a].n, cs.arms[a].mean, cs.arms[a].m2);
      arms[a].lo = cs.arms[a].lo;
      arms[a].hi = cs.arms[a].hi;
    }
    if (!checkpoints.restore(ck, progress(), error)) return false;
    if (!cs.verdict.empty()) {
      // The run already finished: re-render the result; simulate nothing.
      finish_result(cs.verdict);
      return true;
    }
  }

  sim = simulated_arms();
  rebuild_runner();

  std::string stop_reason;  // empty while running
  while (true) {
    // A round costs one session per simulated arm per key; the integer
    // division below IS the deterministic budget reallocation -- freezing
    // an arm shrinks sim.size() and buys the survivors more keys.
    const std::size_t affordable =
        (result.budget_sessions - result.sessions_used) / sim.size();
    const std::size_t n_keys = std::min(seq.batch_sessions, affordable);
    if (n_keys == 0) {
      stop_reason = "budget";
      break;
    }
    ++result.rounds;

    const std::size_t first = next_key;
    auto batch_key = [&](std::size_t i) {
      return key_at(cfg.seed, cfg.days, first + i);
    };
    next_key += n_keys;
    result.sessions_used += n_keys * sim.size();

    std::size_t baseline_pos = 0;
    for (std::size_t p = 0; p < sim.size(); ++p) {
      if (sim[p] == seq.baseline) baseline_pos = p;
    }
    row.assign(sim.size(), 0.0);
    runner->run(n_keys, batch_key, [&](std::size_t i, std::size_t g,
                                       const sim::SessionMetrics& m) {
      const exp::SessionKey key = batch_key(i);
      const std::size_t arm = sim[g];
      exp::accumulate_session(result.cells.cells[arm][key.day][key.window],
                              m);
      if (timeline != nullptr) {
        timeline->record(key.day, key.window, arm, m);
      }
      row[g] = session_value(metric.def, m);
      if (g + 1 == sim.size()) {
        const double base = row[baseline_pos];
        for (std::size_t p = 0; p < sim.size(); ++p) {
          arms[sim[p]].deltas.add(direction * (row[p] - base));
        }
      }
    });

    // Refresh every simulated arm's CI at the configured confidence.
    for (std::size_t a : sim) {
      const double half = ci_half_width(arms[a].deltas, seq.confidence);
      arms[a].lo = arms[a].deltas.mean() - half;
      arms[a].hi = arms[a].deltas.mean() + half;
    }

    // Successive elimination: only after min_batches rounds, and only with
    // two observations per arm (a one-round CI exists but min_batches
    // gates how early we are willing to act on it).
    std::vector<std::size_t> eliminated_now;
    const std::size_t leader = leader_of();
    if (result.rounds >= seq.min_batches && arms[leader].deltas.count() >= 2) {
      for (std::size_t a = 0; a < n_arms; ++a) {
        if (!arms[a].candidate || a == leader) continue;
        if (arms[a].hi < arms[leader].lo) {
          arms[a].candidate = false;
          arms[a].eliminated_round = result.rounds;
          eliminated_now.push_back(a);
        }
      }
    }
    if (candidate_count() <= 1) stop_reason = "winner";
    // Budget check against NEXT round's cost: eliminations this round
    // already shrink the simulated set.
    std::size_t next_sim_count = 0;
    for (const auto& a : arms) {
      next_sim_count += (a.candidate || a.is_baseline) ? 1 : 0;
    }
    const bool out_of_budget =
        (result.budget_sessions - result.sessions_used) < next_sim_count;
    if (stop_reason.empty() && out_of_budget) stop_reason = "budget";

    // One decision-log line per round: the full per-arm state, this
    // round's eliminations, the budget position, and the stop verdict
    // (null while the run continues).
    std::string& log = result.decision_log;
    log += "{\"round\":";
    append_u64(log, result.rounds);
    log += ",\"keys\":";
    append_u64(log, n_keys);
    log += ",\"sessions_used\":";
    append_u64(log, result.sessions_used);
    log += ",\"budget\":";
    append_u64(log, result.budget_sessions);
    log += ",\"arms\":[";
    for (std::size_t a = 0; a < n_arms; ++a) {
      if (a != 0) log += ',';
      log += "{\"name\":\"";
      log += groups[a].name;
      log += "\",\"n\":";
      append_u64(log, static_cast<std::uint64_t>(arms[a].deltas.count()));
      log += ",\"mean\":";
      append_double(log, arms[a].deltas.mean());
      log += ",\"lo\":";
      append_double(log, arms[a].lo);
      log += ",\"hi\":";
      append_double(log, arms[a].hi);
      log += ",\"active\":";
      log += arms[a].candidate ? "true" : "false";
      if (arms[a].is_baseline) log += ",\"baseline\":true";
      log += '}';
    }
    log += "],\"leader\":\"";
    log += groups[leader].name;
    log += "\",\"eliminated\":[";
    for (std::size_t i = 0; i < eliminated_now.size(); ++i) {
      if (i != 0) log += ',';
      log += '"';
      log += groups[eliminated_now[i]].name;
      log += '"';
    }
    log += "]";
    // Per-round fleet snapshot, only when a timeline is installed: the
    // members are additions, so runs without --timeline-out keep their
    // exact historical log bytes (seq-smoke CI diffs them).
    if (timeline != nullptr) {
      log += ",\"timeline\":[";
      for (std::size_t a = 0; a < n_arms; ++a) {
        const obs::TimelineCell t = timeline->group_total(a);
        const double play_h = static_cast<double>(t.play_micro) * 1e-6 / 3600.0;
        if (a != 0) log += ',';
        log += "{\"sessions\":";
        append_u64(log, t.sessions);
        log += ",\"play_h\":";
        append_double(log, play_h);
        log += ",\"rebuf_ph\":";
        append_double(log, play_h > 0.0
                               ? static_cast<double>(t.rebuffers) / play_h
                               : 0.0);
        log += ",\"rate_kbps\":";
        append_double(log, t.play_micro > 0
                               ? static_cast<double>(t.rate_play_kbit) /
                                     (static_cast<double>(t.play_micro) * 1e-6)
                               : 0.0);
        log += '}';
      }
      log += ']';
    }
    log += ",\"stop\":";
    if (stop_reason.empty()) {
      log += "null";
    } else {
      log += '"';
      log += stop_reason;
      log += '"';
    }
    log += "}\n";

    // Mid-run rounds checkpoint here, after the log line: resuming replays
    // nothing and continues at the next round boundary. The final round's
    // state is saved after the verdict line below instead, so a finished
    // checkpoint always carries the complete decision log.
    if (!opts.out.empty() && stop_reason.empty()) {
      if (!save_seq("")) return false;
    }
    if (!stop_reason.empty()) break;
    if (!eliminated_now.empty()) {
      runner->finish();
      sim = simulated_arms();
      rebuild_runner();
    }
  }
  runner->finish();

  finish_result(stop_reason);

  // Final verdict line: what a dashboard (or the seq-smoke CI job) reads.
  std::string& log = result.decision_log;
  log += "{\"verdict\":\"";
  log += result.verdict;
  log += "\",\"winner\":\"";
  log += result.winner;
  log += "\",\"rounds\":";
  append_u64(log, result.rounds);
  log += ",\"sessions_used\":";
  append_u64(log, result.sessions_used);
  log += ",\"budget\":";
  append_u64(log, result.budget_sessions);
  log += ",\"saved_frac\":";
  append_double(log, result.saved_fraction());
  log += "}\n";

  if (!opts.out.empty()) {
    if (!save_seq(stop_reason)) return false;
  }
  return true;
}

}  // namespace bba::seq
