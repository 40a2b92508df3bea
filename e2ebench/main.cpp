// e2ebench: end-to-end benchmark of the A/B harness on the paper's
// workloads, with a per-layer cost ledger (README.md).
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            --digests FILE --work-dir DIR [--scale F] [--inject-mismatch]
//   e2ebench --emit-reference --workload NAME --seed N --work-dir DIR
//   e2ebench --check-threads --workload NAME --seed N --work-dir DIR
//            [--scale F]
//
// --trace 0 repeats untraced passes for S seconds and prints the end-to-end
// metrics; --trace 1 alternates untraced and traced passes for S seconds,
// replays a sample through each layer, and prints the per-layer metrics.
// Either way the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where attempted/failed count sessions and failed/attempted is
// ops_failed_frac. --scale shrinks sessions_per_window (self-test runs).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "e2ebench.hpp"
#include "exp/checkpoint.hpp"

namespace e2e {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 2014;
  double seconds = 10.0;
  int trace = 0;
  std::string digests;
  std::string work_dir;
  double scale = 1.0;
  bool inject_mismatch = false;
  bool emit_reference = false;
  bool check_threads = false;
};

[[noreturn]] void usage_error(const char* what) {
  std::fprintf(stderr, "e2ebench: %s\n", what);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("a flag is missing its value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      o.trace = std::atoi(value().c_str());
    } else if (arg == "--digests") {
      o.digests = value();
    } else if (arg == "--work-dir") {
      o.work_dir = value();
    } else if (arg == "--scale") {
      o.scale = std::atof(value().c_str());
    } else if (arg == "--inject-mismatch") {
      o.inject_mismatch = true;
    } else if (arg == "--emit-reference") {
      o.emit_reference = true;
    } else if (arg == "--check-threads") {
      o.check_threads = true;
    } else {
      usage_error(("unknown argument " + arg).c_str());
    }
  }
  if (o.work_dir.empty()) usage_error("--work-dir is required");
  if (!(o.scale > 0.0 && o.scale <= 1.0)) {
    usage_error("--scale must be in (0, 1]");
  }
  if (o.trace != 0 && o.trace != 1) usage_error("--trace must be 0 or 1");
  return o;
}

std::size_t capped_threads(std::size_t requested) {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(requested, 1, hw == 0 ? 1 : hw);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t cell_index(const Workload& w, std::size_t group, std::size_t day,
                       std::size_t window) {
  return (group * w.days + day) * exp::kWindowsPerDay + window;
}

// --- Correctness ------------------------------------------------------------

/// Counts failed sessions pass by pass. A session fails when its (day,
/// window, group) cell differs from the reference -- the committed digests
/// when the seed has them, else the first pass's digests -- or from the
/// replay oracle's cells when the oracle ran. Every session of a pass fails
/// when an artifact differs.
class Checker {
 public:
  Checker(const Workload& w, const Reference* reference,
          const OracleResult* oracle, const std::vector<CellRef>& oracle_at,
          bool inject)
      : w_(w), reference_(reference), oracle_(oracle), oracle_at_(oracle_at),
        inject_(inject) {}

  void check(Pass& p) {
    if (inject_) {
      // Move the first oracle cell of group 0 by one ulp: exactly that
      // cell's sessions must be reported as failed.
      const CellRef c = oracle_at_.front();
      exp::WindowMetrics& cell = p.result.cells[0][c.day][c.window];
      cell.play_hours = std::nextafter(cell.play_hours, 1e300);
      p.cells = cell_digests(p.result);
    }
    attempted_ += w_.sessions();
    std::vector<bool> bad(p.cells.size(), false);
    bool all_bad = false;
    if (reference_ != nullptr) {
      for (std::size_t i = 0; i < bad.size(); ++i) {
        bad[i] = p.cells[i] != reference_->cells[i];
      }
      all_bad = w_.observed && !(reference_->has_artifacts &&
                                 p.artifacts == reference_->artifacts);
    } else if (first_cells_.empty()) {
      first_cells_ = p.cells;
      first_artifacts_ = p.artifacts;
    } else {
      for (std::size_t i = 0; i < bad.size(); ++i) {
        bad[i] = p.cells[i] != first_cells_[i];
      }
      all_bad = !(p.artifacts == first_artifacts_);
    }
    if (oracle_ != nullptr) {
      for (std::size_t c = 0; c < oracle_at_.size(); ++c) {
        for (std::size_t g = 0; g < w_.groups.size(); ++g) {
          const std::size_t i =
              cell_index(w_, g, oracle_at_[c].day, oracle_at_[c].window);
          if (cell_digest(oracle_->cells[c][g]) != p.cells[i]) bad[i] = true;
        }
      }
    }
    const std::size_t bad_cells =
        static_cast<std::size_t>(std::count(bad.begin(), bad.end(), true));
    failed_ += all_bad ? w_.sessions() : bad_cells * w_.sessions_per_window;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  const Workload& w_;
  const Reference* reference_;
  const OracleResult* oracle_;
  std::vector<CellRef> oracle_at_;
  bool inject_;
  std::vector<std::uint64_t> first_cells_;
  Artifacts first_artifacts_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- Output -----------------------------------------------------------------

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }

  /// The human-readable table, then the one-line JSON result.
  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    const double frac =
        attempted > 0 ? static_cast<double>(failed) / attempted : 1.0;
    for (const Metric& m : metrics_) {
      std::printf("  %-40s %18.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("  %-40s %18.6g %s (%llu of %llu sessions)\n",
                "ops_failed_frac", frac, "ratio",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
      if (i > 0) json += ", ";
      json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

// --- Profiler spans ---------------------------------------------------------

/// Executor and pool time of one traced pass, from the profiler's Chrome
/// trace-event JSON (obs/profile.cpp writes one "ph":"X" object per span).
struct Runtime {
  double map_s = 0.0;
  double fold_s = 0.0;
  double busy_s = 0.0;         ///< summed pool.participate over all slots
  double busy_imbalance = 1.0; ///< max / mean per-slot busy time
  double idle_frac = 0.0;      ///< 1 - busy / (threads * map)
};

Runtime parse_runtime(const std::string& json, std::size_t threads) {
  Runtime rt;
  std::map<unsigned, double> busy_by_slot;
  const std::string open = "{\"name\":\"";
  for (std::size_t pos = json.find(open); pos != std::string::npos;
       pos = json.find(open, pos + 1)) {
    const std::size_t name_at = pos + open.size();
    const std::size_t end = json.find('}', name_at);
    const std::string name =
        json.substr(name_at, json.find('"', name_at) - name_at);
    const std::string object = json.substr(pos, end - pos);
    if (object.find("\"ph\":\"X\"") == std::string::npos) continue;
    const std::size_t dur = object.find("\"dur\":");
    const std::size_t tid = object.find("\"tid\":");
    if (dur == std::string::npos || tid == std::string::npos) continue;
    const double dur_s = std::atof(object.c_str() + dur + 6) * 1e-6;
    const unsigned slot =
        static_cast<unsigned>(std::atoi(object.c_str() + tid + 6));
    if (name == "executor.map") rt.map_s += dur_s;
    if (name == "executor.fold") rt.fold_s += dur_s;
    if (name == "pool.participate") busy_by_slot[slot] += dur_s;
  }
  // A loop too small to share runs inline on the caller: no pool spans.
  if (busy_by_slot.empty()) busy_by_slot[0] = rt.map_s;
  double max_busy = 0.0;
  for (const auto& [slot, busy] : busy_by_slot) {
    rt.busy_s += busy;
    max_busy = std::max(max_busy, busy);
  }
  const double mean = rt.busy_s / static_cast<double>(threads);
  rt.busy_imbalance = mean > 0.0 ? max_busy / mean : 1.0;
  const double capacity = static_cast<double>(threads) * rt.map_s;
  rt.idle_frac = capacity > 0.0 ? 1.0 - rt.busy_s / capacity : 0.0;
  return rt;
}

// --- Runs -------------------------------------------------------------------

struct Setup {
  const Workload& w;
  const Options& opts;
  std::size_t threads;
  bool have_reference;
  Reference reference;
};

int timed_run(const Setup& s) {
  const Workload& w = s.w;
  const std::vector<CellRef> at = oracle_cells(w, s.opts.seed);
  OracleResult oracle;
  if (!s.have_reference) oracle = run_oracle(w, s.opts.seed, at);
  Checker checker(w, s.have_reference ? &s.reference : nullptr,
                  s.have_reference ? nullptr : &oracle, at,
                  s.opts.inject_mismatch);

  // One warm-up pass fills caches and the allocator; it is checked, not
  // timed.
  Pass warm = run_pass(w, s.opts.seed, s.threads, s.opts.work_dir, false);
  checker.check(warm);
  std::vector<double> rate, cpu, setup, calibration;
  double spent = 0.0;
  while (rate.size() < 3 || spent < s.opts.seconds) {
    Pass p = run_pass(w, s.opts.seed, s.threads, s.opts.work_dir, false);
    checker.check(p);
    spent += p.setup_s + p.run_s;
    const double sessions = static_cast<double>(w.sessions());
    rate.push_back(sessions / p.run_s);
    cpu.push_back(p.cpu_s / (sessions / 1000.0));
    setup.push_back(p.setup_s);
    calibration.push_back(p.calibration_s);
  }

  // Throughput and CPU cost are reported at the reference host speed: a
  // shared host drifts by tens of percent within minutes, and the gauge
  // measured next to each pass takes most of that drift out.
  const double host = median(calibration) / kReferenceCalibrationS;
  std::printf("e2ebench %s: seed %llu, %zu threads, %zu sessions/pass, "
              "%zu timed passes, reference %s\n"
              "  host slowdown %.4f (calibration %.6f s); as measured: "
              "%.1f sessions/s, %.6f s/ksession\n",
              w.name.c_str(), static_cast<unsigned long long>(s.opts.seed),
              s.threads, w.sessions(), rate.size(),
              s.have_reference ? "committed digests" : "replay oracle", host,
              median(calibration), median(rate), median(cpu));
  Report report;
  report.add("sessions_per_s", median(rate) * host, "sessions/s");
  report.add("cpu_s_per_ksession", median(cpu) / host, "s/ksession");
  report.add("setup_s", median(setup), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.print(checker.failed() == 0, checker.attempted(), checker.failed());
  return 0;
}

/// The registry counts of one traced pass.
struct Counts {
  double sessions = 0.0, chunks = 0.0, cursor_queries = 0.0,
         cursor_rewinds = 0.0, memo_hits = 0.0, memo_builds = 0.0,
         pool_loops = 0.0, chunks_claimed = 0.0, backlog_p50 = 0.0,
         backlog_p99 = 0.0;

  explicit Counts(const obs::MetricsSnapshot& snap) {
    using obs::Counter;
    auto get = [&](Counter c) { return static_cast<double>(snap.counter(c)); };
    sessions = get(Counter::kSessions);
    chunks = get(Counter::kChunksDownloaded);
    cursor_queries = get(Counter::kCursorQueries);
    cursor_rewinds = get(Counter::kCursorRewinds);
    memo_hits = get(Counter::kReservoirMemoHits);
    memo_builds = get(Counter::kReservoirMemoBuilds);
    pool_loops = get(Counter::kPoolLoops);
    chunks_claimed = get(Counter::kPoolChunksClaimed);
    const auto& backlog = snap.hist(obs::Hist::kExecutorBacklog);
    backlog_p50 = backlog.percentile(0.50);
    backlog_p99 = backlog.percentile(0.99);
  }

  /// The counts that must repeat exactly. Memo hits and builds are left
  /// out on their own: threads that first use a title's window-sum table
  /// at the same moment may each build it, so only their sum (the number
  /// of lookups) is a pure function of the workload.
  std::vector<double> exact() const {
    return {sessions,   cursor_queries, cursor_rewinds,
            chunks,     memo_hits + memo_builds,
            pool_loops, chunks_claimed, backlog_p50,
            backlog_p99};
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Keys per replay round of the traced run.
constexpr std::size_t kSampleKeys = 400;

int traced_run(const Setup& s) {
  const Workload& w = s.w;
  const std::uint64_t seed = s.opts.seed;
  const std::vector<CellRef> at = oracle_cells(w, seed);
  const OracleResult oracle = run_oracle(w, seed, at);
  const FoldLayers fold = measure_fold_layers(w, seed, oracle);
  Checker checker(w, s.have_reference ? &s.reference : nullptr, &oracle, at,
                  s.opts.inject_mismatch);

  const double n_keys = static_cast<double>(w.keys());
  const double n_sessions = static_cast<double>(w.sessions());
  const double threads = static_cast<double>(s.threads);
  Pass warm = run_pass(w, seed, s.threads, s.opts.work_dir, false);
  checker.check(warm);

  // Rounds of untraced pass, traced pass, replay of a fresh sample. Timing
  // each layer right next to the pass it explains keeps slow drift of the
  // host out of the ledger.
  std::vector<double> untraced_rate, traced_rate, map_s, fold_s, fold_frac,
      imbalance, idle, residual;
  Layers layers;
  std::optional<Counts> counts;
  bool exact = true;
  Pass last;
  double spent = 0.0;
  for (std::size_t round = 0; round < 2 || spent < s.opts.seconds; ++round) {
    Pass u = run_pass(w, seed, s.threads, s.opts.work_dir, false);
    checker.check(u);
    Pass t = run_pass(w, seed, s.threads, s.opts.work_dir, true);
    checker.check(t);
    const double replay_start = now_s();
    Layers sample;
    {
      // Bound to a scratch registry, so the replays pay the same counting
      // cost as the traced pass they are compared with.
      obs::MetricsRegistry scratch(1);
      obs::SlotBinding binding(&scratch, 0);
      sample = measure_layers(w, seed, kSampleKeys, round);
    }
    spent += u.setup_s + u.run_s + t.setup_s + t.run_s +
             (now_s() - replay_start);
    untraced_rate.push_back(n_sessions / u.run_s);
    traced_rate.push_back(n_sessions / t.run_s);

    // Ledger: sampled self-times extrapolated to the run, plus executor
    // idle time, against threads x map wall + fold wall. An observed run
    // simulates its traced sessions a second time on the scalar path with
    // the trace sink attached, and encodes them.
    const Runtime rt = parse_runtime(t.profile_json, s.threads);
    double map_ns = n_keys * sample.map_ns_per_key();
    if (w.observed) {
      map_ns += static_cast<double>(t.traced_sessions) *
                (sample.session_ns() + sample.btrace_ns / sample.sessions);
    }
    const double fold_ns =
        n_sessions * (fold.cell_fold_ns + fold.timeline_ns + fold.monitor_ns);
    const double idle_s = threads * rt.map_s - rt.busy_s;
    const double ledger_s = (map_ns + fold_ns) * 1e-9 + idle_s;
    const double measured_s = threads * rt.map_s + rt.fold_s;
    map_s.push_back(rt.map_s);
    fold_s.push_back(rt.fold_s);
    fold_frac.push_back(ratio(rt.fold_s, rt.map_s + rt.fold_s));
    imbalance.push_back(rt.busy_imbalance);
    idle.push_back(rt.idle_frac);
    residual.push_back(ratio(measured_s - ledger_s, measured_s));

    const Counts c(t.snapshot);
    if (!counts) counts.emplace(c);
    if (c.exact() != counts->exact()) {
      exact = false;
      std::fprintf(stderr, "e2ebench: registry counts differ between "
                           "traced passes\n");
    }
    layers.merge(sample);
    last = std::move(t);
  }

  // Checkpoint I/O on the last pass's final state (observed workloads).
  double save_ms = 0.0, load_ms = 0.0;
  if (w.observed) {
    const std::string path = checkpoint_path(s.opts.work_dir);
    const std::string resave = s.opts.work_dir + "/resave.bbackpt";
    exp::Checkpoint ck;
    std::string error;
    std::vector<double> saves, loads;
    for (int r = 0; r < 5; ++r) {
      double t0 = now_s();
      if (!exp::load_checkpoint(path, &ck, &error)) {
        std::fprintf(stderr, "e2ebench: %s\n", error.c_str());
        return 1;
      }
      loads.push_back((now_s() - t0) * 1e3);
      t0 = now_s();
      if (!exp::save_checkpoint(ck, resave, &error)) {
        std::fprintf(stderr, "e2ebench: %s\n", error.c_str());
        return 1;
      }
      saves.push_back((now_s() - t0) * 1e3);
    }
    save_ms = median(saves);
    load_ms = median(loads);
  }

  std::printf("e2ebench %s (traced): seed %llu, %zu threads, "
              "%zu sessions/pass, %zu rounds, %.0f sampled keys\n",
              w.name.c_str(), static_cast<unsigned long long>(seed),
              s.threads, w.sessions(), residual.size(), layers.keys);
  double player_ns = 0.0, metrics_fold_ns = 0.0;
  for (std::size_t g = 0; g < w.groups.size(); ++g) {
    player_ns += layers.player_ns[g];
    metrics_fold_ns += layers.fold_ns[g];
  }
  Report r;
  r.add("exp.draw_ns_per_session", ratio(layers.draw_ns, layers.sessions),
        "ns");
  r.add("net.trace_materialize_ns_per_session",
        ratio(layers.trace_ns, layers.sessions), "ns");
  r.add("net.segments_per_session", ratio(layers.segments, layers.keys),
        "count");
  r.add("net.cursor_rewind_ratio",
        ratio(counts->cursor_rewinds, counts->cursor_queries), "ratio");
  for (const std::string& name : all_group_names()) {
    double ns = 0.0;
    for (std::size_t g = 0; g < w.groups.size(); ++g) {
      if (w.groups[g] == name) {
        ns = ratio(layers.decide_ns[g], layers.decisions[g]);
      }
    }
    r.add("abr.decide_ns." + name, ns, "ns");
  }
  r.add("core.reservoir_memo_hit_ratio",
        ratio(counts->memo_hits, counts->memo_hits + counts->memo_builds),
        "ratio");
  r.add("sim.player_ns_per_chunk", ratio(player_ns, layers.chunks), "ns");
  r.add("sim.chunks_per_session", ratio(layers.chunks, layers.sessions),
        "count");
  r.add("sim.metrics_fold_ns_per_chunk", ratio(metrics_fold_ns, layers.chunks),
        "ns");
  r.add("exp.cell_fold_ns_per_session", fold.cell_fold_ns, "ns");
  r.add("obs.timeline_ns_per_session", fold.timeline_ns, "ns");
  r.add("obs.monitor_ns_per_session", fold.monitor_ns, "ns");
  r.add("obs.btrace_encode_ns_per_session",
        ratio(layers.btrace_ns, layers.sessions), "ns");
  r.add("obs.btrace_bytes_per_session",
        ratio(layers.btrace_bytes, layers.sessions), "bytes");
  r.add("obs.jsonl_encode_ns_per_session",
        ratio(layers.jsonl_ns, layers.sessions), "ns");
  r.add("obs.artifact_bytes_per_session",
        static_cast<double>(last.artifacts.total_bytes()) / n_sessions,
        "bytes");
  r.add("exp.checkpoint_save_ms", save_ms, "ms");
  r.add("exp.checkpoint_load_ms", load_ms, "ms");
  r.add("exp.checkpoint_bytes", static_cast<double>(last.artifacts.bytes[3]),
        "bytes");
  r.add("runtime.map_s", median(map_s), "s");
  r.add("runtime.fold_s", median(fold_s), "s");
  r.add("runtime.fold_frac", median(fold_frac), "ratio");
  r.add("runtime.busy_imbalance", median(imbalance), "ratio");
  r.add("runtime.idle_frac", median(idle), "ratio");
  r.add("runtime.pool_loops", counts->pool_loops, "count");
  r.add("runtime.chunks_claimed", counts->chunks_claimed, "count");
  r.add("runtime.backlog_p50", counts->backlog_p50, "count");
  r.add("runtime.backlog_p99", counts->backlog_p99, "count");
  r.add("count.sessions", counts->sessions, "count");
  r.add("count.chunks_downloaded", counts->chunks, "count");
  r.add("count.cursor_queries", counts->cursor_queries, "count");
  r.add("count.cursor_rewinds", counts->cursor_rewinds, "count");
  r.add("count.memo_hits", counts->memo_hits, "count");
  r.add("count.memo_builds", counts->memo_builds, "count");
  r.add("count.exact_repeat", exact ? 1.0 : 0.0, "flag");
  r.add("ledger.residual_frac", median(residual), "ratio");
  r.add("ledger.tracing_overhead_frac",
        ratio(median(untraced_rate), median(traced_rate)) - 1.0, "ratio");
  r.print(checker.failed() == 0 && layers.mismatches == 0,
          checker.attempted(), checker.failed());
  return 0;
}

/// Prints the digest-file lines of one pass, after checking the pass
/// against the replay oracle.
int emit_reference(const Setup& s) {
  const std::vector<CellRef> at = oracle_cells(s.w, s.opts.seed);
  const OracleResult oracle = run_oracle(s.w, s.opts.seed, at);
  Checker checker(s.w, nullptr, &oracle, at, false);
  Pass p = run_pass(s.w, s.opts.seed, s.threads, s.opts.work_dir, false);
  checker.check(p);
  if (checker.failed() != 0) {
    std::fprintf(stderr, "e2ebench: %s disagrees with the replay oracle\n",
                 s.w.name.c_str());
    return 1;
  }
  std::fputs(reference_lines(s.w, s.opts.seed, p.cells,
                             s.w.observed ? &p.artifacts : nullptr)
                 .c_str(),
             stdout);
  return 0;
}

/// The determinism contract: cells (and artifacts) are identical at 1 and
/// 4 threads.
int check_threads(const Setup& s) {
  const Pass one = run_pass(s.w, s.opts.seed, 1, s.opts.work_dir, false);
  const Pass four = run_pass(s.w, s.opts.seed, 4, s.opts.work_dir, false);
  const bool same = one.cells == four.cells && one.artifacts == four.artifacts;
  std::printf("%s: %zu cells, 1 vs 4 threads %s\n", s.w.name.c_str(),
              one.cells.size(), same ? "identical" : "DIFFER");
  return same ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const Options opts = parse_args(argc, argv);
  const Workload* found = find_workload(opts.workload);
  if (found == nullptr) usage_error("unknown or missing --workload");
  Workload w = *found;
  w.sessions_per_window = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             opts.scale * static_cast<double>(w.sessions_per_window))));

  Setup s{w, opts, capped_threads(w.threads), false, {}};
  if (opts.check_threads) return check_threads(s);
  if (opts.emit_reference) return emit_reference(s);
  s.have_reference = !opts.digests.empty() &&
                     load_reference(opts.digests, w, opts.seed, &s.reference);
  return opts.trace == 1 ? traced_run(s) : timed_run(s);
}
