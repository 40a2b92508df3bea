// bba_session: simulate one viewing session from the command line.
//
//   bba_session [--abr NAME] [--trace FILE.csv] [--video FILE.csv]
//               [--watch MINUTES] [--seed S] [--repro DAY,WINDOW,SESSION]
//               [--log out.csv]
//
// With no --trace, generates a Markov trace (--median-kbps, --sigma);
// with no --video, generates a synthetic VBR title. Prints the session
// metrics; --log writes the per-chunk record.
//
// --repro DAY,WINDOW,SESSION reconstructs the exact environment, capacity
// trace, title, and watch duration that the A/B harness (bba_abtest with
// default population/workload and the standard library) gives session
// (DAY, WINDOW, SESSION) under experiment seed --seed: all streams are
// pure functions of those coordinates, so the replay is bit-exact.
//
// --repro-trace FILE reads a session trace written by `bba_abtest
// --trace-out` -- JSONL or the btrace binary container (sniffed by magic;
// binary files resolve --repro-pick through the footer index, no scan) --
// and replays its first anomalous session (or the one picked with
// --repro-pick N) the same way: the header line carries the
// grid coordinates and group, which are all a bit-exact replay needs. The
// replay prints a Fig. 4-style chunk timeline -- the paper's case-study
// plot recovered from one line of a production-style trace.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "cli_parse.hpp"
#include "exp/abtest.hpp"
#include "exp/population.hpp"
#include "exp/session_key.hpp"
#include "exp/workload.hpp"
#include "media/table_io.hpp"
#include "media/video.hpp"
#include "net/fault_inject.hpp"
#include "net/trace_gen.hpp"
#include "net/trace_io.hpp"
#include "obs/btrace.hpp"
#include "obs/setup.hpp"
#include "obs/trace.hpp"
#include "sim/metrics.hpp"
#include "sim/player.hpp"
#include "sim/qoe.hpp"
#include "sim/session_sink.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/text_scanner.hpp"
#include "util/units.hpp"

namespace {

using namespace bba;

/// One "ev":"session" header line from a --trace-out JSONL file.
struct TraceSessionRef {
  std::uint64_t seed = 0, day = 0, window = 0, session = 0;
  std::string group;
  bool anomaly = false;
};

/// The header prefix obs::jsonl::append_session_line writes, up to the
/// anomaly flag, read in its key order.
bool parse_session_header(std::string_view line, TraceSessionRef* ref) {
  util::TextScanner s(line);
  bool sampled = false;
  return s.lit("{\"ev\":\"session\",\"seed\":") && s.u64(&ref->seed) &&
         s.lit(",\"day\":") && s.u64(&ref->day) && s.lit(",\"window\":") &&
         s.u64(&ref->window) && s.lit(",\"session\":") &&
         s.u64(&ref->session) && s.lit(",\"group\":") &&
         s.quoted(&ref->group) && s.lit(",\"sampled\":") &&
         s.flag(&sampled) && s.lit(",\"anomaly\":") && s.flag(&ref->anomaly);
}

/// Selects a session from a btrace file via the footer index: no block is
/// decoded, and a --repro-pick N lookup is a single index access.
bool select_btrace_session(const std::string& path, long pick,
                           TraceSessionRef* out) {
  obs::BtraceReader reader;
  std::string error;
  if (!reader.open(path, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
  }
  const std::size_t n = reader.session_count();
  long found_at = -1;
  long anomalies = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!reader.entry(i).anomaly) continue;
    ++anomalies;
    if (pick < 0 && found_at < 0) found_at = static_cast<long>(i);
  }
  if (pick >= 0) found_at = pick < static_cast<long>(n) ? pick : -1;
  if (found_at < 0) {
    std::fprintf(stderr,
                 "%s: %zu session headers, %ld anomalous; %s\n", path.c_str(),
                 n, anomalies,
                 pick >= 0 ? "--repro-pick out of range"
                           : "no anomalous session to replay "
                             "(use --repro-pick N)");
    return false;
  }
  const obs::BtraceEntry& e = reader.entry(static_cast<std::size_t>(found_at));
  out->seed = e.seed;
  out->day = e.day;
  out->window = e.window;
  out->session = e.session;
  out->group = reader.group_name(e.group_id);
  out->anomaly = e.anomaly;
  return true;
}

/// Scans a trace JSONL file for session headers. `pick` < 0 selects the
/// first anomalous session; otherwise the pick-th header (0-based).
/// Dispatches to the btrace footer index when the file sniffs binary.
bool select_trace_session(const std::string& path, long pick,
                          TraceSessionRef* out) {
  if (obs::BtraceReader::sniff(path)) {
    return select_btrace_session(path, pick, out);
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "could not read trace %s\n", path.c_str());
    return false;
  }
  std::string line;
  long seen = 0;
  long anomalies = 0;
  bool found = false;
  while (std::getline(in, line)) {
    if (line.rfind("{\"ev\":\"session\",", 0) != 0) continue;
    TraceSessionRef ref;
    if (!parse_session_header(line, &ref)) {
      std::fprintf(stderr, "malformed session header in %s\n", path.c_str());
      return false;
    }
    if (ref.anomaly) ++anomalies;
    const bool hit = pick >= 0 ? seen == pick : (ref.anomaly && !found);
    if (hit && !found) {
      *out = ref;
      found = true;
    }
    ++seen;
  }
  if (!found) {
    std::fprintf(stderr,
                 "%s: %ld session headers, %ld anomalous; %s\n", path.c_str(),
                 seen, anomalies,
                 pick >= 0 ? "--repro-pick out of range"
                           : "no anomalous session to replay "
                             "(use --repro-pick N)");
    return false;
  }
  return true;
}

/// Fig. 4-style chunk timeline: video rate and buffer after every chunk
/// completion, with OFF waits, rate switches, and stalls interleaved.
void print_timeline(const sim::SessionResult& session) {
  std::printf("\n%10s %6s %10s %9s %11s %8s\n", "t_s", "chunk", "rate_kbps",
              "buffer_s", "tput_kbps", "dl_s");
  std::size_t ri = 0;
  const auto& stalls = session.rebuffers;
  auto stalls_before = [&](double t) {
    while (ri < stalls.size() && stalls[ri].start_s <= t) {
      const auto& r = stalls[ri++];
      std::printf("%10.2f %6zu  -- stall %.2f s --%s\n", r.start_s,
                  r.chunk_index, r.duration_s,
                  r.during_fault ? "  [fault]" : "");
    }
  };
  bool has_prev = false;
  std::size_t prev_rate = 0;
  for (const auto& c : session.chunks) {
    if (c.off_wait_s > 0.0) {
      std::printf("%10.2f %6zu  -- off wait %.2f s --\n",
                  c.request_s - c.off_wait_s, c.index, c.off_wait_s);
    }
    stalls_before(c.finish_s);
    std::printf("%10.2f %6zu %10.0f %9.2f %11.0f %8.3f%s\n", c.finish_s,
                c.index, util::to_kbps(c.rate_bps), c.buffer_after_s,
                util::to_kbps(c.throughput_bps), c.download_s,
                has_prev && c.rate_index != prev_rate ? "  *switch" : "");
    prev_rate = c.rate_index;
    has_prev = true;
  }
  stalls_before(std::numeric_limits<double>::infinity());
}

}  // namespace

int main(int argc, char** argv) {
  std::string abr_name = "bba2";
  std::string trace_path;
  std::string video_path;
  std::string log_path;
  double watch_min = 30.0;
  double median_kbps = 3000.0;
  double sigma = 0.8;
  // The experiment flags this tool takes: --seed (default 1) and --faults.
  exp::AbTestConfig run;
  run.seed = 1;
  std::uint64_t& seed = run.seed;
  const net::FaultPlan& faults_plan = run.population.faults;
  bool repro = false;
  unsigned long long repro_day = 0, repro_window = 0, repro_session = 0;
  std::string repro_trace_path;
  long repro_pick = -1;
  bool timeline = false;
  obs::ObsOptions obs_opts;

  for (int i = 1; i < argc; ++i) {
    if (tools::consume_experiment_arg(argc, argv, i, &run,
                                      tools::kSeedFlag | tools::kFaultsFlag) ||
        obs_opts.consume_arg(argc, argv, i)) {
      continue;
    }
    const std::string arg = argv[i];
    auto next = [&] { return util::flag_value_or_exit(argc, argv, i); };
    if (arg == "--abr") {
      abr_name = next();
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--video") {
      video_path = next();
    } else if (arg == "--watch") {
      const char* v = next();
      if (!util::parse_num(v, &watch_min) || !(watch_min > 0.0)) {
        std::fprintf(stderr, "--watch: expects positive minutes, got '%s'\n",
                     v);
        return 2;
      }
    } else if (arg == "--median-kbps") {
      const char* v = next();
      if (!util::parse_num(v, &median_kbps) || !(median_kbps > 0.0)) {
        std::fprintf(stderr, "--median-kbps: expects a positive rate, "
                             "got '%s'\n", v);
        return 2;
      }
    } else if (arg == "--sigma") {
      const char* v = next();
      if (!util::parse_num(v, &sigma) || !(sigma >= 0.0)) {
        std::fprintf(stderr, "--sigma: expects sigma >= 0, got '%s'\n", v);
        return 2;
      }
    } else if (arg == "--repro") {
      const char* v = next();
      std::uint64_t coords[3];
      if (!tools::parse_coords(v, coords)) {
        std::fprintf(stderr, "--repro needs DAY,WINDOW,SESSION, got '%s'\n",
                     v);
        return 2;
      }
      repro_day = coords[0];
      repro_window = coords[1];
      repro_session = coords[2];
      repro = true;
    } else if (arg == "--repro-trace") {
      repro_trace_path = next();
    } else if (arg == "--repro-pick") {
      const char* v = next();
      std::uint64_t n = 0;
      if (!util::parse_u64(v, &n) ||
          n > static_cast<std::uint64_t>(std::numeric_limits<long>::max())) {
        std::fprintf(stderr, "--repro-pick: expects a session index, "
                             "got '%s'\n", v);
        return 2;
      }
      repro_pick = static_cast<long>(n);
    } else if (arg == "--timeline") {
      timeline = true;
    } else if (arg == "--log") {
      log_path = next();
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--abr NAME] [--trace FILE] [--video FILE]\n"
          "          [--watch MIN] [--median-kbps K] [--sigma S]\n"
          "          [--repro DAY,WINDOW,SESSION] [--log out.csv]\n"
          "          [--repro-trace FILE.{jsonl,btrace}] [--repro-pick N]\n"
          "          [--timeline]\n"
          "%s%s"
          "--repro replays the exact session the A/B harness runs at those\n"
          "grid coordinates for --seed (default population and library).\n"
          "--repro-trace replays the first anomalous session of a\n"
          "  bba_abtest --trace-out file (or the Nth header with\n"
          "  --repro-pick) and prints its Fig. 4-style chunk timeline.\n"
          "--faults: to replay a session from a fault-injected harness\n"
          "  run, pass the run's --faults spec so the trace reconstructs\n"
          "  bit-exact.\n",
          argv[0],
          tools::experiment_usage(tools::kSeedFlag | tools::kFaultsFlag)
              .c_str(),
          obs::ObsOptions::usage());
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }
  if (!repro_trace_path.empty()) {
    if (repro) {
      std::fprintf(stderr, "--repro-trace is exclusive with --repro\n");
      return 2;
    }
    TraceSessionRef ref;
    if (!select_trace_session(repro_trace_path, repro_pick, &ref)) return 1;
    seed = ref.seed;
    repro_day = ref.day;
    repro_window = ref.window;
    repro_session = ref.session;
    abr_name = ref.group;
    repro = true;
    timeline = true;
    std::printf("replaying %s session (seed %llu, day %llu, window %llu, "
                "session %llu, group %s) from %s\n",
                ref.anomaly ? "anomalous" : "traced",
                static_cast<unsigned long long>(seed), repro_day, repro_window,
                repro_session, ref.group.c_str(), repro_trace_path.c_str());
  }
  if (repro && repro_window >= exp::kWindowsPerDay) {
    std::fprintf(stderr, "--repro window must be < %zu\n",
                 exp::kWindowsPerDay);
    return 2;
  }

  const exp::AbrFactory factory = exp::abr_factory(abr_name);
  if (!factory) {
    std::fprintf(stderr, "unknown --abr: %s\n", abr_name.c_str());
    return 2;
  }
  const std::unique_ptr<abr::RateAdaptation> abr = factory();

  util::Rng rng(seed);
  std::optional<net::CapacityTrace> trace;
  std::optional<media::Video> video;
  net::FaultScratch fault_scratch;
  double watch_s = watch_min * 60.0;
  std::string source_label;

  if (repro) {
    if (!trace_path.empty() || !video_path.empty()) {
      std::fprintf(stderr, "--repro is exclusive with --trace/--video\n");
      return 2;
    }
    // Re-derive the session exactly as exp::run_ab_test does: every stream
    // is a pure function of (seed, day, window, session).
    const exp::SessionKey key{seed, repro_day, repro_window, repro_session};
    exp::PopulationConfig pop_cfg;
    pop_cfg.faults = faults_plan;
    const exp::Population population(std::move(pop_cfg));
    const exp::UserEnvironment env = population.environment_for(key);
    trace = population.trace_for(env, key);
    population.inject_faults(key, fault_scratch, *trace);
    const media::VideoLibrary library = media::VideoLibrary::standard(11);
    const exp::SessionSpec spec =
        exp::session_for(library, exp::WorkloadConfig{}, key);
    video = library.at(spec.video_index);
    watch_s = spec.watch_duration_s;
    source_label = util::format("(repro day %llu window %llu session %llu)",
                                repro_day, repro_window, repro_session);
  }

  if (!trace) {
    if (!trace_path.empty()) {
      trace = net::read_trace_csv(trace_path);
      if (!trace) {
        std::fprintf(stderr, "could not read trace %s\n", trace_path.c_str());
        return 1;
      }
    } else {
      net::MarkovTraceConfig cfg;
      cfg.median_bps = util::kbps(median_kbps);
      cfg.sigma_log = sigma;
      trace = net::make_markov_trace(cfg, rng);
    }
    if (!faults_plan.empty()) {
      // Same substream the harness uses; coordinates (0, 0, 0) outside
      // --repro, so standalone runs are still deterministic in --seed.
      util::Rng fault_rng = exp::session_rng(
          exp::SessionKey{seed, repro_day, repro_window, repro_session},
          exp::StreamClass::kFaults);
      net::apply_fault_plan(trace->segments(), faults_plan, fault_rng,
                            fault_scratch, fault_scratch.result,
                            &fault_scratch.events);
      trace->assign(fault_scratch.result, trace->loops());
    }
  }

  if (!video) {
    if (!video_path.empty()) {
      video = media::read_chunk_table_csv(video_path, video_path);
      if (!video) {
        std::fprintf(stderr, "could not read video %s\n", video_path.c_str());
        return 1;
      }
    } else {
      video = media::make_vbr_video("synthetic",
                                    media::EncodingLadder::netflix_2013(),
                                    1500, 4.0, media::VbrConfig{}, rng);
    }
  }

  sim::PlayerConfig player;
  player.watch_duration_s = watch_s;
  if (!faults_plan.empty()) player.faults = &fault_scratch.events;
  obs::ObsScope obs_scope(obs_opts, 1);
  if (!obs_scope.ok()) return 1;

  sim::SessionResult session;
  {
    sim::RecordingSink recorder(&session);
    obs::TraceCollector* collector =
        obs_scope.active() && obs_scope.handle()->trace != nullptr &&
                obs_scope.handle()->trace->ok()
            ? obs_scope.handle()->trace.get()
            : nullptr;
    if (collector != nullptr) {
      // Trace this session unconditionally (the tool runs exactly one):
      // `bba_session --repro ... --trace-out one.jsonl` round-trips with
      // --repro-trace.
      std::unique_ptr<obs::SessionTraceSink> trace_sink =
          collector->make_sink();
      trace_sink->begin(collector->config(), seed, repro_day, repro_window,
                        repro_session, abr_name, /*sampled=*/true);
      if (!faults_plan.empty()) {
        trace_sink->set_faults(&fault_scratch.events,
                               trace->cycle_duration_s(), trace->loops());
      }
      sim::TeeSink tee(recorder, *trace_sink);
      sim::simulate_session(*video, *trace, *abr, player, tee);
      std::string lines;
      if (trace_sink->finish(&lines)) {
        collector->note_session(trace_sink->anomalous());
        collector->write(lines);
        collector->flush();
      }
    } else {
      sim::simulate_session(*video, *trace, *abr, player, recorder);
    }
  }
  const sim::SessionMetrics m = sim::compute_metrics(session);

  // Fold the one session into the fleet timeline at its grid coordinates
  // ((0,0,0) outside --repro), so --timeline-out works here too.
  if (obs_scope.active() && obs_scope.handle()->timeline != nullptr) {
    obs::TimelineAggregator* tl = obs_scope.handle()->timeline.get();
    tl->begin_run(seed, std::vector<std::string>{abr_name},
                  static_cast<std::size_t>(repro_day) + 1,
                  exp::kWindowsPerDay);
    tl->record(static_cast<std::size_t>(repro_day),
               static_cast<std::size_t>(repro_window), 0, m);
  }
  // Same deal for --alerts-out: one session still exercises the full
  // monitor fold (cell close + detectors), it just never alerts -- the
  // detectors need `warmup` cells of baseline first.
  if (obs_scope.active() && obs_scope.handle()->monitor != nullptr) {
    obs::HealthMonitor* mon = obs_scope.handle()->monitor.get();
    mon->begin_run(seed, std::vector<std::string>{abr_name},
                   static_cast<std::size_t>(repro_day) + 1,
                   exp::kWindowsPerDay);
    mon->record(static_cast<std::size_t>(repro_day),
                static_cast<std::size_t>(repro_window), 0,
                static_cast<std::uint64_t>(repro_session), m);
  }

  std::printf("abr=%s  trace=%s  video=%s\n", abr->name().c_str(),
              repro ? source_label.c_str()
                    : trace_path.empty() ? "(generated)" : trace_path.c_str(),
              repro ? source_label.c_str()
                    : video_path.empty() ? "(generated)" : video_path.c_str());
  std::printf("played            %.1f min (join %.2f s)%s\n",
              m.play_s / 60.0, m.join_s,
              m.abandoned ? "  [ABANDONED]" : "");
  std::printf("rebuffers         %lld (%.1f s; %.2f per playhour)\n",
              m.rebuffer_count, m.rebuffer_s, m.rebuffers_per_hour);
  if (!faults_plan.empty()) {
    std::printf("faults injected   %zu (%lld of %lld stalls during faults)\n",
                fault_scratch.events.size(), m.fault_stall_count,
                m.rebuffer_count);
  }
  std::printf("avg video rate    %.0f kb/s (startup %.0f, steady %.0f)\n",
              util::to_kbps(m.avg_rate_bps),
              util::to_kbps(m.startup_rate_bps),
              util::to_kbps(m.steady_rate_bps));
  std::printf("switches          %lld (%.1f per playhour)\n",
              m.switch_count, m.switches_per_hour);
  std::printf("QoE (linear)      %.2f\n", sim::qoe_score(m));
  if (timeline) print_timeline(session);

  if (!log_path.empty()) {
    util::CsvWriter log(log_path);
    if (!log.ok()) {
      std::fprintf(stderr, "could not write %s\n", log_path.c_str());
      return 1;
    }
    log.row(std::vector<std::string>{"finish_s", "chunk", "rate_kbps",
                                     "buffer_s", "throughput_kbps",
                                     "download_s"});
    for (const auto& c : session.chunks) {
      log.row(std::vector<double>{c.finish_s, static_cast<double>(c.index),
                                  util::to_kbps(c.rate_bps),
                                  c.buffer_after_s,
                                  util::to_kbps(c.throughput_bps),
                                  c.download_s});
    }
    if (!log.close()) {
      std::fprintf(stderr, "could not write %s\n", log_path.c_str());
      return 1;
    }
    std::printf("per-chunk log     %s\n", log_path.c_str());
  }
  return obs_scope.finish() ? 0 : 1;
}
