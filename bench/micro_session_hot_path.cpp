// micro_session_hot_path: sessions/sec and heap allocations/session of the
// A/B harness hot path, recorded sink vs streaming sink, at 1 and N
// threads. Emits BENCH_session_hot_path.json (cwd; --out overrides).
//
//   micro_session_hot_path [--sessions N] [--passes N] [--out PATH]
//
// The recorded path reproduces the pre-optimisation main loop: a fresh
// CapacityTrace by value, a fresh BBA-2 that rescans the reservoir window
// on every decision (this file's ScanningBba2), a SessionResult recording
// every chunk, then compute_metrics. The streaming path is what
// run_ab_test now does: per-thread scratch (TraceScratch +
// CapacityTrace::assign + a reused Bba2 reading its title's decision
// table) feeding a StreamingMetricsSink. Both produce bit-identical
// SessionMetrics, which this binary also checks.
// Allocations are counted by interposing global operator new in this
// binary; the strict single-thread pass checks the MAXIMUM allocations of
// any one steady-state session, which must be exactly zero. Observability
// is compiled into the instrumented libraries (obs::count in the player /
// cursor / reservoir paths), so the streaming rows double as proof that the
// disabled instruments cost nothing measurable and allocate nothing. A
// third mode, streaming_obs, runs with metrics bound and 1-in-64 session
// tracing live (serialization on, output discarded) and reports the
// overhead fraction against plain streaming -- the ISSUE budget is <5%.
// Two full-population rows (jsonl_full_trace / btrace_full_trace) serialize
// EVERY session (--trace-sample 1) through each sink format and record
// bytes/session; the btrace encoder must stay >=5x smaller than JSONL (a
// hard exit -- bytes are deterministic, unlike timings). A
// streaming_timeline row folds every session into a TimelineAggregator and
// enforces the fleet-telemetry budget as hard exits: zero steady-state
// allocations and <=5% overhead over plain streaming. A streaming_monitor
// row does the same for the fleet health monitor (cell fold + top-K
// offender tracking; docs/monitoring.md) under a quiet spec, with the
// same two hard exits (monitor_overhead_frac).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "core/bba2.hpp"
#include "core/reservoir.hpp"
#include "exp/abtest.hpp"
#include "exp/population.hpp"
#include "exp/session_key.hpp"
#include "exp/workload.hpp"
#include "media/video.hpp"
#include "net/search_source.hpp"
#include "net/trace_gen.hpp"
#include "obs/btrace.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/obs.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "runtime/session_executor.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/metrics.hpp"
#include "sim/player.hpp"
#include "sim/session_sink.hpp"
#include "sim/simulate.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: every operator new in this binary bumps the counter
// while counting is enabled. delete is left uncounted (frees are the
// mirror of the allocations we already count).
namespace {
std::atomic<long long> g_allocs{0};
std::atomic<bool> g_counting{false};

inline void count_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

void* operator new(std::size_t size) {
  count_alloc();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  count_alloc();
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               (size + static_cast<std::size_t>(align) - 1) &
                                   ~(static_cast<std::size_t>(align) - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

// ---------------------------------------------------------------------------
namespace {

using namespace bba;

struct BenchSetup {
  exp::Population population;
  const media::VideoLibrary* library = nullptr;
  exp::WorkloadConfig workload;
  sim::PlayerConfig player;
  std::uint64_t seed = 2014;
  std::size_t sessions = 0;  // one day x 12 windows x sessions_per_window
  std::size_t sessions_per_window = 0;
};

exp::SessionKey key_of(const BenchSetup& setup, std::size_t task) {
  const std::size_t window = task / setup.sessions_per_window;
  const std::size_t user = task % setup.sessions_per_window;
  return exp::SessionKey{setup.seed, 0, window % exp::kWindowsPerDay, user};
}

// Chunk k's BBA decision inputs read from the ChunkTable, the reservoir
// window rescanned by core::raw_reservoir_s on every call.
struct ScanRow {
  const media::Video& video;
  std::size_t k;
  double lookahead_s;

  double raw_reservoir_s() const {
    const media::EncodingLadder& ladder = video.ladder();
    return core::raw_reservoir_s(video.chunks(), ladder.min_index(),
                                 ladder.rmin_bps(), k, lookahead_s);
  }
  double size_bits(std::size_t i) const {
    return video.chunks().size_bits(i, k);
  }
  std::size_t num_rates() const { return video.ladder().size(); }
  double chunk_min_mean() const {
    return video.chunks().mean_size_bits(video.ladder().min_index());
  }
  double chunk_max_mean() const {
    return video.chunks().mean_size_bits(video.ladder().max_index());
  }
  double chunk_duration_s() const { return video.chunk_duration_s(); }
};

// BBA-2's decision over ScanRow: the rates core::Bba2 chooses, with the
// historical per-decision reservoir scan instead of a decision table.
class ScanningBba2 final : public abr::RateAdaptation {
 public:
  std::size_t choose_rate(const abr::Observation& obs) override {
    return decision_.decide(
        obs, ScanRow{*obs.video, obs.chunk_index,
                     decision_.params().base.reservoir.lookahead_s});
  }
  void reset() override { decision_.reset(); }
  std::string name() const override { return "bba2-scan"; }

 private:
  core::BbaDecision decision_{core::Bba2{}.params()};
};

// The pre-optimisation hot path: everything constructed fresh per session,
// per-query binary search, the reservoir window rescanned on every
// decision, and a SessionResult recording every chunk, as the harness did
// before per-thread scratch, the trace cursor and the decision tables
// existed. The ABR and the sink stay behind their virtual interfaces.
void run_recorded(const BenchSetup& setup, std::size_t task,
                  sim::SessionMetrics* out) {
  const exp::SessionKey key = key_of(setup, task);
  const exp::UserEnvironment env = setup.population.environment_for(key);
  const net::CapacityTrace trace = setup.population.trace_for(env, key);
  const exp::SessionSpec spec =
      exp::session_for(*setup.library, setup.workload, key);
  const media::Video& video = setup.library->at(spec.video_index);
  sim::PlayerConfig player = setup.player;
  player.watch_duration_s = spec.watch_duration_s;
  const auto abr = std::make_unique<ScanningBba2>();
  abr::RateAdaptation& policy = *abr;
  // The exact worst case, reserved up front like the recording
  // simulate_session: one record per chunk, one stall per chunk in flight.
  sim::SessionResult res;
  res.chunks.reserve(video.num_chunks());
  res.rebuffers.reserve(video.num_chunks() + 1);
  sim::RecordingSink recording(&res);
  sim::SessionSink& sink = recording;
  sim::simulate(video, net::SearchSource{trace}, policy, player, sink);
  *out = sim::compute_metrics(res);
}

// The post-PR hot path: per-thread scratch, zero steady-state allocation.
struct Scratch {
  net::TraceScratch trace_scratch;
  net::CapacityTrace trace = net::CapacityTrace::constant(1.0);
  sim::StreamingMetricsSink sink;
  core::Bba2 abr;
};

void run_streaming(const BenchSetup& setup, std::size_t task, Scratch& s,
                   sim::SessionMetrics* out) {
  const exp::SessionKey key = key_of(setup, task);
  const exp::UserEnvironment env = setup.population.environment_for(key);
  setup.population.trace_for_into(env, key, s.trace_scratch, s.trace);
  const exp::SessionSpec spec =
      exp::session_for(*setup.library, setup.workload, key);
  sim::PlayerConfig player = setup.player;
  player.watch_duration_s = spec.watch_duration_s;
  sim::simulate_session(setup.library->at(spec.video_index), s.trace, s.abr,
                        player, s.sink);
  *out = s.sink.metrics();
}

// The streaming path with observability live: metrics slot bound by the
// caller, every session teed through a SessionTraceSink, sampled sessions
// serialized to JSONL and handed to a path-less collector (discarded, but
// the serialization cost is real).
void run_streaming_obs(const BenchSetup& setup, std::size_t task, Scratch& s,
                       obs::TraceCollector& collector,
                       obs::SessionTraceSink& trace_sink, std::string& lines,
                       sim::SessionMetrics* out) {
  const exp::SessionKey key = key_of(setup, task);
  const exp::UserEnvironment env = setup.population.environment_for(key);
  setup.population.trace_for_into(env, key, s.trace_scratch, s.trace);
  const exp::SessionSpec spec =
      exp::session_for(*setup.library, setup.workload, key);
  sim::PlayerConfig player = setup.player;
  player.watch_duration_s = spec.watch_duration_s;
  const media::Video& video = setup.library->at(spec.video_index);
  // Mirror run_ab_test's run-then-replay shape: the common case runs with
  // the plain sink and only sampled (or post-hoc anomalous) sessions are
  // re-simulated with the tee attached.
  const bool sampled =
      collector.sampled(key.seed, key.day, key.window, key.session);
  bool need_tee = sampled;
  if (!need_tee) {
    sim::simulate_session(video, s.trace, s.abr, player, s.sink);
    const sim::SessionMetrics& m = s.sink.metrics();
    need_tee = m.rebuffer_s >= collector.config().anomaly_rebuffer_s ||
               m.abandoned;
  }
  if (need_tee) {
    trace_sink.begin(collector.config(), key.seed, key.day, key.window,
                     key.session, "bba2", sampled);
    sim::TeeSink tee(s.sink, trace_sink);
    sim::simulate_session(video, s.trace, s.abr, player, tee);
    if (trace_sink.finish(&lines)) {
      collector.note_session(trace_sink.anomalous());
      collector.write(lines);
      lines.clear();  // capacity kept: zero steady-state allocation here too
    }
  }
  *out = s.sink.metrics();
}

bool metrics_identical(const sim::SessionMetrics& a,
                       const sim::SessionMetrics& b) {
  auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  return same(a.play_s, b.play_s) && same(a.join_s, b.join_s) &&
         a.rebuffer_count == b.rebuffer_count &&
         same(a.rebuffer_s, b.rebuffer_s) &&
         same(a.rebuffers_per_hour, b.rebuffers_per_hour) &&
         same(a.avg_rate_bps, b.avg_rate_bps) &&
         same(a.startup_rate_bps, b.startup_rate_bps) &&
         same(a.steady_rate_bps, b.steady_rate_bps) &&
         a.has_steady == b.has_steady &&
         same(a.steady_play_s, b.steady_play_s) &&
         a.switch_count == b.switch_count &&
         same(a.switches_per_hour, b.switches_per_hour) &&
         same(a.avg_buffer_s, b.avg_buffer_s) &&
         a.abandoned == b.abandoned;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Row {
  const char* mode;
  std::size_t threads;
  double seconds;
  double sessions_per_sec;
  double allocs_per_session;
};

}  // namespace

int main(int argc, char** argv) {
  exp::AbTestConfig dims;
  dims.sessions_per_window = 40;
  std::size_t passes = 3;
  std::string out_path = "BENCH_session_hot_path.json";
  bench::read_flags(
      argc, argv, &dims, tools::kSessionsFlag,
      "          [--passes N]  timed passes per mode (default 3)\n"
      "          [--out PATH]  (default BENCH_session_hot_path.json)\n",
      [&](int& i) {
        const std::string_view arg = argv[i];
        if (arg == "--passes") {
          const char* v = util::flag_value_or_exit(argc, argv, i);
          if (!tools::parse_count(v, &passes)) {
            std::fprintf(stderr,
                         "--passes: expects a positive pass count, got "
                         "'%s'\n",
                         v);
            std::exit(2);
          }
        } else if (arg == "--out") {
          out_path = util::flag_value_or_exit(argc, argv, i);
        } else {
          return false;
        }
        return true;
      });
  BenchSetup setup;
  setup.sessions_per_window = dims.sessions_per_window;
  const media::VideoLibrary library = media::VideoLibrary::standard(11);
  setup.library = &library;
  setup.sessions = exp::kWindowsPerDay * setup.sessions_per_window;
  const std::size_t hw = runtime::ThreadPool::hardware_threads();

  std::vector<sim::SessionMetrics> recorded(setup.sessions);
  std::vector<sim::SessionMetrics> streamed(setup.sessions);
  std::vector<Row> rows;

  // --- Strict single-thread passes: direct loops, per-session counters. --
  // Warmup pass grows every reusable buffer to the workload.
  Scratch scratch;
  for (std::size_t i = 0; i < setup.sessions; ++i) {
    run_streaming(setup, i, scratch, &streamed[i]);
    run_recorded(setup, i, &recorded[i]);
  }
  bool identical = true;
  for (std::size_t i = 0; i < setup.sessions; ++i) {
    identical = identical && metrics_identical(recorded[i], streamed[i]);
  }

  long long max_session_allocs = 0;
  {
    g_counting.store(true);
    for (std::size_t i = 0; i < setup.sessions; ++i) {
      const long long before = g_allocs.load();
      run_streaming(setup, i, scratch, &streamed[i]);
      max_session_allocs =
          std::max(max_session_allocs, g_allocs.load() - before);
    }
    g_counting.store(false);
  }

  auto time_direct = [&](const char* mode, auto&& body) {
    double best = 1e100;
    long long allocs = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      g_allocs.store(0);
      g_counting.store(true);
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < setup.sessions; ++i) body(i);
      const double s = seconds_since(start);
      g_counting.store(false);
      allocs = g_allocs.load();
      best = std::min(best, s);
    }
    rows.push_back({mode, 1, best,
                    static_cast<double>(setup.sessions) / best,
                    static_cast<double>(allocs) /
                        static_cast<double>(setup.sessions)});
  };
  time_direct("recorded", [&](std::size_t i) {
    run_recorded(setup, i, &recorded[i]);
  });
  time_direct("streaming", [&](std::size_t i) {
    run_streaming(setup, i, scratch, &streamed[i]);
  });

  // Calibration tallies of the player defaults (the trace cursor, the
  // decision tables): one instrumented pass over the workload, ratios
  // recorded in the JSON so a regression in cursor locality or table reuse
  // is visible in CI diffs even when timings are noisy.
  double cursor_rewind_ratio = 0.0, memo_hit_ratio = 0.0;
  {
    obs::MetricsRegistry calib_registry(1);
    {
      obs::SlotBinding bind(&calib_registry, 0);
      for (std::size_t i = 0; i < setup.sessions; ++i) {
        run_streaming(setup, i, scratch, &streamed[i]);
      }
    }
    const obs::MetricsSnapshot snap = calib_registry.snapshot();
    const double queries =
        static_cast<double>(snap.counter(obs::Counter::kCursorQueries));
    const double rewinds =
        static_cast<double>(snap.counter(obs::Counter::kCursorRewinds));
    const double hits =
        static_cast<double>(snap.counter(obs::Counter::kReservoirMemoHits));
    const double builds =
        static_cast<double>(snap.counter(obs::Counter::kReservoirMemoBuilds));
    if (queries > 0.0) cursor_rewind_ratio = rewinds / queries;
    if (hits + builds > 0.0) memo_hit_ratio = hits / (hits + builds);
  }

  // --- Observability-enabled streaming at 1 thread: the overhead budget. -
  {
    obs::Observability obs_handle;
    obs_handle.metrics = std::make_unique<obs::MetricsRegistry>(1);
    obs::TraceCollector collector(obs::TraceConfig{});  // sample=64, no file
    obs::SessionTraceSink trace_sink;
    std::string lines;
    std::vector<sim::SessionMetrics> obs_streamed(setup.sessions);
    obs::install(&obs_handle);
    {
      obs::SlotBinding bind(obs_handle.metrics.get(), 0);
      for (std::size_t i = 0; i < setup.sessions; ++i) {  // warmup
        run_streaming_obs(setup, i, scratch, collector, trace_sink, lines,
                          &obs_streamed[i]);
      }
      time_direct("streaming_obs", [&](std::size_t i) {
        run_streaming_obs(setup, i, scratch, collector, trace_sink, lines,
                          &obs_streamed[i]);
      });
    }
    obs::install(nullptr);
    for (std::size_t i = 0; i < setup.sessions; ++i) {
      identical = identical && metrics_identical(streamed[i], obs_streamed[i]);
    }
  }

  // --- Timeline-enabled streaming at 1 thread: fleet telemetry budget. --
  // The aggregator is pre-sized by begin_run, so the per-session record()
  // (cell adds + three sketch inserts) must allocate exactly nothing and
  // cost <=5% over plain streaming -- both hard exits below.
  long long max_timeline_allocs = 0;
  {
    obs::TimelineAggregator timeline;
    timeline.begin_run(setup.seed, {"bba2"}, 1, exp::kWindowsPerDay);
    std::vector<sim::SessionMetrics> tl_streamed(setup.sessions);
    auto run_one = [&](std::size_t i) {
      run_streaming(setup, i, scratch, &tl_streamed[i]);
      const exp::SessionKey key = key_of(setup, i);
      timeline.record(key.day, key.window, 0, tl_streamed[i]);
    };
    for (std::size_t i = 0; i < setup.sessions; ++i) run_one(i);  // warmup
    {
      g_counting.store(true);
      for (std::size_t i = 0; i < setup.sessions; ++i) {
        const long long before = g_allocs.load();
        run_one(i);
        max_timeline_allocs =
            std::max(max_timeline_allocs, g_allocs.load() - before);
      }
      g_counting.store(false);
    }
    time_direct("streaming_timeline", run_one);
    for (std::size_t i = 0; i < setup.sessions; ++i) {
      identical = identical && metrics_identical(streamed[i], tl_streamed[i]);
    }
  }

  // --- Health-monitor streaming at 1 thread: the alerting budget. -------
  // The per-session monitor cost is the cell fold plus top-K offender
  // tracking (insert into reserved arrays); detector math runs once per
  // cell close. Alert emission itself is an exceptional event (string
  // append + capture enqueue, like anomaly capture), so the spec below
  // sets unreachable thresholds to measure the steady-state path -- which
  // must allocate exactly nothing and cost <=5% over plain streaming,
  // both hard exits.
  long long max_monitor_allocs = 0;
  {
    obs::MonitorSpec quiet;
    std::string spec_err;
    if (!obs::MonitorSpec::parse(
            "ewma_k=1000000,cusum_h=1000000,slo_rebuffer_ratio=1000000,"
            "slo_join_s=1000000",
            &quiet, &spec_err)) {
      std::fprintf(stderr, "bad monitor bench spec: %s\n", spec_err.c_str());
      return 1;
    }
    obs::HealthMonitor monitor(quiet);
    // A configured monitor only folds forward, so each pass over the
    // workload plays as its own synthetic day; pre-declaring the full day
    // span keeps the cell grid growth out of the measured loop.
    const std::size_t monitor_days = passes + 8;
    monitor.begin_run(setup.seed, {"bba2"}, monitor_days,
                      exp::kWindowsPerDay);
    std::size_t monitor_day = 0, next_day = 0;
    std::vector<sim::SessionMetrics> mon_streamed(setup.sessions);
    auto run_one = [&](std::size_t i) {
      if (i == 0) monitor_day = next_day++;
      run_streaming(setup, i, scratch, &mon_streamed[i]);
      const exp::SessionKey key = key_of(setup, i);
      monitor.record(monitor_day, key.window, 0, key.session,
                     mon_streamed[i]);
    };
    for (std::size_t i = 0; i < setup.sessions; ++i) run_one(i);  // warmup
    {
      g_counting.store(true);
      for (std::size_t i = 0; i < setup.sessions; ++i) {
        const long long before = g_allocs.load();
        run_one(i);
        max_monitor_allocs =
            std::max(max_monitor_allocs, g_allocs.load() - before);
      }
      g_counting.store(false);
    }
    time_direct("streaming_monitor", run_one);
    for (std::size_t i = 0; i < setup.sessions; ++i) {
      identical = identical && metrics_identical(streamed[i], mon_streamed[i]);
    }
    if (monitor.alerts_fired() != 0) {
      std::fprintf(stderr,
                   "FAIL: quiet monitor bench spec fired %llu alerts\n",
                   static_cast<unsigned long long>(monitor.alerts_fired()));
      identical = false;  // surfaces through the shared exit path
    }
  }

  // --- Full-population capture: every session serialized (sample=1), ----
  // jsonl vs btrace through the same polymorphic collector/sink pair the
  // harness uses (output discarded; the serialization cost is real).
  // Records bytes/session per format. The >=5x btrace compression floor is
  // a hard exit below: bytes are a pure function of the encoder, immune to
  // CI timing noise.
  double full_bytes_per_session[2] = {0.0, 0.0};
  double full_sps[2] = {0.0, 0.0};
  {
    obs::Observability obs_handle;
    obs_handle.metrics = std::make_unique<obs::MetricsRegistry>(1);
    obs::install(&obs_handle);
    obs::SlotBinding bind(obs_handle.metrics.get(), 0);
    obs::TraceConfig full_cfg;
    full_cfg.sample = 1;
    std::vector<sim::SessionMetrics> full_streamed(setup.sessions);
    const char* modes[2] = {"jsonl_full_trace", "btrace_full_trace"};
    for (int fmt = 0; fmt < 2; ++fmt) {
      std::unique_ptr<obs::TraceCollector> collector =
          fmt == 0 ? std::make_unique<obs::TraceCollector>(full_cfg)
                   : std::make_unique<obs::BinaryTraceCollector>(full_cfg);
      std::unique_ptr<obs::SessionTraceSink> trace_sink =
          collector->make_sink();
      std::string lines;
      const std::uint64_t before = collector->bytes_written();
      for (std::size_t i = 0; i < setup.sessions; ++i) {  // warmup + bytes
        run_streaming_obs(setup, i, scratch, *collector, *trace_sink, lines,
                          &full_streamed[i]);
      }
      full_bytes_per_session[fmt] =
          static_cast<double>(collector->bytes_written() - before) /
          static_cast<double>(setup.sessions);
      time_direct(modes[fmt], [&](std::size_t i) {
        run_streaming_obs(setup, i, scratch, *collector, *trace_sink, lines,
                          &full_streamed[i]);
      });
      full_sps[fmt] = rows.back().sessions_per_sec;
      for (std::size_t i = 0; i < setup.sessions; ++i) {
        identical =
            identical && metrics_identical(streamed[i], full_streamed[i]);
      }
    }
    obs::install(nullptr);
  }

  // --- Executor passes at N threads (the harness configuration). --------
  if (hw > 1) {
    runtime::SessionExecutor executor(hw);
    std::vector<Scratch> slot_scratch(executor.threads());
    auto time_executor = [&](const char* mode, bool streaming) {
      double best = 1e100;
      long long allocs = 0;
      // Warmup for the per-slot scratch.
      if (streaming) {
        executor.execute_slotted(
            setup.sessions,
            [&](std::size_t i, std::size_t slot) {
              run_streaming(setup, i, slot_scratch[slot], &streamed[i]);
            },
            [](std::size_t) {});
      }
      for (std::size_t p = 0; p < passes; ++p) {
        g_allocs.store(0);
        g_counting.store(true);
        const auto start = std::chrono::steady_clock::now();
        if (streaming) {
          executor.execute_slotted(
              setup.sessions,
              [&](std::size_t i, std::size_t slot) {
                run_streaming(setup, i, slot_scratch[slot], &streamed[i]);
              },
              [](std::size_t) {});
        } else {
          executor.execute(
              setup.sessions,
              [&](std::size_t i) { run_recorded(setup, i, &recorded[i]); },
              [](std::size_t) {});
        }
        const double s = seconds_since(start);
        g_counting.store(false);
        allocs = g_allocs.load();
        best = std::min(best, s);
      }
      rows.push_back({mode, hw, best,
                      static_cast<double>(setup.sessions) / best,
                      static_cast<double>(allocs) /
                          static_cast<double>(setup.sessions)});
    };
    time_executor("recorded", false);
    time_executor("streaming", true);
  }

  double recorded_sps = 0.0, streaming_sps = 0.0, obs_sps = 0.0;
  double timeline_sps = 0.0, monitor_sps = 0.0;
  for (const Row& r : rows) {
    if (r.threads != 1) continue;
    if (std::string(r.mode) == "recorded") recorded_sps = r.sessions_per_sec;
    if (std::string(r.mode) == "streaming") streaming_sps = r.sessions_per_sec;
    if (std::string(r.mode) == "streaming_obs") obs_sps = r.sessions_per_sec;
    if (std::string(r.mode) == "streaming_timeline") {
      timeline_sps = r.sessions_per_sec;
    }
    if (std::string(r.mode) == "streaming_monitor") {
      monitor_sps = r.sessions_per_sec;
    }
  }
  const double speedup =
      recorded_sps > 0.0 ? streaming_sps / recorded_sps : 0.0;
  // Overhead of live observability (metrics + 1/64 tracing) vs plain
  // streaming. Informational: the ISSUE budget is <5%, tracked via the
  // committed BENCH json rather than a hard exit (CI timing noise on small
  // runs would make a hard check flaky).
  const double obs_overhead_frac =
      streaming_sps > 0.0 && obs_sps > 0.0
          ? 1.0 - obs_sps / streaming_sps
          : 0.0;
  // Overhead of the fleet timeline fold vs plain streaming. Unlike the obs
  // row this IS a hard exit (<=5%): the record() cost is a handful of u64
  // adds, far inside the budget even with CI timing noise on best-of-N.
  const double timeline_overhead_frac =
      streaming_sps > 0.0 && timeline_sps > 0.0
          ? 1.0 - timeline_sps / streaming_sps
          : 0.0;
  // Overhead of the health-monitor fold vs plain streaming. Hard exit
  // (<=5%) like the timeline: the per-session cost is the cell fold plus
  // a few reserved-capacity comparisons for offender tracking.
  const double monitor_overhead_frac =
      streaming_sps > 0.0 && monitor_sps > 0.0
          ? 1.0 - monitor_sps / streaming_sps
          : 0.0;
  const double btrace_compression =
      full_bytes_per_session[1] > 0.0
          ? full_bytes_per_session[0] / full_bytes_per_session[1]
          : 0.0;

  std::string json = "{\"bench\":\"session_hot_path\",";
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "\"hardware_threads\":%zu,\"sessions\":%zu,\"results\":[",
                hw, setup.sessions);
  json += buf;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"mode\":\"%s\",\"threads\":%zu,\"seconds\":%.4f,"
                  "\"sessions_per_sec\":%.1f,\"allocs_per_session\":%.4f}",
                  i == 0 ? "" : ",", rows[i].mode, rows[i].threads,
                  rows[i].seconds, rows[i].sessions_per_sec,
                  rows[i].allocs_per_session);
    json += buf;
  }
  std::snprintf(buf, sizeof buf,
                "],\"full_population_trace\":{"
                "\"jsonl_bytes_per_session\":%.1f,"
                "\"btrace_bytes_per_session\":%.1f,"
                "\"btrace_compression\":%.2f,"
                "\"jsonl_overhead_frac\":%.3f,"
                "\"btrace_overhead_frac\":%.3f}",
                full_bytes_per_session[0], full_bytes_per_session[1],
                btrace_compression,
                streaming_sps > 0.0 && full_sps[0] > 0.0
                    ? 1.0 - full_sps[0] / streaming_sps
                    : 0.0,
                streaming_sps > 0.0 && full_sps[1] > 0.0
                    ? 1.0 - full_sps[1] / streaming_sps
                    : 0.0);
  json += buf;
  std::snprintf(buf, sizeof buf,
                ",\"calibration\":{"
                "\"cursor_rewind_ratio\":%.5f,\"memo_hit_ratio\":%.5f}",
                cursor_rewind_ratio, memo_hit_ratio);
  json += buf;
  std::snprintf(buf, sizeof buf,
                ",\"speedup_streaming_vs_recorded\":%.2f,"
                "\"obs_overhead_frac\":%.3f,"
                "\"timeline_overhead_frac\":%.3f,"
                "\"monitor_overhead_frac\":%.3f,"
                "\"max_allocs_per_steady_session\":%lld,"
                "\"max_allocs_per_timeline_session\":%lld,"
                "\"max_allocs_per_monitor_session\":%lld,"
                "\"bit_identical\":%s}",
                speedup, obs_overhead_frac,
                timeline_overhead_frac, monitor_overhead_frac,
                max_session_allocs, max_timeline_allocs,
                max_monitor_allocs, identical ? "true" : "false");
  json += buf;

  std::printf("%s\n", json.c_str());
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
  }

  bool ok = identical;
  if (max_session_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: streaming path allocated on a steady-state session "
                 "(max %lld allocs)\n",
                 max_session_allocs);
    ok = false;
  }
  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: streaming speedup %.2fx below the 1.5x target\n",
                 speedup);
    ok = false;
  }
  if (max_timeline_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: timeline record() allocated on a steady-state "
                 "session (max %lld allocs)\n",
                 max_timeline_allocs);
    ok = false;
  }
  if (timeline_overhead_frac > 0.05) {
    std::fprintf(stderr,
                 "FAIL: timeline overhead %.1f%% above the 5%% budget\n",
                 timeline_overhead_frac * 100.0);
    ok = false;
  }
  if (max_monitor_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: health monitor record() allocated on a steady-state "
                 "session (max %lld allocs)\n",
                 max_monitor_allocs);
    ok = false;
  }
  if (monitor_overhead_frac > 0.05) {
    std::fprintf(stderr,
                 "FAIL: health monitor overhead %.1f%% above the 5%% budget\n",
                 monitor_overhead_frac * 100.0);
    ok = false;
  }
  if (btrace_compression < 5.0) {
    std::fprintf(stderr,
                 "FAIL: btrace compression %.2fx below the 5x target "
                 "(%.1f -> %.1f bytes/session)\n",
                 btrace_compression, full_bytes_per_session[0],
                 full_bytes_per_session[1]);
    ok = false;
  }
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: streaming metrics differ from recorded metrics\n");
  }
  return ok ? 0 : 1;
}
