// Per-layer self-times measured from outside the run: a deterministic
// sample of the workload's sessions is re-simulated one at a time, and each
// layer's public functions are timed on its own by replaying what the
// first simulation recorded (observations, rates, sink events). The same
// machinery re-simulates whole cells as the correctness oracle.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "e2ebench.hpp"
#include "exp/population.hpp"
#include "exp/session_key.hpp"
#include "exp/workload.hpp"
#include "media/video.hpp"
#include "net/capacity_trace.hpp"
#include "net/trace_gen.hpp"
#include "obs/btrace.hpp"
#include "obs/monitor.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/player.hpp"
#include "sim/session_sink.hpp"

namespace e2e {

namespace abr = bba::abr;
namespace net = bba::net;

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

/// Forwards to the wrapped ABR and records every observation and decision.
class RecordingAbr final : public abr::RateAdaptation {
 public:
  explicit RecordingAbr(abr::RateAdaptation& inner) : inner_(&inner) {}

  std::size_t choose_rate(const abr::Observation& obs) override {
    const std::size_t rate = inner_->choose_rate(obs);
    observations.push_back(obs);
    decisions.push_back(rate);
    return rate;
  }
  void reset() override {
    inner_->reset();
    observations.clear();
    decisions.clear();
  }
  std::string name() const override { return inner_->name(); }

  std::vector<abr::Observation> observations;
  std::vector<std::size_t> decisions;

 private:
  abr::RateAdaptation* inner_;
};

/// Requests the recorded rates in order: drives the player with a decision
/// that costs one indexed load.
class ReplayAbr final : public abr::RateAdaptation {
 public:
  explicit ReplayAbr(const std::vector<std::size_t>& rates) : rates_(&rates) {}

  std::size_t choose_rate(const abr::Observation&) override {
    if (next_ >= rates_->size()) {
      std::fprintf(stderr, "e2ebench: rate replay diverged\n");
      std::abort();
    }
    return (*rates_)[next_++];
  }
  void reset() override { next_ = 0; }
  std::string name() const override { return "replay"; }

 private:
  const std::vector<std::size_t>* rates_;
  std::size_t next_ = 0;
};

class DiscardSink final : public sim::SessionSink {
 public:
  void on_session_start(double) override {}
  void on_chunk(const sim::ChunkRecord&, double) override {}
  void on_rebuffer(const sim::RebufferEvent&) override {}
  void on_session_end(const sim::SessionSummary&) override {}
};

/// Records one session's sink events so they can be replayed into another
/// sink in the original order.
class EventLog final : public sim::SessionSink {
 public:
  void on_session_start(double chunk_duration_s) override {
    chunk_duration_s_ = chunk_duration_s;
    events_.clear();
    chunks_ = 0;
  }
  void on_chunk(const sim::ChunkRecord& chunk, double played_s) override {
    events_.push_back({true, chunk, played_s, {}});
    ++chunks_;
  }
  void on_rebuffer(const sim::RebufferEvent& event) override {
    events_.push_back({false, {}, 0.0, event});
  }
  void on_session_end(const sim::SessionSummary& summary) override {
    summary_ = summary;
  }

  void replay(sim::SessionSink& sink) const {
    sink.on_session_start(chunk_duration_s_);
    for (const Event& e : events_) {
      if (e.is_chunk) {
        sink.on_chunk(e.chunk, e.played_s);
      } else {
        sink.on_rebuffer(e.rebuffer);
      }
    }
    sink.on_session_end(summary_);
  }
  std::size_t chunks() const { return chunks_; }

 private:
  struct Event {
    bool is_chunk;
    sim::ChunkRecord chunk;
    double played_s;
    sim::RebufferEvent rebuffer;
  };
  double chunk_duration_s_ = 0.0;
  std::vector<Event> events_;
  std::size_t chunks_ = 0;
  sim::SessionSummary summary_;
};

/// Everything one key's sessions share, derived exactly as the harness
/// derives it (exp/block.cpp).
struct KeyInputs {
  exp::SessionKey key;
  exp::UserEnvironment env;
  exp::SessionSpec spec;
  sim::PlayerConfig player;
};

/// The fixed inputs of a replay: library, config, population, one reused
/// ABR instance per group (the harness reuses instances the same way).
struct ReplayContext {
  ReplayContext(const Workload& w, std::uint64_t seed)
      : library(bba::media::VideoLibrary::standard(kLibrarySeed)),
        cfg(make_config(w, seed, 1)),
        population(cfg.population) {
    for (const std::string& g : w.groups) abrs.push_back(factory_for(g)());
  }

  KeyInputs draw(const exp::SessionKey& key) const {
    KeyInputs in;
    in.key = key;
    in.env = population.environment_for(key);
    in.spec = exp::session_for(library, cfg.workload, key);
    in.player = cfg.player;
    in.player.watch_duration_s = in.spec.watch_duration_s;
    return in;
  }

  const bba::media::VideoLibrary library;
  const exp::AbTestConfig cfg;
  const exp::Population population;
  std::vector<std::unique_ptr<abr::RateAdaptation>> abrs;
  net::TraceScratch trace_scratch;
  net::CapacityTrace trace = net::CapacityTrace::constant(1.0);
};

exp::SessionKey key_at(const Workload& w, std::uint64_t seed,
                       std::size_t index) {
  const std::size_t per_day = exp::kWindowsPerDay * w.sessions_per_window;
  return exp::SessionKey{seed, index / per_day,
                         (index / w.sessions_per_window) % exp::kWindowsPerDay,
                         index % w.sessions_per_window};
}

/// Median ns per item of `reps` runs of `body` on fresh state.
template <typename Body>
double time_per_item(std::size_t items, int reps, Body body) {
  if (items == 0) return 0.0;
  std::vector<double> per_item;
  for (int r = 0; r < reps; ++r) {
    per_item.push_back(body() / static_cast<double>(items));
  }
  return median(per_item);
}

}  // namespace

std::vector<CellRef> oracle_cells(const Workload& w, std::uint64_t seed) {
  // Windows 0-2 are the paper's peak hours (exp::is_peak_window).
  const std::size_t day = static_cast<std::size_t>(seed % w.days);
  return {CellRef{day, static_cast<std::size_t>(seed % 3)},
          CellRef{day, 3 + static_cast<std::size_t>((seed / 3) % 9)}};
}

OracleResult run_oracle(const Workload& w, std::uint64_t seed,
                        const std::vector<CellRef>& cells) {
  ReplayContext ctx(w, seed);
  sim::StreamingMetricsSink sink;
  OracleResult out;
  for (const CellRef& cell : cells) {
    out.cells.emplace_back(w.groups.size());
    for (std::size_t s = 0; s < w.sessions_per_window; ++s) {
      const KeyInputs in =
          ctx.draw(exp::SessionKey{seed, cell.day, cell.window, s});
      ctx.population.trace_for_into(in.env, in.key, ctx.trace_scratch,
                                    ctx.trace);
      const bba::media::Video& video = ctx.library.at(in.spec.video_index);
      for (std::size_t g = 0; g < w.groups.size(); ++g) {
        sim::simulate_session(video, ctx.trace, *ctx.abrs[g], in.player,
                              sink);
        exp::accumulate_session(out.cells.back()[g], sink.metrics());
        out.sessions.push_back(
            {cell.day, cell.window, s, g, sink.metrics()});
      }
    }
  }
  return out;
}

void Layers::merge(const Layers& o) {
  keys += o.keys;
  sessions += o.sessions;
  chunks += o.chunks;
  segments += o.segments;
  draw_ns += o.draw_ns;
  trace_ns += o.trace_ns;
  decide_ns.resize(o.decide_ns.size());
  decisions.resize(o.decisions.size());
  player_ns.resize(o.player_ns.size());
  fold_ns.resize(o.fold_ns.size());
  for (std::size_t g = 0; g < o.decide_ns.size(); ++g) {
    decide_ns[g] += o.decide_ns[g];
    decisions[g] += o.decisions[g];
    player_ns[g] += o.player_ns[g];
    fold_ns[g] += o.fold_ns[g];
  }
  btrace_ns += o.btrace_ns;
  btrace_bytes += o.btrace_bytes;
  jsonl_ns += o.jsonl_ns;
  mismatches += o.mismatches;
}

double Layers::session_ns() const {
  double total = 0.0;
  for (std::size_t g = 0; g < decide_ns.size(); ++g) {
    total += decide_ns[g] + player_ns[g] + fold_ns[g];
  }
  return sessions > 0.0 ? total / sessions : 0.0;
}

double Layers::map_ns_per_key() const {
  return keys > 0.0 ? (draw_ns + trace_ns) / keys +
                          session_ns() * sessions / keys
                    : 0.0;
}

Layers measure_layers(const Workload& w, std::uint64_t seed,
                      std::size_t sample_keys, std::size_t round) {
  ReplayContext ctx(w, seed);
  const std::size_t n_groups = w.groups.size();
  const std::size_t stride = std::max<std::size_t>(1, w.keys() / sample_keys);
  const std::size_t offset =
      static_cast<std::size_t>((seed + 7919 * round) % stride);

  Layers out;
  out.decide_ns.assign(n_groups, 0.0);
  out.decisions.assign(n_groups, 0.0);
  out.player_ns.assign(n_groups, 0.0);
  out.fold_ns.assign(n_groups, 0.0);

  sim::StreamingMetricsSink record_sink, fold_sink;
  EventLog log;
  DiscardSink discard;
  obs::TraceConfig trace_cfg;
  trace_cfg.sample = kTraceSample;
  obs::BinaryTraceSink btrace_sink;
  obs::SessionTraceSink jsonl_sink;
  std::string encoded;

  for (std::size_t i = offset; i < w.keys(); i += stride) {
    const exp::SessionKey key = key_at(w, seed, i);
    auto t = Clock::now();
    const KeyInputs in = ctx.draw(key);
    out.draw_ns += ns_since(t);
    t = Clock::now();
    ctx.population.trace_for_into(in.env, key, ctx.trace_scratch, ctx.trace);
    out.trace_ns += ns_since(t);
    out.segments += static_cast<double>(ctx.trace.segments().size());
    out.keys += 1.0;
    const bba::media::Video& video = ctx.library.at(in.spec.video_index);

    for (std::size_t g = 0; g < n_groups; ++g) {
      abr::RateAdaptation& algorithm = *ctx.abrs[g];
      RecordingAbr recorder(algorithm);
      sim::TeeSink tee(record_sink, log);
      sim::simulate_session(video, ctx.trace, recorder, in.player, tee);
      const std::uint64_t expected = session_digest(record_sink.metrics());
      out.sessions += 1.0;
      out.chunks += static_cast<double>(log.chunks());

      // The decision layer alone: the recorded observations, replayed
      // through a reset instance, must give the recorded decisions.
      algorithm.reset();
      std::size_t diverged = 0;
      t = Clock::now();
      for (std::size_t c = 0; c < recorder.observations.size(); ++c) {
        diverged += algorithm.choose_rate(recorder.observations[c]) !=
                    recorder.decisions[c];
      }
      out.decide_ns[g] += ns_since(t);
      out.decisions[g] += static_cast<double>(recorder.decisions.size());
      out.mismatches += diverged != 0;

      // Player and trace integration, with the decisions already made.
      ReplayAbr replay(recorder.decisions);
      t = Clock::now();
      sim::simulate_session(video, ctx.trace, replay, in.player, discard);
      out.player_ns[g] += ns_since(t);

      // The streaming metrics fold over the recorded events.
      t = Clock::now();
      log.replay(fold_sink);
      out.fold_ns[g] += ns_since(t);
      out.mismatches += session_digest(fold_sink.metrics()) != expected;

      if (w.observed) {
        encoded.clear();
        t = Clock::now();
        btrace_sink.begin(trace_cfg, key.seed, key.day, key.window,
                          key.session, w.groups[g], true);
        log.replay(btrace_sink);
        btrace_sink.finish(&encoded);
        out.btrace_ns += ns_since(t);
        out.btrace_bytes += static_cast<double>(encoded.size());
        encoded.clear();
        t = Clock::now();
        jsonl_sink.begin(trace_cfg, key.seed, key.day, key.window,
                         key.session, w.groups[g], true);
        log.replay(jsonl_sink);
        jsonl_sink.finish(&encoded);
        out.jsonl_ns += ns_since(t);
      }
    }
  }
  return out;
}

FoldLayers measure_fold_layers(const Workload& w, std::uint64_t seed,
                               const OracleResult& oracle) {
  // Each consumer is cheap per session, so take the median of 5 runs.
  FoldLayers out;
  const std::size_t n = oracle.sessions.size();
  out.cell_fold_ns = time_per_item(n, 5, [&] {
    std::vector<exp::WindowMetrics> cells(w.groups.size());
    const auto t = Clock::now();
    for (const OracleResult::Session& s : oracle.sessions) {
      exp::accumulate_session(cells[s.group], s.metrics);
    }
    return ns_since(t);
  });
  if (!w.observed) return out;
  out.timeline_ns = time_per_item(n, 5, [&] {
    obs::TimelineAggregator timeline;
    timeline.begin_run(seed, w.groups, w.days, exp::kWindowsPerDay);
    const auto t = Clock::now();
    for (const OracleResult::Session& s : oracle.sessions) {
      timeline.record(s.day, s.window, s.group, s.metrics);
    }
    return ns_since(t);
  });
  obs::MonitorSpec spec;
  std::string error;
  if (!obs::MonitorSpec::parse(kAlertSpec, &spec, &error)) {
    std::fprintf(stderr, "e2ebench: bad alert spec: %s\n", error.c_str());
    std::exit(1);
  }
  out.monitor_ns = time_per_item(n, 5, [&] {
    obs::HealthMonitor monitor(spec);
    monitor.begin_run(seed, w.groups, w.days, exp::kWindowsPerDay);
    const auto t = Clock::now();
    for (const OracleResult::Session& s : oracle.sessions) {
      monitor.record(s.day, s.window, s.group, s.session, s.metrics);
    }
    monitor.finalize();
    return ns_since(t);
  });
  return out;
}

}  // namespace e2e
