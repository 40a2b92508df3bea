#include "exp/block.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <typeinfo>

#include "abr/baselines.hpp"
#include "abr/bola.hpp"
#include "abr/control.hpp"
#include "core/bba0.hpp"
#include "core/bba_table.hpp"
#include "exp/population.hpp"
#include "exp/session_key.hpp"
#include "exp/workload.hpp"
#include "net/capacity_trace.hpp"
#include "net/trace_gen.hpp"
#include "net/trace_stream.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/session_executor.hpp"
#include "sim/player.hpp"
#include "sim/session_sink.hpp"
#include "sim/simulate.hpp"
#include "util/assert.hpp"

namespace bba::exp {

namespace {

// Runs one untraced session with the ABR resolved to its exact type, so
// the decision and the metrics fold inline into the chunk loop. BBA-1/2/
// Others read their title's decision table; an ABR of any other dynamic
// type keeps the virtual call. So does every traced session (play_traced):
// the same decisions, from the same table rows, at one instantiation.
void simulate_fused(abr::RateAdaptation& abr, const media::Video& video,
                    net::TraceStream& stream, const sim::PlayerConfig& player,
                    sim::StreamingMetricsSink& sink) {
  net::StreamCursor src(stream);
  const std::type_info& type = typeid(abr);
  if (type == typeid(abr::ControlAbr)) {
    sim::simulate(video, src, static_cast<abr::ControlAbr&>(abr), player,
                  sink);
  } else if (type == typeid(abr::RMinAlways)) {
    sim::simulate(video, src, static_cast<abr::RMinAlways&>(abr), player,
                  sink);
  } else if (type == typeid(core::Bba0)) {
    sim::simulate(video, src, static_cast<core::Bba0&>(abr), player, sink);
  } else if (type == typeid(abr::BolaAbr)) {
    sim::simulate(video, src, static_cast<abr::BolaAbr&>(abr), player, sink);
  } else if (std::optional<core::BbaTable> table = core::BbaTable::of(abr)) {
    sim::simulate(video, src, *table, player, sink);
  } else {
    sim::simulate(video, src, abr, player, sink);
  }
}

}  // namespace

struct SessionBlockRunner::Impl {
  // Per-thread scratch, indexed by the executor slot: the key's capacity
  // trace is generated lazily into a reused TraceStream (or, in a faulted
  // run, rebuilt in place -- CapacityTrace::assign ping-pongs storage with
  // the generation buffers -- and copied into the stream), metrics stream
  // through a StreamingMetricsSink (bit-identical to compute_metrics over
  // a recording), and each group's ABR instance is reused across
  // sessions. Steady state does zero heap allocation per session. None of
  // this affects the produced values, so the determinism contract holds.
  struct SessionScratch {
    net::TraceScratch trace_scratch;
    net::FaultScratch fault_scratch;
    net::CapacityTrace trace = net::CapacityTrace::constant(1.0);
    net::TraceStream stream;
    sim::StreamingMetricsSink sink;
    // Created by the collector (make_sink), so the scratch serializes in
    // whatever format the run selected -- JSONL lines or btrace blocks.
    std::unique_ptr<obs::SessionTraceSink> trace_sink;
    // Per group: the reused instance, and the instance the current key runs.
    std::vector<std::unique_ptr<abr::RateAdaptation>> abrs;
    std::vector<abr::RateAdaptation*> algorithms;
  };

  // Traced sessions serialize into per-key buffers during the parallel
  // map and are written by the key's fold, in canonical key order -- the
  // trace file bytes are therefore identical at every thread count,
  // exactly like the metrics.
  struct KeyTrace {
    std::string lines;
    std::uint32_t emitted = 0;
    std::uint32_t anomalies = 0;
  };

  Impl(const std::vector<Group>& groups_in,
       const media::VideoLibrary& library_in, const AbTestConfig& cfg_in)
      : groups(groups_in),
        library(library_in),
        cfg(cfg_in),
        population(cfg_in.population),
        executor(cfg_in.threads) {
    obs::Observability* o = obs::global();
    registry = o != nullptr ? o->metrics.get() : nullptr;
    tracer = (o != nullptr && o->trace != nullptr && o->trace->ok())
                 ? o->trace.get()
                 : nullptr;
    scratch.resize(executor.threads());
    for (auto& s : scratch) {
      s.abrs.resize(groups.size());
      s.algorithms.resize(groups.size());
    }
  }

  void run(std::size_t n_keys, const KeyAt& key_at, const Fold& fold);
  void capture_session(const SessionKey& key, std::size_t group,
                       const std::string& alert_line);

  // The group's ABR for the slot's next session: the slot's reused
  // instance, built by the group's factory on first use.
  abr::RateAdaptation* instance(SessionScratch& s, std::size_t g) {
    std::unique_ptr<abr::RateAdaptation>& held = s.abrs[g];
    if (held == nullptr) held = groups[g].factory();
    BBA_ASSERT(held != nullptr, "group factory returned null");
    return held.get();
  }

  // Derives what every group session of `key` shares, identically for the
  // counted pass and for an alert capture: the title, the player config and
  // the slot's trace stream. Every key streams its kTrace substream lazily,
  // outages spliced in as the sessions read, generated once per key and
  // shared by every group. A faulted run materializes the trace into
  // s.trace -- its fault plan reads the finished trace -- and copies it
  // into the stream; kTracesMaterialized counts those keys. Fault
  // injection rides the dedicated kFaults substream: with an empty plan
  // nothing downstream changes byte for byte.
  const media::Video& prepare_session(SessionScratch& s, const SessionKey& key,
                                      sim::PlayerConfig& player) {
    const UserEnvironment env = population.environment_for(key);
    const SessionSpec spec = session_for(library, cfg.workload, key);
    player = cfg.player;
    player.watch_duration_s = spec.watch_duration_s;
    if (population.has_faults()) {
      obs::count(obs::Counter::kTracesMaterialized);
      population.trace_for_into(env, key, s.trace_scratch, s.trace);
      population.inject_faults(key, s.fault_scratch, s.trace);
      player.faults = &s.fault_scratch.events;
      s.stream.assign(s.trace);
    } else {
      population.stream_into(env, key, s.stream);
    }
    return library.at(spec.video_index);
  }

  // Simulates group g's session of `key` with the slot's trace sink teed
  // next to the metrics sink, on the stream prepare_session() set up,
  // through the ABR's virtual interface (see simulate_fused).
  // Faulted sessions carry their injected faults, read from the
  // materialized s.trace; an alert capture carries its marker line.
  // Appends the serialized session to *lines and returns whether the sink
  // emitted it.
  bool play_traced(SessionScratch& s, const SessionKey& key, std::size_t g,
                   bool sampled, const media::Video& video,
                   const sim::PlayerConfig& player,
                   const std::string* alert_line, std::string* lines) {
    if (s.trace_sink == nullptr) s.trace_sink = tracer->make_sink();
    obs::SessionTraceSink& trace_sink = *s.trace_sink;
    trace_sink.begin(tracer->config(), key.seed, key.day, key.window,
                     key.session, groups[g].name, sampled);
    if (player.faults != nullptr) {
      trace_sink.set_faults(player.faults, s.trace.cycle_duration_s(),
                            s.trace.loops());
    }
    if (alert_line != nullptr) trace_sink.set_alert(*alert_line);
    sim::TeeSink tee(s.sink, trace_sink);
    sim::simulate(video, net::StreamCursor(s.stream), *s.algorithms[g],
                  player, tee);
    return trace_sink.finish(lines);
  }

  std::vector<Group> groups;
  const media::VideoLibrary& library;
  AbTestConfig cfg;
  Population population;
  runtime::SessionExecutor executor;
  obs::MetricsRegistry* registry = nullptr;
  obs::TraceCollector* tracer = nullptr;
  std::vector<SessionScratch> scratch;
  // Ring slots of the keys in flight, reused across keys and blocks: key i
  // owns slot i % executor.window(n_keys) from its produce to its fold
  // (runtime/session_executor.hpp), with one metrics entry per group and
  // one trace buffer. Sized by the window, never by the run.
  std::vector<sim::SessionMetrics> metrics;
  std::vector<KeyTrace> key_trace;
};

void SessionBlockRunner::Impl::run(std::size_t n_keys, const KeyAt& key_at,
                                   const Fold& fold) {
  const std::size_t n_groups = groups.size();
  const std::size_t ring = executor.window(n_keys);
  // Grow-only: a later block reuses the slots (and their capacity) as is;
  // produce writes every entry of a slot before its fold reads it.
  if (metrics.size() < ring * n_groups) metrics.resize(ring * n_groups);
  if (tracer != nullptr && key_trace.size() < ring) key_trace.resize(ring);

  executor.execute_slotted(
      n_keys,
      [&](std::size_t task, std::size_t slot) {
        obs::SlotBinding metrics_binding(registry, slot);
        // Common random numbers: every stream is a pure function of
        // (seed, day, window, session) and shared by all groups.
        const SessionKey key = key_at(task);
        const std::size_t at = task % ring;
        SessionScratch& s = scratch[slot];
        sim::PlayerConfig player;
        const media::Video& video = prepare_session(s, key, player);

        // One sampling decision per key, shared by every group: the
        // control and treatment timelines of a sampled session land
        // side by side in the trace, which is what makes the A/B
        // comparison of a single environment readable.
        const bool traced =
            tracer != nullptr &&
            tracer->sampled(key.seed, key.day, key.window, key.session);

        for (std::size_t g = 0; g < n_groups; ++g) {
          s.algorithms[g] = instance(s, g);
        }

        // One simulation per (key, group), whichever sink it feeds.
        for (std::size_t g = 0; g < n_groups; ++g) {
          bool emitted;
          if (traced) {
            // A sampled session traces in this one pass: the trace sink
            // rides next to the metrics sink on the same stream, and the
            // registry counts it here, once.
            emitted = play_traced(s, key, g, /*sampled=*/true, video, player,
                                  nullptr, &key_trace[at].lines);
            metrics[at * n_groups + g] = s.sink.metrics();
          } else {
            simulate_fused(*s.algorithms[g], video, s.stream, player, s.sink);
            const sim::SessionMetrics& m = s.sink.metrics();
            metrics[at * n_groups + g] = m;
            if (tracer == nullptr) continue;

            // Unsampled sessions the anomaly trigger catches post hoc on
            // the finished metrics (the exact predicate the trace sink
            // applies to its own event stream) are replayed into the
            // trace, on the same stream, with the registry muted because
            // the session was already counted. The player is a pure
            // function of its inputs -- it resets the ABR on entry -- so
            // the replay reproduces the counted session. Tracing therefore
            // costs the unsampled, healthy majority nothing per event.
            const bool anomalous =
                m.rebuffer_s >= tracer->config().anomaly_rebuffer_s ||
                m.abandoned;
            if (!anomalous) continue;
            obs::SlotBinding mute(nullptr, slot);
            emitted = play_traced(s, key, g, /*sampled=*/false, video, player,
                                  nullptr, &key_trace[at].lines);
          }
          if (emitted) {
            KeyTrace& kt = key_trace[at];
            ++kt.emitted;
            if (s.trace_sink->anomalous()) ++kt.anomalies;
          }
        }
      },
      [&](std::size_t task) {
        const std::size_t at = task % ring;
        for (std::size_t g = 0; g < n_groups; ++g) {
          fold(task, g, metrics[at * n_groups + g]);
        }
        if (tracer != nullptr) {
          // The key's trace bytes leave here, in key order, and their
          // buffer is freed before the slot serves key task + ring.
          KeyTrace& kt = key_trace[at];
          for (std::uint32_t i = 0; i < kt.emitted; ++i) {
            tracer->note_session(i < kt.anomalies);
          }
          if (!kt.lines.empty()) tracer->write(kt.lines);
          kt.lines.clear();
          kt.lines.shrink_to_fit();
          kt.emitted = 0;
          kt.anomalies = 0;
        }
      });
}

void SessionBlockRunner::Impl::capture_session(const SessionKey& key,
                                               std::size_t group,
                                               const std::string& alert_line) {
  if (tracer == nullptr) return;
  BBA_ASSERT(group < groups.size(), "capture_session group out of range");
  // Same derivation and the same player as run(), with the registry muted
  // because the session was already counted: the replay is a pure function
  // of the key, so the captured timeline is the exact session the
  // monitor's cell aggregates saw. Runs on the calling thread (slot 0),
  // with no workers active, so touching the scratch is safe.
  SessionScratch& s = scratch[0];
  obs::SlotBinding mute(nullptr, 0);
  sim::PlayerConfig player;
  const media::Video& video = prepare_session(s, key, player);
  s.algorithms[group] = instance(s, group);
  std::string lines;
  if (play_traced(s, key, group,
                  tracer->sampled(key.seed, key.day, key.window, key.session),
                  video, player, &alert_line, &lines)) {
    tracer->note_session(s.trace_sink->anomalous());
    tracer->write(lines);
  }
}

SessionBlockRunner::SessionBlockRunner(const std::vector<Group>& groups,
                                       const media::VideoLibrary& library,
                                       const AbTestConfig& cfg)
    : impl_(std::make_unique<Impl>(groups, library, cfg)) {
  BBA_ASSERT(!groups.empty(), "at least one group required");
}

SessionBlockRunner::~SessionBlockRunner() = default;

void SessionBlockRunner::run(std::size_t n_keys, const KeyAt& key_at,
                             const Fold& fold) {
  impl_->run(n_keys, key_at, fold);
}

void SessionBlockRunner::capture_session(const SessionKey& key,
                                         std::size_t group,
                                         const std::string& alert_line) {
  impl_->capture_session(key, group, alert_line);
}

void SessionBlockRunner::finish() {
  if (impl_->tracer != nullptr) impl_->tracer->flush();
}

std::size_t SessionBlockRunner::keys_folded() const {
  return impl_->executor.tasks_folded();
}

}  // namespace bba::exp
