#include "obs/setup.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "obs/btrace.hpp"
#include "util/csv.hpp"

namespace bba::obs {

namespace {

std::size_t default_slots(std::size_t threads_hint) {
  if (threads_hint != 0) return threads_hint;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Writes `body` + '\n' to `path`, or the exact same bytes to stdout when
/// path is "-". The notice goes to stderr either way, so stdout carries
/// only the artifact (the seq-log convention all JSON outputs now share).
/// Returns false, with a notice, when any byte failed to land: a file that
/// would not open, a full disk, or a failed close or stdout flush.
bool write_json_output(const char* what, const std::string& path,
                       const std::string& body) {
  const bool to_stdout = path == "-";
  std::FILE* f = to_stdout ? stdout : std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fputs(body.c_str(), f) >= 0 && std::fputc('\n', f) != EOF;
    ok = (to_stdout ? std::fflush(f) : std::fclose(f)) == 0 && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "obs: could not write %s %s\n", what, path.c_str());
  } else if (to_stdout) {
    std::fprintf(stderr, "obs: wrote %s to stdout\n", what);
  } else {
    std::fprintf(stderr, "obs: wrote %s %s\n", what, path.c_str());
  }
  return ok;
}

}  // namespace

bool ObsOptions::consume_arg(int argc, char** argv, int& i) {
  auto value = [&] { return util::flag_value_or_exit(argc, argv, i); };
  const char* arg = argv[i];
  if (std::strcmp(arg, "--trace-out") == 0) {
    trace_out = value();
    return true;
  }
  if (std::strcmp(arg, "--trace-format") == 0) {
    trace_format = value();
    if (trace_format != "jsonl" && trace_format != "btrace") {
      std::fprintf(stderr,
                   "--trace-format must be jsonl or btrace, got '%s'\n",
                   trace_format.c_str());
      std::exit(2);
    }
    return true;
  }
  if (std::strcmp(arg, "--trace-sample") == 0) {
    trace_sample = util::parse_u64_or_exit("--trace-sample",
                                           value());
    return true;
  }
  if (std::strcmp(arg, "--metrics-out") == 0) {
    metrics_out = value();
    return true;
  }
  if (std::strcmp(arg, "--profile-out") == 0) {
    profile_out = value();
    return true;
  }
  if (std::strcmp(arg, "--timeline-out") == 0) {
    timeline_out = value();
    return true;
  }
  if (std::strcmp(arg, "--alerts-out") == 0) {
    alerts_out = value();
    return true;
  }
  if (std::strcmp(arg, "--alert-spec") == 0) {
    alert_spec = value();
    MonitorSpec spec;
    std::string err;
    if (!MonitorSpec::parse(alert_spec, &spec, &err)) {
      std::fprintf(stderr, "--alert-spec: %s\n", err.c_str());
      std::exit(2);
    }
    return true;
  }
  return false;
}

const char* ObsOptions::usage() {
  return
      "          [--trace-out FILE] [--trace-sample N]  session event\n"
      "            tracing: 1-in-N deterministic sampling + anomaly capture\n"
      "          [--trace-format jsonl|btrace]  text lines (default) or the\n"
      "            columnar binary container (bba_trace cat converts back)\n"
      "          [--metrics-out FILE.json|-] [--profile-out FILE.json|-]\n"
      "            metrics snapshot / chrome://tracing profile\n"
      "          [--timeline-out FILE.json|-]  fleet timeline artifact:\n"
      "            per-(day,window,group) cells + quantile sketches, the\n"
      "            input to the bba_obs dashboard CLI (- = stdout)\n"
      "          [--alerts-out FILE|-]  health monitor alerts artifact\n"
      "            (bba.alerts.v1 JSONL): EWMA/CUSUM drift + SLO burn\n"
      "            alerts with alert-triggered trace capture\n"
      "          [--alert-spec k=v,...]  detector overrides (warmup,\n"
      "            ewma_alpha, ewma_k, cusum_k, cusum_h, sd_floor,\n"
      "            slo_rebuffer_ratio, slo_rebuffer_windows, slo_join_s,\n"
      "            slo_join_windows, top_k, capture)\n";
}

ObsScope::ObsScope(const ObsOptions& opts, std::size_t threads_hint)
    : opts_(opts) {
  if (!opts.any()) return;
  const std::size_t slots = default_slots(threads_hint);
  handle_ = std::make_unique<Observability>();
  // Each instrument exists only when its output is requested: an unread
  // registry would still pay for every count and histogram sample.
  if (!opts.metrics_out.empty()) {
    handle_->metrics = std::make_unique<MetricsRegistry>(slots);
  }
  if (!opts.profile_out.empty()) {
    handle_->profiler = std::make_unique<Profiler>(slots);
  }
  if (!opts.timeline_out.empty()) {
    handle_->timeline = std::make_unique<TimelineAggregator>();
  }
  if (!opts.alerts_out.empty()) {
    // --alert-spec was already checked when it was read (exit 2); this
    // parse serves options set in code, and both apply the one
    // MonitorSpec::parse.
    MonitorSpec spec;
    std::string err;
    if (!MonitorSpec::parse(opts.alert_spec, &spec, &err)) {
      std::fprintf(stderr, "obs: bad --alert-spec: %s\n", err.c_str());
      ok_ = false;
    } else {
      handle_->monitor = std::make_unique<HealthMonitor>(spec);
    }
  }
  if (!opts.trace_out.empty()) {
    TraceConfig cfg;
    cfg.path = opts.trace_out;
    cfg.sample = opts.trace_sample;
    cfg.resume = opts.trace_resume;
    if (opts.trace_format == "btrace") {
      handle_->trace = std::make_unique<BinaryTraceCollector>(std::move(cfg));
    } else {
      handle_->trace = std::make_unique<TraceCollector>(std::move(cfg));
    }
    if (!handle_->trace->ok()) {
      std::fprintf(stderr, "obs: could not open trace output %s\n",
                   opts.trace_out.c_str());
      ok_ = false;
    }
  }
  install(handle_.get());
  main_binding_ =
      std::make_unique<SlotBinding>(handle_->metrics.get(), 0);
}

ObsScope::~ObsScope() { finish(); }

bool ObsScope::finish() {
  if (handle_ == nullptr) return written_;
  main_binding_.reset();  // unbind before the registry goes away
  install(nullptr);

  if (handle_->trace != nullptr) {
    handle_->trace->finalize();
    handle_->trace->flush();
  }

  if (!opts_.metrics_out.empty() && handle_->metrics != nullptr) {
    const MetricsSnapshot snap = handle_->metrics->snapshot();
    const std::string extra =
        handle_->trace != nullptr ? handle_->trace->stats_json() : "";
    written_ &=
        write_json_output("metrics", opts_.metrics_out, snap.to_json(extra));
  }
  if (!opts_.profile_out.empty() && handle_->profiler != nullptr) {
    written_ &= write_json_output("profile", opts_.profile_out,
                                  handle_->profiler->chrome_trace_json());
  }
  if (!opts_.timeline_out.empty() && handle_->timeline != nullptr) {
    if (handle_->timeline->configured()) {
      written_ &= write_json_output("timeline", opts_.timeline_out,
                                    handle_->timeline->to_json());
    } else {
      std::fprintf(stderr,
                   "obs: timeline %s not written (no sessions recorded)\n",
                   opts_.timeline_out.c_str());
    }
  }
  if (!opts_.alerts_out.empty() && handle_->monitor != nullptr) {
    HealthMonitor& mon = *handle_->monitor;
    if (!mon.configured()) {
      std::fprintf(stderr,
                   "obs: alerts %s not written (no sessions recorded)\n",
                   opts_.alerts_out.c_str());
    } else if (mon.deferred()) {
      // A sharded partial run: the per-shard cell subsequence would fold
      // detectors differently from the unsharded run, so nothing renders
      // here. bba_merge + a --resume render of the merged checkpoint
      // refolds the full grid and writes the canonical artifact.
      std::fprintf(stderr,
                   "obs: alerts %s deferred (sharded run; merge checkpoints "
                   "and re-render to fold detectors)\n",
                   opts_.alerts_out.c_str());
    } else {
      mon.finalize();  // idempotent; covers CLIs without explicit finalize
      written_ &= write_json_output("alerts", opts_.alerts_out, mon.render());
    }
  }
  if (!opts_.trace_out.empty() && handle_->trace != nullptr) {
    std::fprintf(stderr,
                 "obs: wrote trace %s (%llu sessions, %llu anomalies)\n",
                 opts_.trace_out.c_str(),
                 static_cast<unsigned long long>(
                     handle_->trace->sessions_written()),
                 static_cast<unsigned long long>(
                     handle_->trace->anomalies_written()));
    if (!handle_->trace->ok()) {
      std::fprintf(stderr,
                   "obs: trace %s is INCOMPLETE (%llu failed writes)\n",
                   opts_.trace_out.c_str(),
                   static_cast<unsigned long long>(
                       handle_->trace->write_errors()));
      written_ = false;
    }
  }
  handle_.reset();
  return written_;
}

}  // namespace bba::obs
