// Observability wiring for CLIs and benches.
//
// Every binary that takes the shared flags (--trace-out, --trace-format,
// --trace-sample, --metrics-out, --profile-out, --timeline-out,
// --alerts-out, --alert-spec) reads them through ObsOptions::consume_arg;
// an ObsScope then turns the options into an installed obs::Observability
// and writes the output files at finish() or destruction. With no option
// set, ObsScope installs nothing and costs nothing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/obs.hpp"

namespace bba::obs {

/// Parsed observability options. Empty paths = that instrument disabled.
struct ObsOptions {
  std::string trace_out;          ///< session trace output path
  std::string trace_format = "jsonl";  ///< "jsonl" or "btrace"
  std::uint64_t trace_sample = 64;  ///< 1-in-N sampling (0 = anomalies only)
  std::string metrics_out;   ///< metrics snapshot JSON path
  std::string profile_out;   ///< Chrome trace-event JSON path
  std::string timeline_out;  ///< fleet timeline artifact JSON path
  std::string alerts_out;    ///< health monitor alerts artifact path
  std::string alert_spec;    ///< detector overrides, "key=val,key=val"
  /// Reopen trace_out for a checkpoint resume (TraceConfig::resume)
  /// instead of truncating it. Set by the CLIs when --resume is given;
  /// exp::run_ab_test_checkpointed then restores the collector state
  /// before any session is written.
  bool trace_resume = false;
  // Any of the three JSON outputs accepts "-": the exact file bytes go to
  // stdout and the notice line to stderr.

  /// True when any instrument is requested. Each instrument is built only
  /// for its own output: the metrics registry for metrics_out (trace stats
  /// ride its snapshot), the profiler for profile_out.
  bool any() const {
    return !trace_out.empty() || !metrics_out.empty() ||
           !profile_out.empty() || !timeline_out.empty() ||
           !alerts_out.empty();
  }

  /// CLI hook: if argv[i] is one of the shared observability flags,
  /// consumes it (advancing `i` over its value) and returns true; a
  /// missing or malformed value prints one line and exits 2. Call from an
  /// argument loop before the unknown-argument fallback.
  bool consume_arg(int argc, char** argv, int& i);

  /// The usage lines for the shared flags, for CLI help text.
  static const char* usage();
};

/// RAII: builds the instruments, installs them globally, binds the calling
/// thread to metrics slot 0 (so single-session tools count too), and at
/// finish() -- or on destruction, if nobody called it -- uninstalls and
/// writes every requested output file.
class ObsScope {
 public:
  /// `threads_hint` sizes the per-slot shards (0 = hardware concurrency);
  /// pass the harness's resolved thread count when known.
  explicit ObsScope(const ObsOptions& opts, std::size_t threads_hint = 0);
  ~ObsScope();

  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

  /// False when an output file could not be opened (reported on stderr).
  bool ok() const { return ok_; }

  /// True when instruments are installed.
  bool active() const { return handle_ != nullptr; }

  Observability* handle() { return handle_.get(); }

  /// Uninstalls the instruments, writes every requested output and frees
  /// them, once. False when any write failed: an output that could not be
  /// written whole, or a trace with failed writes. Later calls return the
  /// same.
  bool finish();

 private:
  ObsOptions opts_;
  std::unique_ptr<Observability> handle_;
  std::unique_ptr<SlotBinding> main_binding_;
  bool ok_ = true;
  bool written_ = true;
};

}  // namespace bba::obs
