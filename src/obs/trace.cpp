#include "obs/trace.hpp"

#include <cinttypes>

#include <unistd.h>

#include "exp/session_key.hpp"
#include "obs/trace_jsonl.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace bba::obs {

TraceCollector::TraceCollector(TraceConfig cfg) : cfg_(std::move(cfg)) {
  if (!cfg_.path.empty()) {
    // Resume mode reopens the interrupted run's file without truncating;
    // resume_from() then cuts it back to the checkpointed offset.
    file_ = std::fopen(cfg_.path.c_str(), cfg_.resume ? "r+b" : "wb");
    ok_ = file_ != nullptr;
  } else {
    ok_ = true;
  }
}

TraceCollector::~TraceCollector() {
  if (file_ != nullptr) std::fclose(file_);
}

std::unique_ptr<SessionTraceSink> TraceCollector::make_sink() const {
  return std::make_unique<SessionTraceSink>();
}

bool TraceCollector::sampled(std::uint64_t seed, std::uint64_t day,
                             std::uint64_t window,
                             std::uint64_t session) const {
  if (cfg_.sample == 0) return false;
  if (cfg_.sample == 1) return true;
  // Reserved substream class: a pure function of the session coordinates,
  // so the sampled set is invariant under thread count, session order, and
  // draw-count changes in any simulation phase.
  util::Rng rng = exp::session_rng(
      exp::SessionKey{seed, day, window, session},
      exp::StreamClass::kTraceSample);
  return rng.next_u64() % cfg_.sample == 0;
}

void TraceCollector::note_session(bool anomalous) {
  ++sessions_written_;
  if (anomalous) ++anomalies_written_;
}

void TraceCollector::note_io_error(const char* op) {
  ok_ = false;
  ++write_errors_;
  if (!io_warned_) {
    io_warned_ = true;
    std::fprintf(stderr,
                 "bba: trace %s failed for '%s' (disk full?); trace file is "
                 "incomplete\n",
                 op, cfg_.path.c_str());
  }
}

void TraceCollector::write(const std::string& lines) {
  bytes_written_ += lines.size();
  if (file_ != nullptr && !lines.empty()) {
    if (std::fwrite(lines.data(), 1, lines.size(), file_) != lines.size()) {
      note_io_error("write");
    }
  }
}

void TraceCollector::flush() {
  if (file_ != nullptr && std::fflush(file_) != 0) note_io_error("flush");
}

TraceResumeState TraceCollector::resume_state() {
  flush();
  TraceResumeState st;
  st.format = format_name();
  st.sample = cfg_.sample;
  st.anomaly_rebuffer_s = cfg_.anomaly_rebuffer_s;
  st.sessions_written = sessions_written_;
  st.anomalies_written = anomalies_written_;
  st.bytes_written = bytes_written_;
  st.write_errors = write_errors_;
  if (file_ != nullptr) {
    const long pos = std::ftell(file_);
    st.file_size = pos > 0 ? static_cast<std::uint64_t>(pos) : 0;
  } else {
    // No file (discard mode): the byte tally stands in for the offset so
    // a resumed discard-mode collector keeps counting from the same point.
    st.file_size = bytes_written_;
  }
  return st;
}

bool TraceCollector::resume_from(const TraceResumeState& st,
                                 std::string* error) {
  if (st.format != format_name()) {
    *error = "checkpoint trace format is '" + st.format + "', this run is '" +
             format_name() + "'";
    return false;
  }
  if (st.sample != cfg_.sample) {
    *error = "checkpoint trace sample does not match --trace-sample";
    return false;
  }
  if (st.anomaly_rebuffer_s != cfg_.anomaly_rebuffer_s) {
    *error = "checkpoint trace anomaly threshold does not match this run";
    return false;
  }
  if (file_ != nullptr) {
    std::fseek(file_, 0, SEEK_END);
    const long end = std::ftell(file_);
    if (end < 0 || static_cast<std::uint64_t>(end) < st.file_size) {
      *error = "trace file " + cfg_.path +
               " is shorter than the checkpoint recorded";
      return false;
    }
    // Drop everything the interrupted process wrote past its checkpoint;
    // those sessions are re-simulated and re-written bit-identically.
    if (ftruncate(fileno(file_), static_cast<off_t>(st.file_size)) != 0) {
      *error = "could not truncate " + cfg_.path + " to the checkpoint";
      return false;
    }
    std::fseek(file_, 0, SEEK_END);
  }
  sessions_written_ = st.sessions_written;
  anomalies_written_ = st.anomalies_written;
  bytes_written_ = st.bytes_written;
  write_errors_ = st.write_errors;
  return true;
}

std::string TraceCollector::stats_json() const {
  std::string out;
  jsonl::append_fmt(
      out,
      "\"trace\":{\"format\":\"%s\",\"sample\":%" PRIu64
      ",\"sessions_written\":%" PRIu64 ",\"anomalies_written\":%" PRIu64
      ",\"bytes_written\":%" PRIu64 ",\"write_errors\":%" PRIu64 "}",
      format_name(), cfg_.sample, sessions_written_, anomalies_written_,
      bytes_written_, write_errors_);
  return out;
}

void SessionTraceSink::begin(const TraceConfig& cfg, std::uint64_t seed,
                             std::uint64_t day, std::uint64_t window,
                             std::uint64_t session, std::string_view group,
                             bool sampled) {
  cfg_ = &cfg;
  seed_ = seed;
  day_ = day;
  window_ = window;
  session_ = session;
  group_.assign(group.data(), group.size());
  sampled_ = sampled;
  emit_ = false;
  anomalous_ = false;
  ended_ = false;
  chunks_.clear();
  played_at_chunk_.clear();
  rebuffers_.clear();
  summary_ = sim::SessionSummary{};
  rebuffer_total_s_ = 0.0;
  faults_ = nullptr;
  fault_cycle_s_ = 0.0;
  fault_loops_ = false;
  alert_marker_.clear();
}

void SessionTraceSink::set_faults(
    const std::vector<net::InjectedFault>* faults, double trace_cycle_s,
    bool trace_loops) {
  faults_ = faults;
  fault_cycle_s_ = trace_cycle_s;
  fault_loops_ = trace_loops;
}

void SessionTraceSink::set_alert(std::string_view marker_line) {
  // Evidence capture emits regardless of the sampling decision -- that is
  // the whole point of the alert replay.
  alert_marker_.assign(marker_line.data(), marker_line.size());
}

void SessionTraceSink::on_session_start(double chunk_duration_s) {
  summary_.chunk_duration_s = chunk_duration_s;
}

void SessionTraceSink::on_chunk(const sim::ChunkRecord& chunk,
                                double played_s) {
  chunks_.push_back(chunk);
  played_at_chunk_.push_back(played_s);
}

void SessionTraceSink::on_rebuffer(const sim::RebufferEvent& event) {
  rebuffer_total_s_ += event.duration_s;
  rebuffers_.push_back(event);
}

void SessionTraceSink::on_session_end(const sim::SessionSummary& summary) {
  summary_ = summary;
  ended_ = true;
  if (cfg_ == nullptr) return;
  anomalous_ =
      rebuffer_total_s_ >= cfg_->anomaly_rebuffer_s || summary.abandoned;
  emit_ = sampled_ || anomalous_ || !alert_marker_.empty();
}

namespace {

/// walk_session_lines visitor emitting the JSONL event lines.
struct JsonlVisitor {
  std::string& o;

  void off(std::uint64_t k, double start_s, double wait_s) {
    jsonl::append_off_line(o, k, jsonl::Num::of(start_s),
                           jsonl::Num::of(wait_s));
  }
  void rate_switch(std::uint64_t k, double t_s, std::uint64_t from,
                   std::uint64_t to) {
    jsonl::append_switch_line(o, k, jsonl::Num::of(t_s), from, to);
  }
  void stall(std::uint64_t k, double start_s, double dur_s, int fault_flag) {
    jsonl::append_stall_line(o, k, jsonl::Num::of(start_s),
                             jsonl::Num::of(dur_s), fault_flag);
  }
  void chunk(const sim::ChunkRecord& c, double played_s) {
    jsonl::ChunkLine line;
    line.k = c.index;
    line.rate = c.rate_index;
    line.rate_bps = jsonl::Num::of(c.rate_bps);
    line.bits = jsonl::Num::of(c.size_bits);
    line.req_s = jsonl::Num::of(c.request_s);
    line.fin_s = jsonl::Num::of(c.finish_s);
    line.dl_s = jsonl::Num::of(c.download_s);
    line.tput_bps = jsonl::Num::of(c.throughput_bps);
    line.buf_s = jsonl::Num::of(c.buffer_after_s);
    line.pos_s = jsonl::Num::of(c.position_s);
    line.played_s = jsonl::Num::of(played_s);
    jsonl::append_chunk_line(o, line);
  }
};

}  // namespace

bool SessionTraceSink::finish(std::string* out) const {
  BBA_ASSERT(ended_, "finish() requires a completed session");
  if (!emit_ || out == nullptr) return emit_;
  std::string& o = *out;

  jsonl::SessionHeader h;
  h.seed = seed_;
  h.day = day_;
  h.window = window_;
  h.session = session_;
  h.group = group_;
  h.sampled = sampled_;
  h.anomaly = anomalous_;
  h.v_s = summary_.chunk_duration_s;
  h.started = summary_.started;
  h.abandoned = summary_.abandoned;
  h.join_s = summary_.join_s;
  h.played_s = summary_.played_s;
  h.wall_s = summary_.wall_s;
  h.rebuffer_count = rebuffers_.size();
  h.rebuffer_s = rebuffer_total_s_;
  h.chunks = chunks_.size();
  if (faults_ != nullptr) {
    h.has_faults = true;
    h.fault_count = faults_->size();
    h.trace_cycle_s = jsonl::Num::of(fault_cycle_s_);
    h.trace_loops = fault_loops_;
  }
  jsonl::append_session_line(o, h);

  // The alert marker rides directly after the header so a reader knows
  // this session is monitor evidence before its event lines start.
  if (!alert_marker_.empty()) o += alert_marker_;

  if (faults_ != nullptr) {
    // The injected faults, in first-cycle trace time, directly after the
    // header so a reader sees the fault overlay before the chunk timeline.
    for (const net::InjectedFault& f : *faults_) {
      jsonl::append_fault_line(o, net::fault_kind_name(f.kind),
                               jsonl::Num::of(f.start_s),
                               jsonl::Num::of(f.duration_s),
                               jsonl::Num::of(f.factor));
    }
  }

  jsonl::walk_session_lines(chunks_, played_at_chunk_, rebuffers_,
                            /*with_fault_flags=*/faults_ != nullptr,
                            JsonlVisitor{o});
  return true;
}

}  // namespace bba::obs
