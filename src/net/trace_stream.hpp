// Incremental capacity-trace generation for the session player.
//
// The scalar hot path materializes a session's whole Markov trace (7200 s,
// ~700 segments) before the player consumes, typically, the first tenth of
// it. TraceStream generates the identical committed segment sequence --
// same rng consumption, same prefix arithmetic as make_markov_trace_into
// followed by CapacityTrace::assign -- but only as far as consumers ask,
// which removes most of the generation cost from the per-session budget.
//
// Outage splicing (Population sessions with env.has_outages) is deliberately
// NOT supported here: insert_outages draws from the same kTrace rng *after*
// every Markov segment has been generated, so a lazy generator cannot know
// the outage draws without defeating its own laziness. Those sessions
// materialize their trace exactly as before and run through FixedSource.
//
// StreamCursor is net::TraceCursor's counterpart over either source:
// bit-identical finish times, rates AND query/rewind tallies (enforced by
// tests/test_net_cursor.cpp and the golden digests), with the walk running
// over raw prefix arrays.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "net/capacity_trace.hpp"
#include "net/trace_gen.hpp"
#include "util/rng.hpp"

namespace bba::net {

/// Lazily generated Markov capacity trace in structure-of-arrays form.
/// Committed segments are exposed through raw pointers into reused
/// buffers: a commit is three stores and an increment. The buffers grow
/// (doubling) when a commit needs room, which moves the pointers, so
/// consumers re-read tp/bp/rate after asking for more segments.
/// tp (segment start times) and bp (bits prefix) carry n+1 entries.
struct TraceStream {
  double duration_s = 0.0, mean_dwell_s = 0.0, mu = 0.0, sigma = 0.0,
         min_bps = 0.0, max_bps = 0.0;
  util::Rng rng{0};
  double base_t = 0.0;

  std::vector<double> tp_buf, bp_buf, rate_buf;
  double* tp = nullptr;
  double* bp = nullptr;
  double* rate = nullptr;
  std::size_t n = 0;  ///< committed segments; tp/bp valid through index n
  bool done = false;
  double cycle_s = 0.0, cycle_bits = 0.0;

  /// Rebinds the stream to a fresh (config, rng) pair. No allocation once
  /// the buffers have grown to the longest prefix the workload reads.
  void reset(const MarkovTraceConfig& cfg, util::Rng r);

  std::size_t num_segments() const { return n; }

  /// Generates and commits one Markov segment (or finishes the trace).
  void step_one();

  /// Commits segments until the prefix extends strictly beyond `pos` (or
  /// the trace is finished).
  inline void ensure_beyond(double pos) {
    while (!done && tp[n] <= pos) step_one();
  }
  void ensure_done() {
    while (!done) step_one();
  }

 private:
  /// Doubles the buffers (keeping the committed prefix) and repoints.
  void grow();
};

/// Trace-source policies for StreamCursor. Both expose the same
/// inline surface; StreamSource generates on demand, FixedSource wraps a
/// materialized CapacityTrace (strided Segment rates).
struct StreamSource {
  TraceStream* s = nullptr;

  static constexpr std::size_t kBurst = 16;

  inline const double* tp() const { return s->tp; }
  inline const double* bp() const { return s->bp; }
  inline double rate_at(std::size_t i) const { return s->rate[i]; }
  inline std::size_t count() const { return s->n; }
  inline bool done() const { return s->done; }
  inline double cycle_s() const { return s->cycle_s; }
  inline double cycle_bits() const { return s->cycle_bits; }
  inline void ensure_beyond(double pos) {
    if (!s->done && s->tp[s->n] <= pos) s->ensure_beyond(pos);
  }
  inline void ensure_done() { s->ensure_done(); }
  /// Commit more segments after a walk exhausted the prefix.
  inline void gen_burst() {
    for (std::size_t i = 0; i < kBurst && !s->done; ++i) s->step_one();
  }
};

struct FixedSource {
  const double* tp_ = nullptr;
  const double* bp_ = nullptr;
  const double* rate_ = nullptr;
  std::size_t count_ = 0;
  double cycle_s_ = 0.0, cycle_bits_ = 0.0;

  void bind(const CapacityTrace& t) {
    tp_ = t.time_prefix().data();
    bp_ = t.bits_prefix_table().data();
    rate_ = &t.segments().data()->rate_bps;
    count_ = t.segments().size();
    cycle_s_ = t.cycle_duration_s();
    cycle_bits_ = t.cycle_bits();
  }
  inline const double* tp() const { return tp_; }
  inline const double* bp() const { return bp_; }
  inline double rate_at(std::size_t i) const {
    // Segment is {duration_s, rate_bps}: stride 2 doubles.
    return rate_[i * 2];
  }
  inline std::size_t count() const { return count_; }
  inline bool done() const { return true; }
  inline double cycle_s() const { return cycle_s_; }
  inline double cycle_bits() const { return cycle_bits_; }
  inline void ensure_beyond(double) {}
  inline void ensure_done() {}
  inline void gen_burst() {}
};

/// Stateful segment cursor over a StreamSource or FixedSource: the session
/// player's trace Source for looping traces. Replicates net::TraceCursor
/// bit for bit -- finish times, rates, AND the kCursorQueries /
/// kCursorRewinds tallies (the scalar cursor seeks twice per finish_time_s
/// call: once for the bits prefix, once to start the walk; seek2
/// deduplicates the walk but counts both) -- while the walk runs over raw
/// prefix arrays and a lazy source only generates what the session reads.
template <class Src>
class StreamCursor {
 public:
  explicit StreamCursor(Src src) : tr_(src) {}

  std::uint64_t queries() const { return queries_; }
  std::uint64_t rewinds() const { return rewinds_; }
  bool loops() const { return true; }
  /// Generates the whole trace if it is still lazy: only fault attribution
  /// needs the cycle length.
  double cycle_duration_s() {
    tr_.ensure_done();
    return tr_.cycle_s();
  }

  /// Bit-identical to TraceCursor::rate_at_bps on the materialized trace.
  double rate_at_bps(double t_s) {
    tr_.ensure_beyond(t_s);
    if (tr_.done() && t_s >= tr_.cycle_s()) {
      t_s = std::fmod(t_s, tr_.cycle_s());
    }
    ++queries_;
    return tr_.rate_at(seek(t_s));
  }

  /// Bit-identical to TraceCursor::finish_time_s on the materialized trace,
  /// including query/rewind tallies. The walk is a tight loop over the
  /// committed prefix; the source is only asked to generate when the walk
  /// exhausts it.
  double finish_time_s(double start_s, double bits) {
    if (bits == 0.0) return start_s;
    double cycles_done = 0.0;
    double pos = start_s;
    tr_.ensure_beyond(pos);
    if (tr_.done() && pos >= tr_.cycle_s()) {
      cycles_done = std::floor(pos / tr_.cycle_s());
      pos -= cycles_done * tr_.cycle_s();
      tr_.ensure_beyond(pos);
    }
    queries_ += 2;
    const std::size_t idx0 = seek(pos);
    if (tr_.done()) {
      const double bp_at_pos =
          tr_.bp()[idx0] + tr_.rate_at(idx0) * (pos - tr_.tp()[idx0]);
      const double avail = tr_.cycle_bits() - bp_at_pos;
      if (avail < bits) {
        return finish_slow(pos, cycles_done, bits, bp_at_pos);
      }
    }
    double remaining = bits;
    std::size_t idx = idx0;
    double t = pos;
    while (true) {
      const std::size_t count = tr_.count();
      const double* tp = tr_.tp();
      while (idx < count) {
        const double r = tr_.rate_at(idx);
        const double seg_end = tp[idx + 1];
        const double avail = r * (seg_end - t);
        if (avail >= remaining && r > 0.0) {
          t += remaining / r;
          hint_ = idx;
          return cycles_done == 0.0 ? t : cycles_done * tr_.cycle_s() + t;
        }
        remaining -= avail;
        t = seg_end;
        ++idx;
      }
      if (tr_.done()) {
        const double bp_at_pos =
            tr_.bp()[idx0] + tr_.rate_at(idx0) * (pos - tr_.tp()[idx0]);
        return finish_slow(pos, cycles_done, bits, bp_at_pos);
      }
      tr_.gen_burst();
    }
  }

 private:
  std::size_t bsearch(double pos) const {
    const double* begin = tr_.tp();
    const double* end = begin + tr_.count() + 1;
    const double* it = std::upper_bound(begin, end, pos);
    std::size_t i = static_cast<std::size_t>(it - begin) - 1;
    return std::min(i, tr_.count() - 1);
  }

  /// TraceCursor::seek without the query tally (callers count): advances
  /// the hint, binary-searches on a rewind. The prefix must extend beyond
  /// `pos` (or be complete), which makes the index equal the full trace's.
  std::size_t seek(double pos) {
    const double* tp = tr_.tp();
    const std::size_t last = tr_.count() - 1;
    std::size_t i = hint_;
    if (i > last || tp[i] > pos) {
      ++rewinds_;
      i = bsearch(pos);
    } else {
      while (i < last && tp[i + 1] <= pos) ++i;
    }
    hint_ = i;
    return i;
  }

  /// Verbatim TraceCursor::finish_time_s over the fully generated trace,
  /// used for the wrap (slow) path and the rare FP-residue fallback.
  double finish_slow(double pos, double cycles_done, double bits,
                     double bp_at_pos) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double cycle_s = tr_.cycle_s();
    const double cycle_bits = tr_.cycle_bits();
    double remaining = bits;
    const double avail0 = cycle_bits - bp_at_pos;
    bool wrapped = false;
    if (avail0 < remaining) {
      wrapped = true;
      remaining -= avail0;
      cycles_done += 1.0;
      pos = 0.0;
      if (cycle_bits <= 0.0) return kInf;
      const double whole = std::floor(remaining / cycle_bits);
      if (whole > 0.0 && whole * cycle_bits < remaining) {
        cycles_done += whole;
        remaining -= whole * cycle_bits;
      } else if (whole > 0.0) {
        cycles_done += whole - 1.0;
        remaining -= (whole - 1.0) * cycle_bits;
      }
    }
    // The scalar path re-seeks here (its walk seek). On the wrap path that
    // is a real second seek at pos == 0 whose rewind predicate fires
    // whenever the hint segment starts after 0; otherwise (FP-residue
    // fallback) the first seek already counted both queries.
    std::size_t idx = wrapped ? seek(pos) : bsearch(pos);
    const double* tp = tr_.tp();
    double t = pos;
    while (true) {
      const double r = tr_.rate_at(idx);
      const double seg_end = tp[idx + 1];
      const double span = seg_end - t;
      const double avail = r * span;
      if (avail >= remaining && r > 0.0) {
        t += remaining / r;
        hint_ = idx;
        return cycles_done * cycle_s + t;
      }
      remaining -= avail;
      t = seg_end;
      ++idx;
      if (idx == tr_.count()) {
        idx = 0;
        t = 0.0;
        cycles_done += 1.0;
        if (cycle_bits <= 0.0) return kInf;
      }
    }
  }

  Src tr_;
  std::size_t hint_ = 0;
  std::uint64_t queries_ = 0, rewinds_ = 0;
};

}  // namespace bba::net
