// Incremental capacity-trace generation and the player's trace reader.
//
// The scalar hot path materializes a session's whole Markov trace (7200 s,
// ~700 segments) before the player consumes, typically, the first tenth of
// it. TraceStream generates the identical committed segment sequence --
// same rng consumption, same prefix arithmetic as make_markov_trace_into
// followed by CapacityTrace::assign -- but only as far as consumers ask,
// which removes most of the generation cost from the per-session budget.
//
// Outage splicing (Population sessions with env.has_outages) and fault
// injection are deliberately NOT generated here: insert_outages draws from
// the same kTrace rng *after* every Markov segment has been generated, so
// a lazy generator cannot know the outage draws without defeating its own
// laziness. Those sessions materialize their trace exactly as before and
// copy it into the stream with assign(), as does the public
// sim::simulate_session for any trace, looping or not; so every session
// reads its trace through the one StreamCursor.
//
// StreamCursor answers finish_time_s and rate_at_bps bit-identically to the
// same-named CapacityTrace methods (the reference: a fresh binary search
// per query), with the walk running over raw prefix arrays; its
// query/rewind tallies follow the rule stated on the class. Both are
// enforced by tests/test_net_cursor.cpp and the golden digests.
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

/// Lazily generated Markov capacity trace, or a materialized trace copied
/// in whole by assign(), in structure-of-arrays form.
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
  bool loops = true;  ///< false: capacity is 0 after the last segment
  double cycle_s = 0.0, cycle_bits = 0.0;

  /// Rebinds the stream to a fresh (config, rng) pair. No allocation once
  /// the buffers have grown to the longest prefix the workload reads.
  /// Asserts make_markov_trace_into's preconditions: duration, median rate
  /// and mean dwell all > 0.
  void reset(const MarkovTraceConfig& cfg, util::Rng r);

  /// Copies a materialized trace's prefix tables, rates and loops flag into
  /// the reused buffers and marks the stream done. Same no-allocation rule
  /// as reset().
  void assign(const CapacityTrace& trace);

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

/// Stateful segment cursor over a TraceStream: the session player's trace
/// Source. finish_time_s and rate_at_bps are bit-identical to the
/// same-named CapacityTrace methods on the materialized trace. The walk
/// runs over raw prefix arrays, and a lazy stream only generates what the
/// session reads.
///
/// Lookups are tallied for the kCursorQueries / kCursorRewinds counters:
///  - rate_at_bps counts one query, or none past the end of a trace that
///    does not loop (the answer is 0 without a lookup);
///  - finish_time_s counts two queries, one for the bits delivered before
///    the start and one to begin the segment walk. It counts none for zero
///    bits or for a start at or past the end of a trace that does not loop,
///    and one when it gives up before the walk: the rest of a trace that
///    does not loop cannot carry the download, or the link is always down;
///  - a query rewinds when its in-cycle position lies before the start of
///    the hinted segment, where the previous query landed or the previous
///    download finished; it then binary-searches. The walk of a download
///    that wraps the cycle starts with a query at position 0.
class StreamCursor {
 public:
  /// Segments committed at once when a walk exhausts a lazy prefix.
  static constexpr std::size_t kBurst = 16;

  explicit StreamCursor(TraceStream& stream) : s_(&stream) {}

  std::uint64_t queries() const { return queries_; }
  std::uint64_t rewinds() const { return rewinds_; }
  bool loops() const { return s_->loops; }
  /// Generates the whole trace if it is still lazy: only fault attribution
  /// needs the cycle length.
  double cycle_duration_s() {
    s_->ensure_done();
    return s_->cycle_s;
  }

  /// Capacity at absolute time t_s (0 past the end of a trace that does not
  /// loop).
  double rate_at_bps(double t_s) {
    ensure_beyond(t_s);
    if (s_->done && t_s >= s_->cycle_s) {
      if (!s_->loops) return 0.0;
      t_s = std::fmod(t_s, s_->cycle_s);
    }
    ++queries_;
    return s_->rate[seek(t_s)];
  }

  /// Time at which a download of `bits` starting at `start_s` completes;
  /// +infinity if it never does (a link that is always down, or a trace
  /// that does not loop and runs out). The walk is a tight loop over the
  /// committed prefix; a lazy stream is only asked to generate when the
  /// walk exhausts it.
  double finish_time_s(double start_s, double bits) {
    if (bits == 0.0) return start_s;
    double cycles_done = 0.0;
    double pos = start_s;
    ensure_beyond(pos);
    if (s_->done && pos >= s_->cycle_s) {
      if (!s_->loops) return std::numeric_limits<double>::infinity();
      cycles_done = std::floor(pos / s_->cycle_s);
      pos -= cycles_done * s_->cycle_s;
      ensure_beyond(pos);
    }
    queries_ += 2;
    const std::size_t idx0 = seek(pos);
    if (s_->done) {
      const double bp_at_pos =
          s_->bp[idx0] + s_->rate[idx0] * (pos - s_->tp[idx0]);
      const double avail = s_->cycle_bits - bp_at_pos;
      if (avail < bits) {
        return finish_slow(pos, cycles_done, bits, bp_at_pos);
      }
    }
    double remaining = bits;
    std::size_t idx = idx0;
    double t = pos;
    while (true) {
      const std::size_t count = s_->n;
      const double* tp = s_->tp;
      const double* rate = s_->rate;
      while (idx < count) {
        const double r = rate[idx];
        const double seg_end = tp[idx + 1];
        const double avail = r * (seg_end - t);
        if (avail >= remaining && r > 0.0) {
          t += remaining / r;
          hint_ = idx;
          return cycles_done == 0.0 ? t : cycles_done * s_->cycle_s + t;
        }
        remaining -= avail;
        t = seg_end;
        ++idx;
      }
      if (s_->done) {
        const double bp_at_pos =
            s_->bp[idx0] + s_->rate[idx0] * (pos - s_->tp[idx0]);
        return finish_slow(pos, cycles_done, bits, bp_at_pos);
      }
      for (std::size_t i = 0; i < kBurst && !s_->done; ++i) s_->step_one();
    }
  }

 private:
  /// Commits segments until the prefix extends strictly beyond `pos` (a
  /// no-op once the stream is done).
  void ensure_beyond(double pos) {
    if (!s_->done && s_->tp[s_->n] <= pos) s_->ensure_beyond(pos);
  }

  std::size_t bsearch(double pos) const {
    const double* begin = s_->tp;
    const double* end = begin + s_->n + 1;
    const double* it = std::upper_bound(begin, end, pos);
    std::size_t i = static_cast<std::size_t>(it - begin) - 1;
    return std::min(i, s_->n - 1);
  }

  /// Segment index containing in-cycle position `pos`, without the query
  /// tally (callers count): advances the hint, binary-searches on a rewind.
  /// The prefix must extend beyond `pos` (or be complete), which makes the
  /// index equal CapacityTrace::segment_index_at on the full trace.
  std::size_t seek(double pos) {
    const double* tp = s_->tp;
    const std::size_t last = s_->n - 1;
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

  /// CapacityTrace::finish_time_s's expression sequence over the fully
  /// generated trace, used for the wrap (slow) path, the end of a trace
  /// that does not loop, and the rare FP-residue fallback.
  double finish_slow(double pos, double cycles_done, double bits,
                     double bp_at_pos) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const double cycle_s = s_->cycle_s;
    const double cycle_bits = s_->cycle_bits;
    double remaining = bits;
    const double avail0 = cycle_bits - bp_at_pos;
    bool wrapped = false;
    if (avail0 < remaining) {
      if (!s_->loops || cycle_bits <= 0.0) {
        // The rest of the trace cannot carry the download: give up before
        // the walk, which the second query counted would have begun.
        --queries_;
        return kInf;
      }
      wrapped = true;
      remaining -= avail0;
      cycles_done += 1.0;
      pos = 0.0;
      const double whole = std::floor(remaining / cycle_bits);
      if (whole > 0.0 && whole * cycle_bits < remaining) {
        cycles_done += whole;
        remaining -= whole * cycle_bits;
      } else if (whole > 0.0) {
        cycles_done += whole - 1.0;
        remaining -= (whole - 1.0) * cycle_bits;
      }
    }
    // The walk's query: on the wrap path a real seek at pos == 0 whose
    // rewind predicate fires whenever the hint segment starts after 0;
    // otherwise (FP-residue fallback) the first seek already found it.
    std::size_t idx = wrapped ? seek(pos) : bsearch(pos);
    const double* tp = s_->tp;
    double t = pos;
    while (true) {
      const double r = s_->rate[idx];
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
      if (idx == s_->n) {
        if (!s_->loops) return kInf;
        idx = 0;
        t = 0.0;
        cycles_done += 1.0;
        if (cycle_bits <= 0.0) return kInf;
      }
    }
  }

  TraceStream* s_;
  std::size_t hint_ = 0;
  std::uint64_t queries_ = 0, rewinds_ = 0;
};

}  // namespace bba::net
