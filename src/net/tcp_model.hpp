// First-order TCP slow-start model for chunk downloads.
//
// The fluid trace model assumes a download instantly runs at C(t). Real
// chunk fetches ride TCP: after an idle period the congestion window
// restarts (RFC 2861), so the first RTTs of every chunk deliver far below
// the path rate and SMALL chunks achieve a much lower measured throughput
// than the link supports. This is the measurement trap behind the ON-OFF
// "downward spiral" of Huang et al., "Confused, Timid, and Unstable"
// (IMC'12), which the paper's Sec. 8 revisits: a capacity-chasing client
// at a full buffer alternates ON-OFF, keeps measuring slow-start-degraded
// throughput, and talks itself down the ladder; a buffer-based client
// requests R_max whenever the buffer is full and never enters the spiral.
//
// Model: the deliverable rate in RTT round i is min(w0 * 2^i, C(t)) with
// the window halved toward w0 after `idle_reset_s` of idle; once the
// window reaches the path rate the remainder is capacity-limited (exact
// trace integration).
#pragma once

#include <algorithm>

#include "net/capacity_trace.hpp"
#include "util/assert.hpp"

namespace bba::net {

/// Slow-start parameters.
struct TcpModelConfig {
  /// Path round-trip time.
  double rtt_s = 0.08;

  /// Initial congestion window in bits (IW10 x 1500-byte segments).
  double init_window_bits = 10 * 12000.0;

  /// Idle gap after which the window resets to the initial value
  /// (RFC 2861 congestion window validation). Idle below this keeps the
  /// connection warm (no slow start).
  double idle_reset_s = 0.5;
};

/// Computes chunk completion times under the slow-start model.
class TcpDownloadModel {
 public:
  explicit TcpDownloadModel(TcpModelConfig cfg = {});

  /// Finish time of a `bits` download starting at `start_s` over `trace`,
  /// with `idle_s` of connection idle before the request (use +infinity
  /// for the first request of a session).
  double finish_time_s(const CapacityTrace& trace, double start_s,
                       double bits, double idle_s) const;

  /// Cursor variant for hot loops: bit-identical to the trace overload
  /// (the slow-start probes and the final integration are monotone in
  /// time, so a cursor's hint advances instead of re-searching). Any trace
  /// reader with CapacityTrace's rate_at_bps/finish_time_s works -- the
  /// session player passes its trace Source, the trace overload the trace
  /// itself.
  template <class Cursor>
  double finish_time_s(Cursor& cursor, double start_s, double bits,
                       double idle_s) const;

  const TcpModelConfig& config() const { return cfg_; }

 private:
  TcpModelConfig cfg_;
};

template <class Cursor>
double TcpDownloadModel::finish_time_s(Cursor& cursor, double start_s,
                                       double bits, double idle_s) const {
  BBA_ASSERT(start_s >= 0.0 && bits >= 0.0, "invalid download request");
  if (bits == 0.0) return start_s;

  double t = start_s;
  double remaining = bits;

  if (idle_s >= cfg_.idle_reset_s) {
    // Cold window: walk RTT rounds, doubling the window, until the window
    // reaches the instantaneous path rate (then the path limits).
    double window_bits = cfg_.init_window_bits;
    for (int round = 0; round < 64; ++round) {
      const double path_bps = cursor.rate_at_bps(t);
      if (path_bps <= 0.0) {
        // Outage: nothing moves this round; skip to when capacity returns
        // by handing the remainder to the exact trace integration (which
        // waits through the outage).
        return cursor.finish_time_s(t, remaining);
      }
      const double path_round_bits = path_bps * cfg_.rtt_s;
      if (window_bits >= path_round_bits) break;  // window caught up
      const double sendable = std::min(window_bits, remaining);
      if (sendable >= remaining) {
        // Finishes inside this round: delivery is spread over the RTT.
        return t + cfg_.rtt_s * remaining / window_bits;
      }
      remaining -= sendable;
      t += cfg_.rtt_s;
      window_bits *= 2.0;
    }
  }
  // Warm (or caught-up) connection: capacity-limited, exact integration.
  return cursor.finish_time_s(t, remaining);
}

}  // namespace bba::net
