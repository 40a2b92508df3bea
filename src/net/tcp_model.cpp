#include "net/tcp_model.hpp"

#include "util/assert.hpp"

namespace bba::net {

TcpDownloadModel::TcpDownloadModel(TcpModelConfig cfg) : cfg_(cfg) {
  BBA_ASSERT(cfg_.rtt_s > 0.0, "RTT must be > 0");
  BBA_ASSERT(cfg_.init_window_bits > 0.0, "initial window must be > 0");
  BBA_ASSERT(cfg_.idle_reset_s >= 0.0, "idle reset must be >= 0");
}

double TcpDownloadModel::finish_time_s(const CapacityTrace& trace,
                                       double start_s, double bits,
                                       double idle_s) const {
  TraceCursor cursor(trace);
  return finish_time_s(cursor, start_s, bits, idle_s);
}

}  // namespace bba::net
