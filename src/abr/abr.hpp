// The ABR algorithm interface.
//
// The simulated player calls `choose_rate()` once per chunk request, exactly
// as the Netflix browser player invokes its downloaded ABR module: rates can
// only change on chunk boundaries ("we can only pick a new rate when a chunk
// finishes arriving"), and the algorithm sees the playback buffer, the
// previous chunk's throughput, and the manifest (per-chunk sizes at every
// rate).
#pragma once

#include <cstddef>
#include <string>

#include "media/video.hpp"

namespace bba::abr {

/// Everything an ABR algorithm may observe when selecting the rate for the
/// next chunk. Produced by the player before each request.
struct Observation {
  /// Index of the chunk about to be requested (0-based).
  std::size_t chunk_index = 0;

  /// Current playback buffer level, in seconds of video.
  double buffer_s = 0.0;

  /// Player buffer capacity (B_max), seconds. 240 s in the paper's player.
  double buffer_max_s = 240.0;

  /// Wall-clock session time, seconds since the first request.
  double now_s = 0.0;

  /// Ladder index used for the previous chunk. Meaningless when
  /// `chunk_index == 0` (use the algorithm's own starting rate).
  std::size_t prev_rate_index = 0;

  /// Average throughput of the last completed chunk download (bits/s);
  /// 0 before the first chunk completes.
  double last_throughput_bps = 0.0;

  /// Wall-clock duration of the last chunk download, seconds.
  double last_download_s = 0.0;

  /// Buffer change over the last chunk: Delta-B = V - download_time while
  /// playing (the signal BBA-2's startup uses). 0 before the first chunk.
  double delta_buffer_s = 0.0;

  /// True once playback has started (false while prebuffering).
  bool playing = false;

  /// The title being streamed: ladder + chunk size table.
  const media::Video* video = nullptr;
};

/// Base class for rate-adaptation algorithms. Implementations are
/// single-session state machines; call `reset()` (or construct fresh) per
/// session.
class RateAdaptation {
 public:
  virtual ~RateAdaptation() = default;

  /// Returns the ladder index to request for `obs.chunk_index`.
  /// Must return a valid index for `obs.video->ladder()`.
  virtual std::size_t choose_rate(const Observation& obs) = 0;

  /// Clears per-session state (new session or seek).
  virtual void reset() {}

  /// Short algorithm name for reports ("control", "bba0", ...).
  virtual std::string name() const = 0;
};

}  // namespace bba::abr
