// BBA-2: BBA-1 plus an aggressive startup phase (Sec. 6).
//
// At session start the buffer carries no information, so BBA-2 leverages a
// restrained capacity estimate: the buffer change of the last chunk,
// Delta-B = V - ChunkSize/c[k]. It steps up one rate when Delta-B exceeds a
// threshold that decays linearly from 0.875*V at an empty buffer (chunk
// downloaded 8x faster than played; safe even at worst-case VBR with
// max/avg ratio e = 2) to 0.5*V when the cushion is full (2x faster).
// Startup ends when the buffer decreases or when the chunk map suggests a
// higher rate; from then on BBA-2 is exactly BBA-1.
#pragma once

#include "core/bba1.hpp"

namespace bba::core {

/// Startup-phase tuning of BBA-2.
struct Bba2Config {
  Bba1Config base;

  /// Delta-B threshold (fraction of V) at an empty buffer: 0.875 means the
  /// chunk must download 8x faster than it plays.
  double threshold_at_empty = 0.875;

  /// Threshold (fraction of V) when the buffer reaches the upper knee:
  /// 0.5 means twice as fast as it plays.
  double threshold_at_knee = 0.5;
};

/// The BBA-2 algorithm: the family's decision with the startup ramp.
class Bba2 : public Bba1 {
 public:
  explicit Bba2(Bba2Config cfg = {});

  std::string name() const override { return "bba2"; }

  /// True while the startup ramp is active (exposed for tests/Fig. 16).
  bool in_startup() const { return decision_.in_startup(); }

  /// The Delta-B step-up threshold (seconds) at the given buffer level.
  double startup_threshold_s(double buffer_s, double buffer_max_s,
                             double chunk_duration_s) const {
    return decision_.startup_threshold_s(buffer_s, buffer_max_s,
                                         chunk_duration_s);
  }

 protected:
  /// BBA-2 plus up-switch smoothing over at most `max_lookahead_chunks`.
  Bba2(const Bba2Config& cfg, std::size_t max_lookahead_chunks);
};

}  // namespace bba::core
