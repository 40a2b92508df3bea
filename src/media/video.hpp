// A streamable title: encoding ladder + chunk table, plus a small synthetic
// library of titles with distinct complexity profiles for the experiment
// workload.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "media/chunk_table.hpp"
#include "media/encoding_ladder.hpp"
#include "media/vbr.hpp"
#include "util/rng.hpp"

namespace bba::media {

struct DecisionTable;

/// One title as seen by the client: the rates it is encoded at and the size
/// of every chunk at every rate. Immutable after construction.
class Video {
 public:
  Video(std::string name, EncodingLadder ladder, ChunkTable chunks);

  const std::string& name() const { return name_; }
  const EncodingLadder& ladder() const { return ladder_; }
  const ChunkTable& chunks() const { return chunks_; }
  double chunk_duration_s() const { return chunks_.chunk_duration_s(); }
  std::size_t num_chunks() const { return chunks_.num_chunks(); }
  double duration_s() const { return chunks_.video_duration_s(); }

  /// The title's BBA decision table for a reservoir lookahead of
  /// `window_chunks` chunks (media/decision_table.hpp). Built on the first
  /// call for a window -- exactly once, under a lock, counted as one
  /// kReservoirMemoBuilds -- and shared by every thread and by copies of
  /// this Video. `*built`, if given, says whether this call built it. The
  /// reference stays valid while any copy of the Video lives.
  const DecisionTable& decision_table(std::size_t window_chunks,
                                      bool* built = nullptr) const;

 private:
  struct DecisionTables;

  std::string name_;
  EncodingLadder ladder_;
  ChunkTable chunks_;
  std::shared_ptr<DecisionTables> tables_;
};

/// Builds a CBR test video (every chunk exactly V * R bits).
Video make_cbr_video(std::string name, const EncodingLadder& ladder,
                     std::size_t num_chunks, double chunk_duration_s);

/// Builds a VBR video from a complexity profile config.
Video make_vbr_video(std::string name, const EncodingLadder& ladder,
                     std::size_t num_chunks, double chunk_duration_s,
                     const VbrConfig& cfg, util::Rng& rng);

/// A fixed library of synthetic titles spanning the complexity profiles the
/// paper discusses: steady dramas, bursty action titles, and
/// credits-heavy titles whose opening minutes are near-static.
class VideoLibrary {
 public:
  /// Builds the standard library deterministically from a seed.
  /// Titles are ~100 minutes long with 4-second chunks.
  static VideoLibrary standard(std::uint64_t seed);

  /// Same titles re-encoded on an arbitrary ladder -- e.g.
  /// `EncodingLadder::netflix_2013_rmin560()` for the paper's footnote-3
  /// mechanism (R_min artificially raised to 560 kb/s for users who
  /// historically sustain it).
  static VideoLibrary standard(std::uint64_t seed,
                               const EncodingLadder& ladder);

  std::size_t size() const { return videos_.size(); }
  const Video& at(std::size_t i) const;

  /// Uniformly random title.
  const Video& pick(util::Rng& rng) const;

 private:
  std::vector<std::shared_ptr<const Video>> videos_;
};

}  // namespace bba::media
