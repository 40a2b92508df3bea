#include "media/video.hpp"

#include <mutex>

#include "media/decision_table.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"

namespace bba::media {

// The tables built so far, one per window. A handful of windows per run:
// a linear scan beats any map. Entries are pointer-stable.
struct Video::DecisionTables {
  std::mutex mutex;
  std::vector<std::unique_ptr<const DecisionTable>> built;
};

Video::Video(std::string name, EncodingLadder ladder, ChunkTable chunks)
    : name_(std::move(name)),
      ladder_(std::move(ladder)),
      chunks_(std::move(chunks)),
      tables_(std::make_shared<DecisionTables>()) {
  BBA_ASSERT(ladder_.size() == chunks_.num_rates(),
             "ladder and chunk table must have the same number of rates");
}

const DecisionTable& Video::decision_table(std::size_t window_chunks,
                                           bool* built) const {
  std::lock_guard<std::mutex> lock(tables_->mutex);
  for (const auto& table : tables_->built) {
    if (table->window_chunks == window_chunks) {
      if (built != nullptr) *built = false;
      return *table;
    }
  }
  obs::count(obs::Counter::kReservoirMemoBuilds);
  if (built != nullptr) *built = true;
  return *tables_->built.emplace_back(
      std::make_unique<const DecisionTable>(chunks_, ladder_, window_chunks));
}

Video make_cbr_video(std::string name, const EncodingLadder& ladder,
                     std::size_t num_chunks, double chunk_duration_s) {
  return Video(std::move(name), ladder,
               make_cbr_table(ladder, num_chunks, chunk_duration_s));
}

Video make_vbr_video(std::string name, const EncodingLadder& ladder,
                     std::size_t num_chunks, double chunk_duration_s,
                     const VbrConfig& cfg, util::Rng& rng) {
  return Video(std::move(name), ladder,
               make_vbr_table(ladder,
                              generate_complexity(num_chunks, cfg, rng),
                              chunk_duration_s));
}

VideoLibrary VideoLibrary::standard(std::uint64_t seed) {
  return standard(seed, EncodingLadder::netflix_2013());
}

VideoLibrary VideoLibrary::standard(std::uint64_t seed,
                                    const EncodingLadder& ladder) {
  util::Rng rng(seed);
  constexpr double kChunkS = 4.0;
  constexpr std::size_t kChunks = 1500;  // 100 minutes of 4 s chunks

  VideoLibrary lib;
  auto add = [&lib](Video v) {
    lib.videos_.push_back(std::make_shared<const Video>(std::move(v)));
  };

  // Steady titles: low scene variance (dialogue-driven dramas).
  VbrConfig drama;
  drama.sigma_scene = 0.25;
  drama.sigma_chunk = 0.15;
  for (int i = 0; i < 2; ++i) {
    add(make_vbr_video(util::format("drama-%d", i), ladder, kChunks, kChunkS,
                       drama, rng));
  }

  // Bursty titles: high scene variance (the "Black Hawk Down" profile of
  // Fig. 10, max/avg chunk ratio ~= 2).
  VbrConfig action;
  action.sigma_scene = 0.45;
  action.sigma_chunk = 0.25;
  for (int i = 0; i < 2; ++i) {
    add(make_vbr_video(util::format("action-%d", i), ladder, kChunks, kChunkS,
                       action, rng));
  }

  // Credits-heavy: ~2 minutes of near-static opening (negative calculated
  // reservoir at the start, Sec. 5.1).
  {
    VbrConfig cfg;
    util::Rng vrng = rng.fork(101);
    auto complexity =
        generate_complexity_with_credits(kChunks, 30, cfg, vrng);
    add(Video("credits-heavy", ladder,
              make_vbr_table(ladder, complexity, kChunkS)));
  }

  // One CBR title: the idealized Sec. 3 setting, useful as a control.
  add(make_cbr_video("cbr-reference", ladder, kChunks, kChunkS));

  return lib;
}

const Video& VideoLibrary::at(std::size_t i) const {
  BBA_ASSERT(i < videos_.size(), "video index out of range");
  return *videos_[i];
}

const Video& VideoLibrary::pick(util::Rng& rng) const {
  BBA_ASSERT(!videos_.empty(), "empty video library");
  const auto i = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(videos_.size()) - 1));
  return *videos_[i];
}

}  // namespace bba::media
