// Microbenchmark: per-chunk decision cost of each ABR algorithm.
//
// The decision path runs once per 4-second chunk in a real client, so
// anything under a few microseconds is irrelevant in production -- this
// bench exists to keep the simulator fast (the A/B harness makes millions
// of decisions) and to catch accidental O(video-length) regressions.
#include <benchmark/benchmark.h>

#include <memory>

#include "abr/baselines.hpp"
#include "abr/bola.hpp"
#include "abr/control.hpp"
#include "core/bba0.hpp"
#include "core/bba1.hpp"
#include "core/bba2.hpp"
#include "core/bba_others.hpp"
#include "media/video.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace bba;

const media::Video& test_video() {
  static const media::Video video = [] {
    util::Rng rng(3);
    return media::make_vbr_video("bench", media::EncodingLadder::netflix_2013(),
                                 1500, 4.0, media::VbrConfig{}, rng);
  }();
  return video;
}

void run_decisions(benchmark::State& state, abr::RateAdaptation& algo) {
  const media::Video& video = test_video();
  std::size_t k = 0;
  std::size_t prev = 0;
  double buffer = 0.0;
  algo.reset();
  for (auto _ : state) {
    abr::Observation obs;
    obs.chunk_index = k;
    obs.buffer_s = buffer;
    obs.buffer_max_s = 240.0;
    obs.now_s = 4.0 * static_cast<double>(k);
    obs.prev_rate_index = prev;
    obs.last_throughput_bps = util::mbps(3.0);
    obs.last_download_s = 1.0;
    obs.delta_buffer_s = 3.0;
    obs.playing = true;
    obs.video = &video;
    prev = algo.choose_rate(obs);
    benchmark::DoNotOptimize(prev);
    buffer = buffer >= 230.0 ? 20.0 : buffer + 3.0;
    k = (k + 1) % video.num_chunks();
    if (k == 0) algo.reset();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Control(benchmark::State& state) {
  abr::ControlAbr algo;
  run_decisions(state, algo);
}

void BM_RMinAlways(benchmark::State& state) {
  abr::RMinAlways algo;
  run_decisions(state, algo);
}

void BM_Bba0(benchmark::State& state) {
  core::Bba0 algo;
  run_decisions(state, algo);
}

void BM_Bba1(benchmark::State& state) {
  core::Bba1 algo;
  run_decisions(state, algo);
}

void BM_Bba2(benchmark::State& state) {
  core::Bba2 algo;
  run_decisions(state, algo);
}

void BM_BbaOthers(benchmark::State& state) {
  core::BbaOthers algo;
  run_decisions(state, algo);
}

void BM_Bola(benchmark::State& state) {
  abr::BolaAbr algo;
  run_decisions(state, algo);
}

BENCHMARK(BM_Control);
BENCHMARK(BM_RMinAlways);
BENCHMARK(BM_Bba0);
BENCHMARK(BM_Bba1);
BENCHMARK(BM_Bba2);
BENCHMARK(BM_BbaOthers);
BENCHMARK(BM_Bola);

}  // namespace

BENCHMARK_MAIN();
