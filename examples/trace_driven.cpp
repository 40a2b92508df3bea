// Trace-driven replay: run a session over a capacity trace loaded from a
// CSV file, and dump a per-chunk log suitable for plotting.
//
//   $ ./build/examples/trace_driven [trace.csv [out.csv]]
//
// If no trace file is given (or it does not exist), a sample highly
// variable trace in the spirit of the paper's Fig. 1 is generated, written
// to ./sample_trace.csv, and used. The trace format is
// `duration_s,rate_bps` rows; '#' lines are comments.
#include <cstdio>
#include <string>

#include "core/bba_others.hpp"
#include "media/video.hpp"
#include "net/trace_gen.hpp"
#include "net/trace_io.hpp"
#include "sim/metrics.hpp"
#include "sim/player.hpp"
#include "util/csv.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace bba;

  const std::string trace_path = argc > 1 ? argv[1] : "sample_trace.csv";
  const std::string out_path = argc > 2 ? argv[2] : "session_log.csv";

  std::optional<net::CapacityTrace> trace = net::read_trace_csv(trace_path);
  if (!trace) {
    std::printf("no trace at %s; generating a sample Fig.1-style trace\n",
                trace_path.c_str());
    util::Rng rng(1);
    net::MarkovTraceConfig cfg;
    cfg.median_bps = util::mbps(3.0);
    cfg.sigma_log = 1.25;  // wildly variable, as in the paper's Fig. 1
    cfg.min_bps = util::kbps(500);
    cfg.max_bps = util::mbps(17);
    trace = net::make_markov_trace(cfg, rng);
    if (!net::write_trace_csv(trace_path, *trace)) {
      std::fprintf(stderr, "could not write %s\n", trace_path.c_str());
      return 1;
    }
  }
  std::printf("trace: %zu segments, 75/25 percentile ratio %.1f\n",
              trace->segments().size(), net::variation_ratio(*trace));

  util::Rng rng(2);
  const media::Video video = media::make_vbr_video(
      "trace-driven-title", media::EncodingLadder::netflix_2013(), 900, 4.0,
      media::VbrConfig{}, rng);

  core::BbaOthers abr;
  sim::PlayerConfig player;
  player.watch_duration_s = util::minutes(45);
  const sim::SessionResult session =
      sim::simulate_session(video, *trace, abr, player);

  util::CsvWriter log(out_path);
  if (!log.ok()) {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    return 1;
  }
  log.comment("per-chunk session log");
  log.row(std::vector<std::string>{"finish_s", "chunk", "rate_kbps",
                                   "buffer_s", "throughput_kbps",
                                   "download_s"});
  for (const auto& c : session.chunks) {
    log.row(std::vector<double>{c.finish_s, static_cast<double>(c.index),
                                util::to_kbps(c.rate_bps), c.buffer_after_s,
                                util::to_kbps(c.throughput_bps),
                                c.download_s});
  }
  if (!log.close()) {
    std::fprintf(stderr, "could not write %s\n", out_path.c_str());
    return 1;
  }

  const sim::SessionMetrics m = sim::compute_metrics(session);
  std::printf("played %.1f min at %.0f kb/s avg; %lld rebuffers (%.1f s)\n",
              m.play_s / 60.0, util::to_kbps(m.avg_rate_bps),
              m.rebuffer_count, m.rebuffer_s);
  std::printf("per-chunk log written to %s\n", out_path.c_str());
  return 0;
}
