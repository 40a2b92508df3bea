// Shared setup for the benches: the paper's standard experiment size (120
// sessions per window over three simulated days), the standard title
// library, and small helpers. The paper's A/B figures are rendered and
// checked by bba_paper_report from one six-group run (exp/claims.hpp).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "cli_parse.hpp"
#include "exp/abtest.hpp"
#include "exp/report.hpp"
#include "media/video.hpp"

namespace bba::bench {

/// Reads a bench's flags: the experiment flags `accept` names into `cfg`
/// (tools/cli_parse.hpp), and the bench's own through `own(i)`, which
/// returns whether it took argv[i]. Anything else prints the usage, with
/// `own_usage` for the bench's own flags, and exits 2 (0 for --help).
template <typename Own>
void read_flags(int argc, char** argv, exp::AbTestConfig* cfg,
                unsigned accept, const char* own_usage, Own own) {
  for (int i = 1; i < argc; ++i) {
    if (tools::consume_experiment_arg(argc, argv, i, cfg, accept) || own(i)) {
      continue;
    }
    const std::string_view arg = argv[i];
    std::fprintf(stderr, "usage: %s\n%s%s", argv[0],
                 tools::experiment_usage(accept).c_str(), own_usage);
    std::exit(arg == "--help" || arg == "-h" ? 0 : 2);
  }
}

/// The standard experiment the A/B ablations run, at --seed (default
/// 2014, the reference realization) and --threads (default 0 = all
/// hardware threads; results are bit-identical for every value). Like the
/// paper's fixed A/B weekends, the results are one concrete realization of
/// the population; the shape checks hold for most seeds but can flip on
/// unlucky draws of the noisier ratios.
inline exp::AbTestConfig standard_config(int argc, char** argv) {
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 120;
  cfg.days = 3;
  read_flags(argc, argv, &cfg, tools::kSeedFlag | tools::kThreadsFlag, "",
             [](int) { return false; });
  return cfg;
}

/// The shared title library (seeded identically across benches).
inline const media::VideoLibrary& standard_library() {
  static const media::VideoLibrary library = media::VideoLibrary::standard(11);
  return library;
}

/// Prints the bench banner.
inline void banner(const char* figure, const char* claim) {
  std::printf("=== %s ===\n%s\n\n", figure, claim);
}

/// Turns accumulated shape-check results into a process exit code.
inline int verdict(bool all_ok) {
  std::printf("\n%s\n", all_ok ? "All shape checks passed."
                               : "SHAPE CHECK FAILURE(S) above.");
  return all_ok ? 0 : 1;
}

}  // namespace bba::bench
