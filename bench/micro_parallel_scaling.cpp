// micro_parallel_scaling: sessions/sec of the A/B harness at 1/2/4/N
// threads, printed as JSON for the bench trajectory, plus a shape check
// that all thread counts produced bit-identical results.
//
//   micro_parallel_scaling [--sessions N] [--days N]
//
// The workload is the default A/B experiment (control + bba2, common
// random numbers). On a 1-core machine the curve is flat; the JSON still
// records it so the trajectory is comparable across hosts.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "exp/abtest.hpp"
#include "media/video.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace bba;

double run_once(const std::vector<exp::Group>& groups,
                const media::VideoLibrary& library, exp::AbTestConfig cfg,
                std::size_t threads, exp::AbTestResult* out) {
  cfg.threads = threads;
  const auto start = std::chrono::steady_clock::now();
  *out = exp::run_ab_test(groups, library, cfg);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

bool identical(const exp::AbTestResult& a, const exp::AbTestResult& b) {
  for (std::size_t g = 0; g < a.cells.size(); ++g) {
    for (std::size_t d = 0; d < a.cells[g].size(); ++d) {
      for (std::size_t w = 0; w < a.cells[g][d].size(); ++w) {
        const exp::WindowMetrics& x = a.cells[g][d][w];
        const exp::WindowMetrics& y = b.cells[g][d][w];
        if (std::memcmp(&x.play_hours, &y.play_hours, sizeof(double)) != 0 ||
            std::memcmp(&x.avg_rate_bps, &y.avg_rate_bps, sizeof(double)) !=
                0 ||
            x.rebuffer_count != y.rebuffer_count ||
            x.switch_count != y.switch_count || x.sessions != y.sessions) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = 30;
  cfg.days = 1;
  cfg.seed = 2014;
  bench::read_flags(argc, argv, &cfg, tools::kSessionsFlag | tools::kDaysFlag,
                    "", [](int) { return false; });

  const std::vector<exp::Group> groups = {
      {"control", exp::make_control_factory()},
      {"bba2", exp::make_bba2_factory()},
  };
  const media::VideoLibrary& library = media::VideoLibrary::standard(11);
  const std::size_t total_sessions = cfg.days * exp::kWindowsPerDay *
                                     cfg.sessions_per_window * groups.size();

  std::vector<std::size_t> thread_counts = {1, 2, 4};
  const std::size_t hw = runtime::ThreadPool::hardware_threads();
  if (hw != 1 && hw != 2 && hw != 4) thread_counts.push_back(hw);

  exp::AbTestResult reference;
  const double warmup_s =
      run_once(groups, library, cfg, 1, &reference);  // also the T=1 warmup
  (void)warmup_s;

  std::printf("{\"bench\":\"parallel_scaling\",\"hardware_threads\":%zu,"
              "\"sessions\":%zu,\"results\":[",
              hw, total_sessions);
  bool all_identical = true;
  double base_sps = 0.0;
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    exp::AbTestResult result;
    const double seconds =
        run_once(groups, library, cfg, thread_counts[i], &result);
    all_identical = all_identical && identical(reference, result);
    const double sps = total_sessions / seconds;
    if (thread_counts[i] == 1) base_sps = sps;
    std::printf("%s{\"threads\":%zu,\"seconds\":%.4f,"
                "\"sessions_per_sec\":%.1f,\"speedup\":%.2f}",
                i == 0 ? "" : ",", thread_counts[i], seconds, sps,
                base_sps > 0.0 ? sps / base_sps : 0.0);
  }
  std::printf("],\"bit_identical\":%s}\n", all_identical ? "true" : "false");

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: results differ across thread counts (determinism "
                 "contract broken)\n");
    return 1;
  }
  return 0;
}
