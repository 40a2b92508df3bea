// Shared declarations of the end-to-end benchmark (README.md).
//
// A *pass* is one complete run of a workload's fixed population through
// exp::run_ab_test_checkpointed, set-up and artifact writing included. The
// timed run repeats passes with tracing off; the traced run alternates
// untraced and traced passes and then replays a deterministic sample of
// the population through each layer's public functions (ledger.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/abtest.hpp"
#include "obs/metrics.hpp"
#include "sim/metrics.hpp"

namespace e2e {

namespace exp = bba::exp;
namespace obs = bba::obs;
namespace sim = bba::sim;

/// Every workload draws its titles from this library seed, as the CLIs do.
inline constexpr std::uint64_t kLibrarySeed = 11;

/// observed_bba2's instruments: 1-in-8 btrace sampling, a checkpoint every
/// kCheckpointEvery keys, and a detector spec loose enough that alerts (and
/// their alert-triggered captures) fire on typical seeds.
inline constexpr std::uint64_t kTraceSample = 8;
inline constexpr std::size_t kCheckpointEvery = 5000;
inline constexpr const char* kAlertSpec = "ewma_k=1.5,cusum_h=3";

/// One named workload: a fixed population and the groups that stream it.
struct Workload {
  std::string name;
  std::vector<std::string> groups;
  std::size_t threads = 1;  ///< requested; capped at the host's CPU count
  std::size_t days = 1;
  std::size_t sessions_per_window = 1;
  bool observed = false;  ///< btrace + timeline + alerts + checkpoints

  std::size_t keys() const {
    return days * exp::kWindowsPerDay * sessions_per_window;
  }
  std::size_t sessions() const { return keys() * groups.size(); }
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Every group name any workload uses, in a fixed order (the per-group
/// decision metrics are reported for all of them).
const std::vector<std::string>& all_group_names();

exp::AbrFactory factory_for(const std::string& group);
exp::AbTestConfig make_config(const Workload& w, std::uint64_t seed,
                              std::size_t threads);

// --- Digests ----------------------------------------------------------------

/// FNV-1a 64 over raw bytes.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 0xcbf29ce484222325ull);
/// Digest of the raw bits of every WindowMetrics field.
std::uint64_t cell_digest(const exp::WindowMetrics& m);
/// Digest of the raw bits of every SessionMetrics field.
std::uint64_t session_digest(const sim::SessionMetrics& m);
/// Cell digests in [group][day][window] order.
std::vector<std::uint64_t> cell_digests(const exp::AbTestResult& r);
std::string hex(std::uint64_t v);

/// The artifacts observed_bba2 writes, in digest-file order.
inline constexpr std::size_t kNumArtifacts = 4;
inline constexpr const char* kArtifactNames[kNumArtifacts] = {
    "btrace", "timeline", "alerts", "checkpoint"};

struct Artifacts {
  std::uint64_t digest[kNumArtifacts] = {};
  std::uint64_t bytes[kNumArtifacts] = {};
  std::uint64_t total_bytes() const;
  bool operator==(const Artifacts& o) const;
};

/// Committed reference digests of one (workload, seed, dimensions).
struct Reference {
  std::vector<std::uint64_t> cells;
  bool has_artifacts = false;
  Artifacts artifacts;
};

/// Looks up `path`'s entry for the workload at `seed`; false when the file
/// holds none (then the run falls back to the replay oracle).
bool load_reference(const std::string& path, const Workload& w,
                    std::uint64_t seed, Reference* out);

/// The digest-file lines describing one pass's outputs.
std::string reference_lines(const Workload& w, std::uint64_t seed,
                            const std::vector<std::uint64_t>& cells,
                            const Artifacts* artifacts);

// --- Passes -----------------------------------------------------------------

struct Pass {
  double calibration_s = 0.0;  ///< calibrate_s right before the pass
  double setup_s = 0.0;  ///< pass start -> first session
  double run_s = 0.0;    ///< first session -> artifacts written
  double cpu_s = 0.0;    ///< user + sys CPU of the whole pass
  exp::AbTestResult result;
  std::vector<std::uint64_t> cells;  ///< cell_digests(result)
  Artifacts artifacts;               ///< observed workloads only
  // Traced passes only.
  obs::MetricsSnapshot snapshot;
  std::string profile_json;
  std::uint64_t traced_sessions = 0;  ///< sessions the trace collector wrote
};

/// Runs one pass in `dir` (which must exist). Traced passes also turn on the
/// metrics registry and profiler and keep their snapshot and spans.
Pass run_pass(const Workload& w, std::uint64_t seed, std::size_t threads,
              const std::string& dir, bool traced);

/// Host-speed gauge: wall time of a fixed floating-point kernel that uses
/// no library code, on one thread. Other tenants of a shared host slow it
/// as they slow a pass, and no library change moves it.
double calibrate_s();

/// The gauge's time on an uncontended reference host (README.md).
inline constexpr double kReferenceCalibrationS = 0.060;

/// Path of observed_bba2's final checkpoint inside a pass directory.
std::string checkpoint_path(const std::string& dir);

double now_s();
double cpu_now_s();
double median(std::vector<double> v);

// --- Replay ledger (ledger.cpp) ---------------------------------------------

/// A (day, window) cell of the grid.
struct CellRef {
  std::size_t day = 0;
  std::size_t window = 0;
};

/// The cells the replay oracle recomputes for a seed: one peak and one
/// off-peak window, on a day chosen by the seed.
std::vector<CellRef> oracle_cells(const Workload& w, std::uint64_t seed);

/// Result of re-simulating whole cells on the scalar path.
struct OracleResult {
  /// [cell][group] aggregates, in oracle_cells order.
  std::vector<std::vector<exp::WindowMetrics>> cells;
  /// Every session's metrics in canonical (cell, key, group) order.
  struct Session {
    std::size_t day, window, session, group;
    sim::SessionMetrics metrics;
  };
  std::vector<Session> sessions;
};

/// Re-simulates every session of `cells` one at a time through
/// Population, session_for, simulate_session and accumulate_session.
OracleResult run_oracle(const Workload& w, std::uint64_t seed,
                        const std::vector<CellRef>& cells);

/// Map-side self-times of one replay round, as totals over its sampled
/// keys; rounds merge by adding.
struct Layers {
  double keys = 0.0;
  double sessions = 0.0;
  double chunks = 0.0;
  double segments = 0.0;
  double draw_ns = 0.0;   ///< environment_for + session_for
  double trace_ns = 0.0;  ///< trace_for_into
  /// Per group of the workload.
  std::vector<double> decide_ns, decisions, player_ns, fold_ns;
  // Observed workloads only (0 elsewhere).
  double btrace_ns = 0.0;
  double btrace_bytes = 0.0;
  double jsonl_ns = 0.0;
  /// Replayed decisions or metrics that differed from the recording.
  std::size_t mismatches = 0;

  void merge(const Layers& o);
  /// Draw, trace, and every group's decide + player + metrics fold: the
  /// map-side work of one key.
  double map_ns_per_key() const;
  /// Decide + player + metrics fold, averaged over the groups.
  double session_ns() const;
};

/// Replays `sample_keys` keys spread evenly over the canonical key order
/// (the offset moves with `round`) through each layer.
Layers measure_layers(const Workload& w, std::uint64_t seed,
                      std::size_t sample_keys, std::size_t round);

/// Fold-side self-times in ns per session, timed on the oracle's whole
/// cells in canonical order.
struct FoldLayers {
  double cell_fold_ns = 0.0;
  double timeline_ns = 0.0;  ///< observed workloads only
  double monitor_ns = 0.0;   ///< observed workloads only
};
FoldLayers measure_fold_layers(const Workload& w, std::uint64_t seed,
                               const OracleResult& oracle);

}  // namespace e2e
