// Bound checks for the CLI tools' numeric flags, and the one reader of the
// run settings the harness tools and the benches share.
//
// Every numeric token goes through the library's one number rule,
// util::parse_u64 / util::parse_num (util/csv.hpp): the whole token or a
// failure, never a silent 0 for "pony" or a wrapped "-5". These helpers
// add the flags' bounds, and the callers print a one-line error naming the
// flag. A run setting has one source, its flag: consume_experiment_arg
// reads the experiment flags, exp::CheckpointOptions::consume_arg the
// checkpoint flags and obs::ObsOptions::consume_arg the observability
// flags.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "exp/abtest.hpp"
#include "exp/checkpoint.hpp"
#include "net/fault_inject.hpp"
#include "obs/setup.hpp"
#include "util/csv.hpp"

namespace bba::tools {

/// Count that must be >= 1 (e.g. --sessions, --days, --batch-sessions).
inline bool parse_count(const char* s, std::size_t* out) {
  std::uint64_t v = 0;
  if (!util::parse_u64(s, &v) || v == 0) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

/// Count that may be 0 (e.g. --threads, where 0 = hardware concurrency).
inline bool parse_count0(const char* s, std::size_t* out) {
  std::uint64_t v = 0;
  if (!util::parse_u64(s, &v)) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

/// Double strictly inside (0, 1) (e.g. --confidence).
inline bool parse_unit_open(const char* s, double* out) {
  double v = 0.0;
  if (!util::parse_num(s, &v) || !(v > 0.0 && v < 1.0)) return false;
  *out = v;
  return true;
}

/// Grid coordinates "DAY,WINDOW,SESSION", each an unsigned integer. With
/// `rest` non-null a fourth ",TEXT" field is allowed and returned there
/// (empty when absent).
inline bool parse_coords(std::string_view s, std::uint64_t out[3],
                         std::string* rest = nullptr) {
  for (int i = 0; i < 3; ++i) {
    const std::size_t comma = s.find(',');
    if (i < 2 && comma == std::string_view::npos) return false;
    if (!util::parse_u64(s.substr(0, comma), &out[i])) return false;
    s = comma == std::string_view::npos ? std::string_view()
                                        : s.substr(comma + 1);
    if (i == 2 && comma != std::string_view::npos) {
      if (rest == nullptr || s.empty()) return false;
      rest->assign(s);
    }
  }
  if (rest != nullptr && s.empty()) rest->clear();
  return true;
}

/// The experiment flags. Each binary takes the subset it names.
enum ExperimentFlag : unsigned {
  kSessionsFlag = 1u << 0,  ///< --sessions N (>= 1), per (day, window)
  kDaysFlag = 1u << 1,      ///< --days N (>= 1)
  kSeedFlag = 1u << 2,      ///< --seed S
  kThreadsFlag = 1u << 3,   ///< --threads N (0 = hardware concurrency)
  kFaultsFlag = 1u << 4,    ///< --faults SPEC (docs/faults.md)
  kExperimentFlags = (1u << 5) - 1,
};

/// As obs::ObsOptions::consume_arg, for the experiment flags `accept`
/// names: if argv[i] is one, reads its value into `cfg` (advancing `i`)
/// and returns true; a missing or malformed value prints one line and
/// exits 2.
inline bool consume_experiment_arg(int argc, char** argv, int& i,
                                   exp::AbTestConfig* cfg,
                                   unsigned accept = kExperimentFlags) {
  const std::string_view arg = argv[i];
  auto takes = [&](const char* flag, unsigned bit) {
    return (accept & bit) != 0 && arg == flag;
  };
  auto check = [&](bool ok, const char* detail) {
    if (ok) return;
    std::fprintf(stderr, "%s: expects %s, got '%s'\n", argv[i - 1], detail,
                 argv[i]);
    std::exit(2);
  };
  auto value = [&] { return util::flag_value_or_exit(argc, argv, i); };
  if (takes("--sessions", kSessionsFlag)) {
    check(parse_count(value(), &cfg->sessions_per_window),
          "a positive session count");
  } else if (takes("--days", kDaysFlag)) {
    check(parse_count(value(), &cfg->days), "a positive day count");
  } else if (takes("--seed", kSeedFlag)) {
    check(util::parse_u64(value(), &cfg->seed), "an unsigned integer");
  } else if (takes("--threads", kThreadsFlag)) {
    check(parse_count0(value(), &cfg->threads),
          "a thread count >= 0 (0 = hardware)");
  } else if (takes("--faults", kFaultsFlag)) {
    std::string error;
    if (!net::parse_fault_plan(value(), &cfg->population.faults, &error)) {
      std::fprintf(stderr, "--faults: %s\n", error.c_str());
      std::exit(2);
    }
  } else {
    return false;
  }
  return true;
}

/// The usage lines for the experiment flags `accept` names.
inline std::string experiment_usage(unsigned accept = kExperimentFlags) {
  static constexpr struct {
    unsigned flag;
    const char* text;
  } kLines[] = {
      {kSessionsFlag, "          [--sessions N]  sessions per (day, window)\n"},
      {kDaysFlag, "          [--days N]  simulated days\n"},
      {kSeedFlag, "          [--seed S]  experiment seed\n"},
      {kThreadsFlag,
       "          [--threads N]  0 = all hardware threads; the result is\n"
       "            bit-identical for every thread count\n"},
      {kFaultsFlag,
       "          [--faults SPEC]  fault plan for every session's trace,\n"
       "            e.g. 'outage:every=300,dur=20..35;spike:every=240,\n"
       "            depth=0.1..0.3'; docs/faults.md (default off)\n"},
  };
  std::string out;
  for (const auto& line : kLines) {
    if ((accept & line.flag) != 0) out += line.text;
  }
  return out;
}

/// The run settings bba_abtest and bba_paper_report share: every
/// experiment flag, the checkpoint flags and the observability flags.
struct HarnessFlags {
  exp::AbTestConfig cfg;
  exp::CheckpointOptions ckpt;
  obs::ObsOptions obs;

  bool consume_arg(int argc, char** argv, int& i) {
    return consume_experiment_arg(argc, argv, i, &cfg) ||
           ckpt.consume_arg(argc, argv, i) || obs.consume_arg(argc, argv, i);
  }

  /// The rules the flags share, applied once argv is read: a shard needs
  /// --checkpoint-out (exit 2 otherwise), and a resumed run reopens the
  /// interrupted run's trace file and truncates it back to the checkpoint
  /// instead of starting over.
  void finish() {
    if (ckpt.sharded() && ckpt.out.empty() && !ckpt.resuming()) {
      std::fprintf(stderr,
                   "--shard needs --checkpoint-out (the shard's partial "
                   "result IS its checkpoint)\n");
      std::exit(2);
    }
    obs.trace_resume = ckpt.resuming();
  }

  /// The usage lines for every shared flag.
  static std::string usage() {
    return experiment_usage() + exp::CheckpointOptions::usage() +
           obs::ObsOptions::usage();
  }
};

}  // namespace bba::tools
