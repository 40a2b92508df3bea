// Workloads, digests, and one timed pass of a workload through the
// library's public entry points.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>

#include "abr/bola.hpp"
#include "e2ebench.hpp"
#include "exp/checkpoint.hpp"
#include "media/video.hpp"
#include "obs/obs.hpp"
#include "obs/setup.hpp"

namespace e2e {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"paper_report",
       {"control", "rmin-always", "bba0", "bba1", "bba2", "bba-others"},
       4, 2, 1000, false},
      {"scalar_control_bola", {"control", "bola"}, 1, 1, 1000, false},
      {"observed_bba2", {"bba2"}, 4, 3, 2800, true},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

const std::vector<std::string>& all_group_names() {
  static const std::vector<std::string> kNames = {
      "control", "rmin-always", "bba0", "bba1", "bba2", "bba-others", "bola"};
  return kNames;
}

exp::AbrFactory factory_for(const std::string& group) {
  if (group == "control") return exp::make_control_factory();
  if (group == "rmin-always") return exp::make_rmin_factory();
  if (group == "bba0") return exp::make_bba0_factory();
  if (group == "bba1") return exp::make_bba1_factory();
  if (group == "bba2") return exp::make_bba2_factory();
  if (group == "bba-others") return exp::make_bba_others_factory();
  if (group == "bola") {
    return [] { return std::make_unique<bba::abr::BolaAbr>(); };
  }
  std::fprintf(stderr, "e2ebench: unknown group %s\n", group.c_str());
  std::exit(2);
}

exp::AbTestConfig make_config(const Workload& w, std::uint64_t seed,
                              std::size_t threads) {
  exp::AbTestConfig cfg;
  cfg.sessions_per_window = w.sessions_per_window;
  cfg.days = w.days;
  cfg.seed = seed;
  cfg.threads = threads;
  return cfg;
}

// --- Digests ----------------------------------------------------------------

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

template <typename T>
std::uint64_t mix(std::uint64_t h, T v) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  return fnv1a(bytes, sizeof(T), h);
}

}  // namespace

std::uint64_t cell_digest(const exp::WindowMetrics& m) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (double v : {m.play_hours, m.rebuffer_count, m.rebuffer_s,
                   m.avg_rate_bps, m.startup_rate_bps, m.steady_rate_bps,
                   m.switch_count, m.steady_play_hours,
                   m.fault_stall_count}) {
    h = mix(h, v);
  }
  return mix(h, m.sessions);
}

std::uint64_t session_digest(const sim::SessionMetrics& m) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (double v : {m.play_s, m.join_s, m.rebuffer_s, m.rebuffers_per_hour,
                   m.avg_rate_bps, m.startup_rate_bps, m.steady_rate_bps,
                   m.switches_per_hour, m.avg_buffer_s, m.steady_play_s}) {
    h = mix(h, v);
  }
  for (long long v : {m.rebuffer_count, m.fault_stall_count,
                      m.switch_count}) {
    h = mix(h, v);
  }
  for (bool v : {m.has_steady, m.abandoned}) h = mix(h, v ? 1 : 0);
  return h;
}

std::vector<std::uint64_t> cell_digests(const exp::AbTestResult& r) {
  std::vector<std::uint64_t> out;
  for (const auto& group : r.cells) {
    for (const auto& day : group) {
      for (const exp::WindowMetrics& cell : day) {
        out.push_back(cell_digest(cell));
      }
    }
  }
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t Artifacts::total_bytes() const {
  std::uint64_t total = 0;
  for (std::uint64_t b : bytes) total += b;
  return total;
}

bool Artifacts::operator==(const Artifacts& o) const {
  for (std::size_t i = 0; i < kNumArtifacts; ++i) {
    if (digest[i] != o.digest[i] || bytes[i] != o.bytes[i]) return false;
  }
  return true;
}

namespace {

std::string dims_token(const Workload& w) {
  return std::to_string(w.days) + "x" +
         std::to_string(w.sessions_per_window);
}

bool parse_hex(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 16);
  return *end == '\0';
}

/// Digest and size of a file; a missing file digests as size 0. Artifact
/// files reach hundreds of MB, so the FNV-1a steps take 8-byte
/// little-endian words (the final partial word byte by byte).
void file_digest(const std::string& path, std::uint64_t* digest,
                 std::uint64_t* bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  *bytes = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f != nullptr) {
    std::vector<unsigned char> buf(1 << 20);
    std::size_t n;
    while ((n = std::fread(buf.data(), 1, buf.size(), f)) > 0) {
      std::size_t i = 0;
      for (; i + 8 <= n; i += 8) {
        std::uint64_t word;
        std::memcpy(&word, buf.data() + i, 8);
        h = (h ^ word) * 0x100000001b3ull;
      }
      h = fnv1a(buf.data() + i, n - i, h);
      *bytes += n;
    }
    std::fclose(f);
  }
  *digest = h;
}

}  // namespace

bool load_reference(const std::string& path, const Workload& w,
                    std::uint64_t seed, Reference* out) {
  std::ifstream in(path);
  if (!in) return false;
  *out = Reference{};
  const std::string seed_token = std::to_string(seed);
  const std::string dims = dims_token(w);
  bool found = false;
  std::size_t artifacts_seen = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, s, d, kind;
    ls >> name >> s >> d >> kind;
    if (name != w.name || s != seed_token || d != dims) continue;
    if (kind == "cells") {
      std::string list;
      ls >> list;
      std::istringstream cs(list);
      std::string item;
      while (std::getline(cs, item, ',')) {
        std::uint64_t v = 0;
        if (!parse_hex(item, &v)) return false;
        out->cells.push_back(v);
      }
      found = true;
    } else if (kind == "artifact") {
      std::string artifact, digest;
      std::uint64_t bytes = 0;
      ls >> artifact >> digest >> bytes;
      for (std::size_t i = 0; i < kNumArtifacts; ++i) {
        if (artifact != kArtifactNames[i]) continue;
        if (!parse_hex(digest, &out->artifacts.digest[i])) return false;
        out->artifacts.bytes[i] = bytes;
        ++artifacts_seen;
      }
    }
  }
  out->has_artifacts = artifacts_seen == kNumArtifacts;
  return found && out->cells.size() ==
                      w.groups.size() * w.days * exp::kWindowsPerDay;
}

std::string reference_lines(const Workload& w, std::uint64_t seed,
                            const std::vector<std::uint64_t>& cells,
                            const Artifacts* artifacts) {
  const std::string prefix =
      w.name + " " + std::to_string(seed) + " " + dims_token(w) + " ";
  std::string out = prefix + "cells ";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += ",";
    out += hex(cells[i]);
  }
  out += "\n";
  if (artifacts != nullptr) {
    for (std::size_t i = 0; i < kNumArtifacts; ++i) {
      out += prefix + "artifact " + kArtifactNames[i] + " " +
             hex(artifacts->digest[i]) + " " +
             std::to_string(artifacts->bytes[i]) + "\n";
    }
  }
  return out;
}

// --- Passes -----------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

std::string checkpoint_path(const std::string& dir) {
  return dir + "/run.bbackpt";
}

namespace {

std::string artifact_path(const std::string& dir, std::size_t i) {
  static const char* const kFiles[kNumArtifacts] = {
      "trace.btrace", "timeline.json", "alerts.jsonl", "run.bbackpt"};
  return dir + "/" + kFiles[i];
}

/// The instant the first session starts: the harness asks a group factory
/// for an ABR instance right before a worker simulates its first session.
struct FirstSession {
  std::once_flag once;
  double at = 0.0;
  void mark() {
    std::call_once(once, [this] { at = now_s(); });
  }
};

/// Scalar floating-point work with data-dependent branches and lookups in
/// a 1 MiB table -- the character of the session simulation, and none of
/// its code.
double calibration_kernel(std::uint64_t x) {
  std::vector<double> table(std::size_t{1} << 17, 1.0);
  double acc = 0.0;
  for (int i = 0; i < 8000000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
    double& t = table[x >> 47];
    if (u < 0.3) {
      t += std::log1p(u);
    } else {
      acc += t * u;
    }
  }
  return acc;
}

}  // namespace

double calibrate_s() {
  const double t0 = now_s();
  const double result = calibration_kernel(1);
  const double elapsed = now_s() - t0;
  // Reading the result keeps the kernel from being optimized away.
  if (!std::isfinite(result)) {
    std::fprintf(stderr, "e2ebench: calibration kernel diverged\n");
    std::exit(1);
  }
  return elapsed;
}

Pass run_pass(const Workload& w, std::uint64_t seed, std::size_t threads,
              const std::string& dir, bool traced) {
  Pass p;
  p.calibration_s = calibrate_s();
  FirstSession first;
  const double cpu0 = cpu_now_s();
  const double t0 = now_s();
  {
    const bba::media::VideoLibrary library =
        bba::media::VideoLibrary::standard(kLibrarySeed);
    obs::ObsOptions opts;
    exp::CheckpointOptions ckpt;
    if (w.observed) {
      opts.trace_out = artifact_path(dir, 0);
      opts.trace_format = "btrace";
      opts.trace_sample = kTraceSample;
      opts.timeline_out = artifact_path(dir, 1);
      opts.alerts_out = artifact_path(dir, 2);
      opts.alert_spec = kAlertSpec;
      ckpt.out = artifact_path(dir, 3);
      ckpt.every = kCheckpointEvery;
    }
    if (traced) {
      opts.metrics_out = dir + "/metrics.json";
      opts.profile_out = dir + "/profile.json";
    }
    obs::ObsScope scope(opts, threads);
    if (!scope.ok()) {
      std::fprintf(stderr, "e2ebench: could not set up instruments in %s\n",
                   dir.c_str());
      std::exit(1);
    }

    std::vector<exp::Group> groups;
    for (const std::string& name : w.groups) {
      groups.push_back({name, [&first, inner = factory_for(name)] {
                          first.mark();
                          return inner();
                        }});
    }
    std::string error;
    if (!exp::run_ab_test_checkpointed(groups, library,
                                       make_config(w, seed, threads), ckpt,
                                       &p.result, &error)) {
      std::fprintf(stderr, "e2ebench: run failed: %s\n", error.c_str());
      std::exit(1);
    }
    if (obs::Observability* o = scope.handle()) {
      if (traced) {
        p.snapshot = o->metrics->snapshot();
        p.profile_json = o->profiler->chrome_trace_json();
      }
      if (o->trace != nullptr) {
        p.traced_sessions = o->trace->sessions_written();
      }
    }
  }  // the scope writes the timeline, alerts and btrace footer here
  const double t_end = now_s();
  p.setup_s = first.at - t0;
  p.run_s = t_end - first.at;
  p.cpu_s = cpu_now_s() - cpu0;
  p.cells = cell_digests(p.result);
  if (w.observed) {
    // Digest, then delete the large files, so the next pass neither
    // truncates them during its set-up nor competes with their writeback.
    // The checkpoint stays for the traced run's save/load timing.
    for (std::size_t i = 0; i < kNumArtifacts; ++i) {
      const std::string path = artifact_path(dir, i);
      file_digest(path, &p.artifacts.digest[i], &p.artifacts.bytes[i]);
      if (i != 3) std::remove(path.c_str());
    }
  }
  std::fprintf(stderr,
               "e2ebench: %s pass: setup %.6f s, run %.6f s, cpu %.6f s, "
               "%.1f sessions/s%s, calibration %.6f s\n",
               w.name.c_str(), p.setup_s, p.run_s, p.cpu_s,
               static_cast<double>(w.sessions()) / p.run_s,
               traced ? " (traced)" : "", p.calibration_s);
  return p;
}

}  // namespace e2e
