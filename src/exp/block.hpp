// Reusable session-block execution: the streaming parallel-map +
// ordered-fold core of the A/B harness, factored out of run_ab_test so
// fixed-budget runs and the sequential experiment engine (src/seq) share
// one implementation.
//
// A SessionBlockRunner owns everything that persists across blocks -- the
// executor and its per-thread scratch, the population sampler, the reused
// ABR instances, the trace-collector integration, the ring of in-flight
// keys -- and simulates any sequence of session keys on demand. Each key
// is streamed by every group under common random numbers, exactly as in
// run_ab_test, and the per-session metrics are folded in canonical
// (key, group) order on the calling thread, interleaved with the
// simulation: a key is folded as soon as it and every key before it are
// done. Only a window of keys (runtime::SessionExecutor::window, a few
// claims per thread) is ever in flight, so memory does not grow with the
// block. The output is a pure function of the keys and the config:
// bit-identical at any thread count, and identical whether the keys arrive
// in one block or split across many (which is what makes adaptive
// batching in src/seq safe).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "exp/abtest.hpp"
#include "exp/session_key.hpp"
#include "media/video.hpp"
#include "sim/metrics.hpp"

namespace bba::exp {

class SessionBlockRunner {
 public:
  /// Captures the groups, library, and config by value/reference; the
  /// library must outlive the runner. Obs instruments are picked up from
  /// obs::global() at construction, like run_ab_test.
  SessionBlockRunner(const std::vector<Group>& groups,
                     const media::VideoLibrary& library,
                     const AbTestConfig& cfg);
  ~SessionBlockRunner();

  SessionBlockRunner(const SessionBlockRunner&) = delete;
  SessionBlockRunner& operator=(const SessionBlockRunner&) = delete;

  /// Receives the finished metrics of (key key_index, group), invoked
  /// sequentially on the calling thread in ascending (key_index, group)
  /// order.
  using Fold = std::function<void(std::size_t key_index, std::size_t group,
                                  const sim::SessionMetrics&)>;

  /// Key `key_index` of a block. Called from any thread, once per key;
  /// must be a pure function of the index.
  using KeyAt = std::function<SessionKey(std::size_t key_index)>;

  /// Simulates keys key_at(0), ..., key_at(n_keys - 1) with every group
  /// (parallel map over keys) and folds them in canonical order on the
  /// calling thread, streaming: fold(i, g, m) runs as soon as keys 0..i
  /// are simulated, while later keys are still being simulated, and a
  /// key's session traces are written at its fold. Per-key state lives in
  /// a ring of window-many slots, so neither metrics nor trace bytes are
  /// held for the whole block, and no key list is built. Safe to call
  /// repeatedly; session traces are appended block by block in call order.
  /// If a simulation throws, the keys before it are folded and the
  /// exception propagates. Both harnesses call it: run_ab_test with
  /// shard_key over --checkpoint-every blocks, the sequential engine with
  /// each round's contiguous range of its canonical key sequence.
  void run(std::size_t n_keys, const KeyAt& key_at, const Fold& fold);

  /// Flushes the trace collector. Call once after the last block (and
  /// before reading the trace file); run_ab_test and the sequential engine
  /// both do.
  void finish();

  /// Re-simulates one (key, group) session and appends it to the trace
  /// with `alert_line` embedded as its evidence marker -- the health
  /// monitor's alert-triggered capture (obs/monitor.hpp). The replay runs
  /// on the calling thread with the metrics registry muted, so fold
  /// results and metrics are untouched; call between run() blocks or after
  /// the last one (never concurrently with run()), before finish(). The
  /// session's trace bytes are a pure function of (key, group, marker).
  void capture_session(const SessionKey& key, std::size_t group,
                       const std::string& alert_line);

  /// Total keys folded across every run() on this runner -- the executor's
  /// sequential-fold cursor, which the checkpoint layer uses as the
  /// authoritative position in the canonical key sequence.
  std::size_t keys_folded() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bba::exp
