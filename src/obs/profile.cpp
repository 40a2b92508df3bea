#include "obs/profile.hpp"

#include <algorithm>
#include <cstdio>

namespace bba::obs {

Profiler::Profiler(std::size_t slots, std::size_t max_events_per_slot)
    : slots_(slots == 0 ? 1 : slots),
      max_events_(max_events_per_slot),
      epoch_(std::chrono::steady_clock::now()) {}

void Profiler::record(std::size_t slot, const char* name, double ts_us,
                      double dur_us) {
  SlotBuf& buf = slots_[slot % slots_.size()];
  if (buf.events.size() >= max_events_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.events.push_back(
      {name, ts_us, dur_us, static_cast<std::uint32_t>(slot)});
}

std::string Profiler::chrome_trace_json() const {
  std::vector<Event> merged;
  std::size_t total = 0;
  for (const SlotBuf& s : slots_) total += s.events.size();
  merged.reserve(total);
  for (const SlotBuf& s : slots_) {
    merged.insert(merged.end(), s.events.begin(), s.events.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const Event& a, const Event& b) { return a.ts_us < b.ts_us; });

  // Metadata (ph:"M") events first, so Perfetto / chrome://tracing label
  // the process and each executor-slot track instead of showing bare pids.
  std::vector<std::uint32_t> tids;
  tids.reserve(merged.size());
  for (const Event& e : merged) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"bba harness\"}}";
  for (const std::uint32_t tid : tids) {
    std::snprintf(buf, sizeof buf,
                  ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                  "\"tid\":%u,\"args\":{\"name\":\"slot %u\"}}",
                  tid, tid);
    out += buf;
  }
  for (const Event& e : merged) {
    std::snprintf(buf, sizeof buf,
                  ",{\"name\":\"%s\",\"cat\":\"bba\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%u}",
                  e.name, e.ts_us, e.dur_us, e.tid);
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace bba::obs
