#include "podium/telemetry/trace.h"

#include <atomic>
#include <cstddef>
#include <deque>

#include "podium/telemetry/telemetry.h"
#include "podium/util/mutex.h"
#include "podium/util/thread_annotations.h"

namespace podium::telemetry {

namespace {

util::Mutex g_trace_mutex{"telemetry.greedy_trace"};

std::deque<GreedyRoundEvent>& Events() PODIUM_REQUIRES(g_trace_mutex) {
  // Intentionally leaked so traces recorded during static destruction
  // still have somewhere to go.
  static auto* events =
      new std::deque<GreedyRoundEvent>();  // podium-lint: allow(raw-new)
  return *events;
}

std::atomic<std::uint32_t> g_next_run{0};

}  // namespace

std::uint32_t GreedyTrace::NextRunId() {
  return g_next_run.fetch_add(1, std::memory_order_relaxed);
}

void GreedyTrace::Record(const GreedyRoundEvent& event) {
  Record(std::vector<GreedyRoundEvent>{event});
}

void GreedyTrace::Record(const std::vector<GreedyRoundEvent>& events) {
  // Registry lookups take the registry's lock: resolve before taking ours.
  auto& registry = MetricsRegistry::Global();
  Counter& dropped = registry.counter("telemetry.greedy_trace.dropped");
  Gauge& retained = registry.gauge("telemetry.greedy_trace.retained");
  util::MutexLock lock(g_trace_mutex);
  std::deque<GreedyRoundEvent>& buffer = Events();
  buffer.insert(buffer.end(), events.begin(), events.end());
  if (buffer.size() > kCapacity) {
    const std::size_t excess = buffer.size() - kCapacity;
    dropped.Add(excess);
    buffer.erase(buffer.begin(),
                 buffer.begin() + static_cast<std::ptrdiff_t>(excess));
  }
  retained.Set(static_cast<double>(buffer.size()));
}

std::vector<GreedyRoundEvent> GreedyTrace::Snapshot(std::size_t limit) {
  util::MutexLock lock(g_trace_mutex);
  const std::deque<GreedyRoundEvent>& buffer = Events();
  const std::size_t skip = buffer.size() > limit ? buffer.size() - limit : 0;
  return {buffer.begin() + static_cast<std::ptrdiff_t>(skip), buffer.end()};
}

void GreedyTrace::Clear() {
  Gauge& retained =
      MetricsRegistry::Global().gauge("telemetry.greedy_trace.retained");
  util::MutexLock lock(g_trace_mutex);
  Events().clear();
  retained.Set(0.0);
}

}  // namespace podium::telemetry
