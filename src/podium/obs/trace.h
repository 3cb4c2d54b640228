#ifndef PODIUM_OBS_TRACE_H_
#define PODIUM_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "podium/telemetry/phase.h"
#include "podium/util/mutex.h"
#include "podium/util/thread_annotations.h"

namespace podium::obs {

/// 128-bit request trace identifier, rendered as 32 lowercase hex chars —
/// the W3C trace-context width, so ids can travel unmodified through
/// fronting proxies. Propagated over HTTP in the X-Podium-Trace-Id
/// request/response headers: a client-supplied id is adopted verbatim,
/// otherwise the server mints one.
struct TraceId {
  std::uint64_t high = 0;
  std::uint64_t low = 0;

  bool IsZero() const { return high == 0 && low == 0; }
  std::string ToHex() const;

  /// Parses exactly 32 hex characters (either case); nullopt otherwise.
  static std::optional<TraceId> FromHex(std::string_view hex);

  /// Mints a process-unique, unpredictable-enough id (seeded per process,
  /// mixed with an atomic counter). Never returns the zero id.
  static TraceId Generate();
};

/// A completed request trace, as exported by GET /v1/traces.
struct FinishedTrace {
  std::string trace_id;  // 32 hex chars
  std::string method;
  std::string path;
  int http_status = 0;
  double start_unix_seconds = 0.0;
  double total_seconds = 0.0;
  std::vector<telemetry::TraceSpan> spans;
};

/// Bounded in-memory ring of the most recent finished traces. One global
/// instance backs /v1/traces; capacity is fixed at construction and the
/// oldest trace is dropped when full, so memory stays bounded no matter
/// the request rate.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  void Record(FinishedTrace trace) PODIUM_EXCLUDES(mutex_);

  /// Most recent first, at most `limit` (0 = everything retained).
  std::vector<FinishedTrace> Snapshot(std::size_t limit = 0) const
      PODIUM_EXCLUDES(mutex_);

  void Clear() PODIUM_EXCLUDES(mutex_);
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const PODIUM_EXCLUDES(mutex_);

  /// The process-wide ring (capacity 256) the serve stack records into.
  static TraceRing& Global();

 private:
  const std::size_t capacity_;
  mutable util::Mutex mutex_{"obs.trace_ring"};
  std::deque<FinishedTrace> traces_ PODIUM_GUARDED_BY(mutex_);
};

}  // namespace podium::obs

#endif  // PODIUM_OBS_TRACE_H_
