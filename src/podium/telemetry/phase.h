#ifndef PODIUM_TELEMETRY_PHASE_H_
#define PODIUM_TELEMETRY_PHASE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace podium::telemetry {

namespace internal {
struct PhaseNode;
}  // namespace internal

/// Snapshot of one node of the phase tree: total wall time and completion
/// count accumulated by every Span with this name at this position.
struct PhaseStats {
  std::string name;
  double seconds = 0.0;
  std::uint64_t count = 0;
  std::vector<PhaseStats> children;
};

/// One timed operation inside a request. Spans form a tree via
/// `parent` (index into the trace's span vector, -1 for roots); the serve
/// stack nests e.g. select → admission/cache.lookup/run → greedy.select.
struct TraceSpan {
  std::string name;
  int parent = -1;
  /// Offset from the trace's start, and duration, both in seconds.
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
};

/// Per-request trace state: the span list. Created by the HTTP server when
/// a request arrives and installed as the calling thread's current trace,
/// so layers below (service, cache, greedy) can attach spans without
/// threading a context parameter through every signature.
/// NOT thread-safe — a request is handled by one thread; work fanned out
/// to pool threads is accounted to the span that launched it.
class TraceContext {
 public:
  TraceContext();

  /// Opens a span; returns its index (pass to EndSpan). Nested spans
  /// record the innermost open span as their parent.
  int BeginSpan(std::string_view name);
  void EndSpan(int index);

  /// Records an already-measured span (offset + duration in seconds,
  /// relative to the trace start) under the innermost open span. Used by
  /// layers that fan work out to pool threads — the sharded selector
  /// measures each shard's wall clock off-thread and projects it into the
  /// request trace, which the RAII Span cannot do from a non-request
  /// thread. Returns the span's index.
  int AddCompletedSpan(std::string_view name, double start_seconds,
                       double duration_seconds);

  double ElapsedSeconds() const;
  const std::vector<TraceSpan>& spans() const { return spans_; }

 private:
  std::chrono::steady_clock::time_point start_;
  std::vector<TraceSpan> spans_;
  std::vector<int> open_stack_;  // indices of currently-open spans
};

/// The thread's current trace, or nullptr outside a request. Managed by
/// TraceScope; everything else only reads it.
TraceContext* CurrentTrace();

/// RAII installer: makes `context` the calling thread's current trace for
/// the scope's lifetime (restoring the previous one, so tests can nest).
class TraceScope {
 public:
  explicit TraceScope(TraceContext* context);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext* previous_;
};

/// RAII wall-clock span, the one instrumentation primitive, with two sinks:
///   - the process phase tree, when telemetry is enabled. A span nests
///     under the span open on its thread; with none open, it attaches to
///     the root's child of that name, whatever the thread. Each open takes
///     the tree lock to find its node.
///   - the thread's current trace, when one is installed and the span is
///     not inside a util::ParallelFor body (a trace is single-threaded; the
///     loop's "parallel.<name>" span stands for its body).
/// With neither sink live it costs one atomic load and a TLS read.
class Span {
 public:
  explicit Span(std::string_view name);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

 private:
  internal::PhaseNode* node_ = nullptr;  // null <=> no phase-tree sink
  std::chrono::steady_clock::time_point start_;
  TraceContext* trace_ = nullptr;  // null <=> no request-trace sink
  int index_ = -1;
};

/// Copy of the process-wide phase tree. The root is the synthetic node
/// "process"; nodes that never completed a span are pruned.
PhaseStats PhaseTreeSnapshot();

/// Zeroes all accumulated times and counts. The tree structure (and any
/// active spans) survive; safe to call at any time.
void ResetPhaseTree();

/// Sum of `seconds` over every node named `name` anywhere in `tree`.
double SumPhaseSeconds(const PhaseStats& tree, std::string_view name);

/// First node named `name` in depth-first order, or nullptr.
const PhaseStats* FindPhase(const PhaseStats& tree, std::string_view name);

}  // namespace podium::telemetry

#endif  // PODIUM_TELEMETRY_PHASE_H_
