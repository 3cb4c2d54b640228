// In-memory spans for the traced run: one span per call into a layer's
// public function, recorded from the benchmark's own code around the call.
// Spans are kept in memory, aggregated into per-layer self time, and
// written out as JSON when the run ends.

#ifndef SELBENCH_SPANS_H_
#define SELBENCH_SPANS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace selbench {

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the tracer was created
  double end = 0.0;
  int parent = -1;     // index of the enclosing span, -1 for a root
  std::uint64_t request = 0;
};

/// Self time of spans[index]: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once).
double SelfSeconds(const std::vector<Span>& spans, std::size_t index);

struct LayerTime {
  double self_seconds = 0.0;
  double total_seconds = 0.0;
  std::size_t count = 0;
};

/// Self and total time summed per span name.
std::map<std::string, LayerTime> AggregateByName(
    const std::vector<Span>& spans);

/// Records nested spans on one thread. Not thread-safe; the traced run is
/// single-threaded so that self times are not confounded by contention.
class Tracer {
 public:
  Tracer();

  /// Opens a span as a child of the innermost open one.
  std::size_t Begin(std::string_view name, std::uint64_t request);
  /// Closes the innermost open span, which must be `index`.
  void End(std::size_t index);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, std::uint64_t request)
        : tracer_(tracer), index_(tracer.Begin(name, request)) {}
    ~Scope() { tracer_.End(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    double Seconds() const;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as a JSON array of {name, start, end, parent,
  /// request}; false when the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  double Now() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace selbench

#endif  // SELBENCH_SPANS_H_
