// Order statistics, the tail-percentile sample rule, and the open-loop
// ladder search of the selection benchmark.

#ifndef SELBENCH_STATS_H_
#define SELBENCH_STATS_H_

#include <cstddef>
#include <functional>
#include <vector>

namespace selbench {

/// Nearest-rank percentile (pct in (0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double pct);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Samples that lie strictly beyond the nearest-rank pct-th percentile of n
/// samples: n - ceil(n * pct / 100).
std::size_t SamplesBeyond(std::size_t n, double pct);

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Smallest n for which the pct-th percentile has kMinSamplesBeyond
/// samples beyond it.
std::size_t SamplesNeededFor(double pct);

/// The highest of the usual tail percentiles, at most `cap`, that n samples
/// support (kMinSamplesBeyond beyond it); 50 when none does.
double HighestSupportedPercentile(std::size_t n, double cap);

/// A load phase's rate, median and tail latency, each the median over
/// equal time windows of the phase, so that a stall confined to a few
/// windows moves none of them. A figure gets as many windows (at most 20)
/// as keep twice the samples its percentile needs (SamplesNeededFor) in
/// each; the rate is windowed like the median.
struct WindowedFigures {
  double rate = 0.0;  // samples per second
  double p50 = 0.0;
  double tail = 0.0;  // pct-th percentile
  std::size_t windows = 1;
};

/// `times` (seconds from the phase start, in [0, duration]) and `values`
/// are parallel: when each sample happened and what it measured.
WindowedFigures Windowed(const std::vector<double>& times,
                         const std::vector<double>& values, double duration,
                         double pct);

/// One open-loop probe at a fixed offered rate.
struct ProbeResult {
  double rate = 0.0;        // offered requests per second
  std::size_t sent = 0;
  std::size_t failed = 0;   // transport errors, non-2xx, wrong bodies
  double tail_ms = 0.0;     // tail latency from the scheduled send
  bool backlog_growing = false;
  bool passed = false;
};

/// Whether a probe meets the latency limit: no request failed, the tail
/// stays within `limit_ms`, and the generator's backlog is not growing.
bool ProbePasses(const ProbeResult& probe, double limit_ms);

/// True when the generator fell behind its schedule for good: the median
/// lateness (ms) of the last quarter of a probe's requests, in schedule
/// order, exceeds that of the first quarter by more than a quarter of the
/// latency limit.
bool BacklogGrowing(const std::vector<double>& lateness_ms, double limit_ms);

/// Rates lo, lo*ratio, lo*ratio^2, ... up to hi (inclusive when hit).
std::vector<double> GeometricLadder(double lo, double hi, double ratio);

struct LadderOutcome {
  /// Highest rung whose probe passed; 0 when even the first rung fails.
  double sustained_rps = 0.0;
  std::vector<ProbeResult> probes;  // in the order they ran
};

/// Binary search for the highest passing rung of an ascending ladder,
/// assuming rungs pass up to some rate and fail beyond it. `probe` runs
/// the load at one rate and returns the result with `passed` set.
LadderOutcome SearchLadder(const std::vector<double>& rungs,
                           const std::function<ProbeResult(double)>& probe);

}  // namespace selbench

#endif  // SELBENCH_STATS_H_
