#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace selbench {

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  const double exact = pct / 100.0 * static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::size_t SamplesBeyond(std::size_t n, double pct) {
  const double exact = pct / 100.0 * static_cast<double>(n);
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return n > rank ? n - rank : 0;
}

std::size_t SamplesNeededFor(double pct) {
  std::size_t n = kMinSamplesBeyond;
  while (SamplesBeyond(n, pct) < kMinSamplesBeyond) ++n;
  return n;
}

double HighestSupportedPercentile(std::size_t n, double cap) {
  for (double pct : {99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0}) {
    if (pct <= cap && SamplesBeyond(n, pct) >= kMinSamplesBeyond) return pct;
  }
  return 50.0;
}

namespace {

/// Median over `windows` equal time windows of f(window samples).
template <typename F>
double MedianOverWindows(const std::vector<double>& times,
                         const std::vector<double>& values, double duration,
                         std::size_t windows, F f) {
  const double width = duration / static_cast<double>(windows);
  std::vector<std::vector<double>> per(windows);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto w = static_cast<std::size_t>(std::max(0.0, times[i]) / width);
    per[std::min(w, windows - 1)].push_back(values[i]);
  }
  std::vector<double> figures;
  for (std::vector<double>& window : per) {
    figures.push_back(f(std::move(window), width));
  }
  return Median(std::move(figures));
}

std::size_t WindowsFor(std::size_t n, double pct) {
  constexpr std::size_t kMaxWindows = 20;
  return std::clamp<std::size_t>(n / (2 * SamplesNeededFor(pct)), 1,
                                 kMaxWindows);
}

}  // namespace

WindowedFigures Windowed(const std::vector<double>& times,
                         const std::vector<double>& values, double duration,
                         double pct) {
  WindowedFigures out;
  if (values.empty() || !(duration > 0.0)) return out;
  const std::size_t center = WindowsFor(values.size(), 50.0);
  out.windows = WindowsFor(values.size(), pct);
  out.rate = MedianOverWindows(
      times, values, duration, center,
      [](std::vector<double> w, double width) {
        return static_cast<double>(w.size()) / width;
      });
  out.p50 = MedianOverWindows(
      times, values, duration, center,
      [](std::vector<double> w, double) { return Median(std::move(w)); });
  out.tail = MedianOverWindows(
      times, values, duration, out.windows,
      [pct](std::vector<double> w, double) {
        return Percentile(std::move(w), pct);
      });
  return out;
}

bool ProbePasses(const ProbeResult& probe, double limit_ms) {
  return probe.sent > 0 && probe.failed == 0 && probe.tail_ms <= limit_ms &&
         !probe.backlog_growing;
}

bool BacklogGrowing(const std::vector<double>& lateness_ms, double limit_ms) {
  if (lateness_ms.empty()) return false;
  const auto quarter =
      static_cast<long>(std::max<std::size_t>(1, lateness_ms.size() / 4));
  std::vector<double> first(lateness_ms.begin(), lateness_ms.begin() + quarter);
  std::vector<double> last(lateness_ms.end() - quarter, lateness_ms.end());
  return Median(std::move(last)) - Median(std::move(first)) >
         0.25 * limit_ms;
}

std::vector<double> GeometricLadder(double lo, double hi, double ratio) {
  std::vector<double> rungs;
  for (double rate = lo; rate <= hi * (1.0 + 1e-9); rate *= ratio) {
    rungs.push_back(rate);
  }
  return rungs;
}

LadderOutcome SearchLadder(const std::vector<double>& rungs,
                           const std::function<ProbeResult(double)>& probe) {
  LadderOutcome outcome;
  // Invariant: every rung below `lo` passed, every rung at or above `hi`
  // failed (as far as probed).
  std::size_t lo = 0;
  std::size_t hi = rungs.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ProbeResult result = probe(rungs[mid]);
    outcome.probes.push_back(result);
    if (result.passed) {
      outcome.sustained_rps = rungs[mid];
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return outcome;
}

}  // namespace selbench
