#ifndef PODIUM_TELEMETRY_EXPORT_H_
#define PODIUM_TELEMETRY_EXPORT_H_

#include <string>

#include "podium/json/value.h"
#include "podium/util/status.h"

namespace podium::telemetry {

/// Version of the exported JSON document. Bump on any incompatible change
/// (removed/renamed key, changed meaning); purely additive changes keep
/// the version. The schema is documented in DESIGN.md §"Telemetry &
/// profiling".
inline constexpr int kTelemetrySchemaVersion = 2;

/// Serializes the current telemetry state — counters, gauges, histograms,
/// the phase tree, and the greedy trace — as one JSON document:
///
/// {
///   "schema": {"name": "podium.telemetry", "version": 2},
///   "counters": {"greedy.rounds": 8, ...},
///   "gauges": {"groups.count": 23, ...},
///   "histograms": {"<name>": {"bounds": [...], "counts": [...],
///                             "count": N, "sum": S}},
///   "phases": {"name": "process", "seconds": S, "count": N,
///              "children": [...]},
///   "greedy_trace": [{"run": 0, "round": 0, "user": 3, "gain": 12.5,
///                     "gain_secondary": 0, "retired_links": 4,
///                     "retired_groups": 2}, ...],
///   "greedy_trace_dropped": 0  // events evicted past GreedyTrace::kCapacity
/// }
json::Value TelemetryToJson();

/// Writes TelemetryToJson() to `path`, pretty-printed.
Status WriteTelemetryJson(const std::string& path);

/// Human-readable timing summary: the phase tree with per-node totals and
/// call counts, followed by the non-zero counters. For the CLI's --timing.
std::string RenderTimingSummary();

/// Clears every telemetry store: metrics to zero, phase tree times to
/// zero, greedy trace emptied. For tests and repeated benchmark runs.
void ResetAllTelemetry();

}  // namespace podium::telemetry

#endif  // PODIUM_TELEMETRY_EXPORT_H_
