#include "podium/telemetry/export.h"

#include <utility>

#include "podium/json/writer.h"
#include "podium/telemetry/phase.h"
#include "podium/telemetry/telemetry.h"
#include "podium/telemetry/trace.h"
#include "podium/util/string_util.h"

namespace podium::telemetry {

namespace {

json::Value PhaseToJson(const PhaseStats& node) {
  json::Object object;
  object.Set("name", json::Value(node.name));
  object.Set("seconds", json::Value(node.seconds));
  object.Set("count", json::Value(node.count));
  json::Array children;
  children.reserve(node.children.size());
  for (const PhaseStats& child : node.children) {
    children.push_back(PhaseToJson(child));
  }
  object.Set("children", json::Value(std::move(children)));
  return json::Value(std::move(object));
}

json::Value HistogramToJson(const HistogramSnapshot& histogram) {
  json::Object object;
  json::Array bounds;
  for (double bound : histogram.bounds) bounds.emplace_back(bound);
  object.Set("bounds", json::Value(std::move(bounds)));
  json::Array counts;
  for (std::uint64_t count : histogram.counts) {
    counts.emplace_back(static_cast<double>(count));
  }
  object.Set("counts", json::Value(std::move(counts)));
  object.Set("count", json::Value(static_cast<double>(histogram.count)));
  object.Set("sum", json::Value(histogram.sum));
  return json::Value(std::move(object));
}

json::Value TraceEventToJson(const GreedyRoundEvent& event) {
  json::Object object;
  object.Set("run", json::Value(static_cast<double>(event.run)));
  object.Set("round", json::Value(static_cast<double>(event.round)));
  object.Set("user", json::Value(static_cast<double>(event.user)));
  object.Set("gain", json::Value(event.gain));
  object.Set("gain_secondary", json::Value(event.gain_secondary));
  object.Set("retired_links",
             json::Value(static_cast<double>(event.retired_links)));
  object.Set("retired_groups",
             json::Value(static_cast<double>(event.retired_groups)));
  return json::Value(std::move(object));
}

void RenderPhase(const PhaseStats& node, int depth, double parent_seconds,
                 std::string& out) {
  out += util::StringPrintf("%*s%-*s %10.6fs  x%-6llu", depth * 2, "",
                            36 - depth * 2, node.name.c_str(), node.seconds,
                            static_cast<unsigned long long>(node.count));
  if (parent_seconds > 0.0) {
    out += util::StringPrintf("  %5.1f%%", 100.0 * node.seconds /
                                               parent_seconds);
  }
  out += "\n";
  for (const PhaseStats& child : node.children) {
    RenderPhase(child, depth + 1, node.seconds, out);
  }
}

}  // namespace

json::Value TelemetryToJson() {
  const MetricsSnapshot metrics = MetricsRegistry::Global().Snapshot();

  json::Object root;
  json::Object schema;
  schema.Set("name", json::Value("podium.telemetry"));
  schema.Set("version", json::Value(kTelemetrySchemaVersion));
  root.Set("schema", json::Value(std::move(schema)));

  json::Object counters;
  for (const auto& [name, value] : metrics.counters) {
    counters.Set(name, json::Value(static_cast<double>(value)));
  }
  root.Set("counters", json::Value(std::move(counters)));

  json::Object gauges;
  for (const auto& [name, value] : metrics.gauges) {
    gauges.Set(name, json::Value(value));
  }
  root.Set("gauges", json::Value(std::move(gauges)));

  json::Object histograms;
  for (const auto& [name, histogram] : metrics.histograms) {
    histograms.Set(name, HistogramToJson(histogram));
  }
  root.Set("histograms", json::Value(std::move(histograms)));

  root.Set("phases", PhaseToJson(PhaseTreeSnapshot()));

  json::Array trace;
  for (const GreedyRoundEvent& event : GreedyTrace::Snapshot()) {
    trace.push_back(TraceEventToJson(event));
  }
  root.Set("greedy_trace", json::Value(std::move(trace)));
  root.Set("greedy_trace_dropped",
           json::Value(static_cast<double>(
               MetricsRegistry::Global()
                   .counter("telemetry.greedy_trace.dropped")
                   .Value())));
  return json::Value(std::move(root));
}

Status WriteTelemetryJson(const std::string& path) {
  json::WriteOptions options;
  options.indent = 2;
  return json::WriteFile(TelemetryToJson(), path, options);
}

std::string RenderTimingSummary() {
  std::string out = "phase tree (wall time, completions, % of parent):\n";
  const PhaseStats root = PhaseTreeSnapshot();
  for (const PhaseStats& child : root.children) {
    RenderPhase(child, 0, 0.0, out);
  }
  if (root.children.empty()) out += "  (no phases recorded)\n";

  const MetricsSnapshot metrics = MetricsRegistry::Global().Snapshot();
  bool any_counter = false;
  for (const auto& [name, value] : metrics.counters) {
    if (value == 0) continue;
    if (!any_counter) {
      out += "\ncounters:\n";
      any_counter = true;
    }
    out += util::StringPrintf("  %-36s %llu\n", name.c_str(),
                              static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : metrics.gauges) {
    out += util::StringPrintf("  %-36s %g  (gauge)\n", name.c_str(), value);
  }
  return out;
}

void ResetAllTelemetry() {
  MetricsRegistry::Global().Reset();
  ResetPhaseTree();
  GreedyTrace::Clear();
}

}  // namespace podium::telemetry
