#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "podium/json/value.h"
#include "podium/json/writer.h"

namespace selbench {

namespace {

/// `span`'s duration minus the union of its children's intervals, each
/// clipped to the span.
double SelfOf(const Span& span, const std::vector<const Span*>& children) {
  std::vector<std::pair<double, double>> covered;
  for (const Span* child : children) {
    const double begin = std::max(child->start, span.start);
    const double end = std::min(child->end, span.end);
    if (end > begin) covered.emplace_back(begin, end);
  }
  std::sort(covered.begin(), covered.end());
  double union_seconds = 0.0;
  double reach = span.start;
  for (const auto& [begin, end] : covered) {
    const double from = std::max(begin, reach);
    if (end > from) union_seconds += end - from;
    reach = std::max(reach, end);
  }
  return (span.end - span.start) - union_seconds;
}

}  // namespace

double SelfSeconds(const std::vector<Span>& spans, std::size_t index) {
  std::vector<const Span*> children;
  for (const Span& span : spans) {
    if (span.parent == static_cast<int>(index)) children.push_back(&span);
  }
  return SelfOf(spans[index], children);
}

std::map<std::string, LayerTime> AggregateByName(
    const std::vector<Span>& spans) {
  std::vector<std::vector<const Span*>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].push_back(&span);
    }
  }
  std::map<std::string, LayerTime> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& layer = layers[spans[i].name];
    layer.self_seconds += SelfOf(spans[i], children[i]);
    layer.total_seconds += spans[i].end - spans[i].start;
    ++layer.count;
  }
  return layers;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::size_t Tracer::Begin(std::string_view name, std::uint64_t request) {
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? -1 : static_cast<int>(open_.back());
  span.request = request;
  span.start = Now();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::End(std::size_t index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("Tracer::End out of nesting order");
  }
  spans_[index].end = Now();
  open_.pop_back();
}

double Tracer::Scope::Seconds() const {
  const Span& span = tracer_.spans_[index_];
  return (span.end > 0.0 ? span.end : tracer_.Now()) - span.start;
}

bool Tracer::WriteJson(const std::string& path) const {
  podium::json::Array out;
  out.reserve(spans_.size());
  for (const Span& span : spans_) {
    podium::json::Object item;
    item.Set("name", podium::json::Value(span.name));
    item.Set("start", podium::json::Value(span.start));
    item.Set("end", podium::json::Value(span.end));
    item.Set("parent", podium::json::Value(span.parent));
    item.Set("request", podium::json::Value(
                            static_cast<double>(span.request)));
    out.emplace_back(std::move(item));
  }
  const std::string text =
      podium::json::Write(podium::json::Value(std::move(out))) + "\n";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool written =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  return std::fclose(file) == 0 && written;
}

}  // namespace selbench
