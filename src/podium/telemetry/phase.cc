#include "podium/telemetry/phase.h"

#include <atomic>
#include <memory>
#include <utility>

#include "podium/telemetry/telemetry.h"
#include "podium/util/mutex.h"
#include "podium/util/thread_annotations.h"
#include "podium/util/thread_pool.h"

namespace podium::telemetry {

namespace internal {

/// Guards the tree structure (every PhaseNode::children vector); the
/// accumulators inside each node are atomics and stay lock-free.
util::Mutex g_tree_mutex{"telemetry.phase_tree"};

/// One position in the phase tree. Accumulation is atomic so concurrent
/// spans at the same position (same phase name on several threads) add up
/// losslessly; child creation is guarded by a global mutex (rare — once
/// per distinct name/position).
struct PhaseNode {
  std::string name;
  PhaseNode* parent = nullptr;
  std::atomic<std::uint64_t> nanos{0};
  std::atomic<std::uint64_t> count{0};
  std::vector<std::unique_ptr<PhaseNode>> children
      PODIUM_GUARDED_BY(g_tree_mutex);
};

namespace {

PhaseNode& Root() {
  // Intentionally leaked: spans may still be open during static
  // destruction and their nodes must outlive them.
  static PhaseNode* root = [] {
    auto* node = new PhaseNode();  // podium-lint: allow(raw-new)
    node->name = "process";
    return node;
  }();
  return *root;
}

/// The innermost active span's node on this thread; spans opened next
/// become its children.
thread_local PhaseNode* t_current = nullptr;

thread_local TraceContext* t_current_trace = nullptr;

PhaseNode* ChildNamed(PhaseNode& parent, std::string_view name)
    PODIUM_EXCLUDES(g_tree_mutex) {
  util::MutexLock lock(g_tree_mutex);
  for (const auto& child : parent.children) {
    if (child->name == name) return child.get();
  }
  auto node = std::make_unique<PhaseNode>();  // freed only via the tree
  node->name = std::string(name);
  node->parent = &parent;
  parent.children.push_back(std::move(node));
  return parent.children.back().get();
}

void SnapshotInto(const PhaseNode& node, PhaseStats& out)
    PODIUM_REQUIRES(g_tree_mutex) {
  out.name = node.name;
  out.seconds =
      static_cast<double>(node.nanos.load(std::memory_order_relaxed)) * 1e-9;
  out.count = node.count.load(std::memory_order_relaxed);
  for (const auto& child : node.children) {
    PhaseStats stats;
    SnapshotInto(*child, stats);
    // Prune positions that never completed a span (created but reset, or
    // only holding still-active spans) unless a descendant has data.
    if (stats.count == 0 && stats.children.empty()) continue;
    out.children.push_back(std::move(stats));
  }
}

void ResetNode(PhaseNode& node) PODIUM_REQUIRES(g_tree_mutex) {
  node.nanos.store(0, std::memory_order_relaxed);
  node.count.store(0, std::memory_order_relaxed);
  for (const auto& child : node.children) ResetNode(*child);
}

}  // namespace
}  // namespace internal

TraceContext::TraceContext() : start_(std::chrono::steady_clock::now()) {}

int TraceContext::BeginSpan(std::string_view name) {
  const int index = AddCompletedSpan(name, ElapsedSeconds(), 0.0);
  open_stack_.push_back(index);
  return index;
}

void TraceContext::EndSpan(int index) {
  if (index < 0 || index >= static_cast<int>(spans_.size())) return;
  TraceSpan& span = spans_[static_cast<std::size_t>(index)];
  span.duration_seconds = ElapsedSeconds() - span.start_seconds;
  // Pop through any unclosed children so a missed EndSpan cannot wedge
  // the open stack for the rest of the request.
  while (!open_stack_.empty() && open_stack_.back() >= index) {
    open_stack_.pop_back();
  }
}

int TraceContext::AddCompletedSpan(std::string_view name,
                                   double start_seconds,
                                   double duration_seconds) {
  TraceSpan span;
  span.name = std::string(name);
  span.parent = open_stack_.empty() ? -1 : open_stack_.back();
  span.start_seconds = start_seconds;
  span.duration_seconds = duration_seconds;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  return index;
}

double TraceContext::ElapsedSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

TraceContext* CurrentTrace() { return internal::t_current_trace; }

TraceScope::TraceScope(TraceContext* context)
    : previous_(internal::t_current_trace) {
  internal::t_current_trace = context;
}

TraceScope::~TraceScope() { internal::t_current_trace = previous_; }

Span::Span(std::string_view name) {
  if (internal::t_current_trace != nullptr && !util::InParallelForBody()) {
    trace_ = internal::t_current_trace;
    index_ = trace_->BeginSpan(name);
  }
  if (!Enabled()) return;
  internal::PhaseNode* parent =
      internal::t_current != nullptr ? internal::t_current : &internal::Root();
  node_ = internal::ChildNamed(*parent, name);
  internal::t_current = node_;
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (node_ != nullptr) {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    node_->nanos.fetch_add(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()),
        std::memory_order_relaxed);
    node_->count.fetch_add(1, std::memory_order_relaxed);
    internal::t_current = node_->parent == &internal::Root() ? nullptr
                                                             : node_->parent;
  }
  if (trace_ != nullptr) trace_->EndSpan(index_);
}

PhaseStats PhaseTreeSnapshot() {
  util::MutexLock lock(internal::g_tree_mutex);
  PhaseStats root;
  internal::SnapshotInto(internal::Root(), root);
  return root;
}

void ResetPhaseTree() {
  util::MutexLock lock(internal::g_tree_mutex);
  internal::ResetNode(internal::Root());
}

double SumPhaseSeconds(const PhaseStats& tree, std::string_view name) {
  double total = tree.name == name ? tree.seconds : 0.0;
  for (const PhaseStats& child : tree.children) {
    total += SumPhaseSeconds(child, name);
  }
  return total;
}

const PhaseStats* FindPhase(const PhaseStats& tree, std::string_view name) {
  if (tree.name == name) return &tree;
  for (const PhaseStats& child : tree.children) {
    if (const PhaseStats* found = FindPhase(child, name)) return found;
  }
  return nullptr;
}

}  // namespace podium::telemetry
