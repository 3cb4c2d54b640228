#include "podium/telemetry/phase.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "podium/telemetry/export.h"
#include "podium/telemetry/telemetry.h"
#include "podium/util/thread_pool.h"

namespace podium::telemetry {
namespace {

// --- TraceContext ----------------------------------------------------------

TEST(TraceContextTest, SpansNestViaParentIndices) {
  TraceContext trace;
  const int select = trace.BeginSpan("select");
  const int lookup = trace.BeginSpan("cache.lookup");
  trace.EndSpan(lookup);
  const int run = trace.BeginSpan("run");
  trace.EndSpan(run);
  trace.EndSpan(select);

  ASSERT_EQ(trace.spans().size(), 3u);
  EXPECT_EQ(trace.spans()[0].name, "select");
  EXPECT_EQ(trace.spans()[0].parent, -1);
  EXPECT_EQ(trace.spans()[1].name, "cache.lookup");
  EXPECT_EQ(trace.spans()[1].parent, select);
  EXPECT_EQ(trace.spans()[2].name, "run");
  EXPECT_EQ(trace.spans()[2].parent, select);
  for (const TraceSpan& span : trace.spans()) {
    EXPECT_GE(span.start_seconds, 0.0);
    EXPECT_GE(span.duration_seconds, 0.0);
  }
}

TEST(TraceContextTest, EndingAParentPopsUnclosedChildren) {
  TraceContext trace;
  const int outer = trace.BeginSpan("outer");
  trace.BeginSpan("leaked");  // never explicitly ended
  trace.EndSpan(outer);
  // The open stack recovered: the next root span has no parent.
  const int next = trace.BeginSpan("next");
  trace.EndSpan(next);
  EXPECT_EQ(trace.spans()[static_cast<std::size_t>(next)].parent, -1);
}

TEST(TraceContextTest, EndSpanIgnoresBogusIndices) {
  TraceContext trace;
  trace.EndSpan(-1);
  trace.EndSpan(42);
  EXPECT_TRUE(trace.spans().empty());
}

// --- TraceScope / Span -----------------------------------------------------

TEST(TraceScopeTest, InstallsAndRestoresNested) {
  EXPECT_EQ(CurrentTrace(), nullptr);
  TraceContext outer;
  {
    TraceScope outer_scope(&outer);
    EXPECT_EQ(CurrentTrace(), &outer);
    TraceContext inner;
    {
      TraceScope inner_scope(&inner);
      EXPECT_EQ(CurrentTrace(), &inner);
    }
    EXPECT_EQ(CurrentTrace(), &outer);
  }
  EXPECT_EQ(CurrentTrace(), nullptr);
}

TEST(SpanTest, RecordsAgainstTheCurrentTrace) {
  TraceContext trace;
  {
    TraceScope scope(&trace);
    Span select("select");
    Span nested("admission");
  }
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.spans()[0].name, "select");
  EXPECT_EQ(trace.spans()[1].parent, 0);
  // Both RAII spans closed in reverse order.
  EXPECT_GE(trace.spans()[0].duration_seconds,
            trace.spans()[1].duration_seconds);
}

TEST(SpanTest, IsANoOpWithoutACurrentTrace) {
  ASSERT_EQ(CurrentTrace(), nullptr);
  Span span("orphan");  // must not crash or record anywhere
}

/// Completions of `name` summed over every position in the phase tree.
std::uint64_t PhaseCount(const PhaseStats& node, const std::string& name) {
  std::uint64_t count = node.name == name ? node.count : 0;
  for (const PhaseStats& child : node.children) {
    count += PhaseCount(child, name);
  }
  return count;
}

TEST(SpanTest, ParallelForBodySpansReachOnlyThePhaseTree) {
  SetEnabled(true);
  ResetAllTelemetry();
  constexpr std::size_t kChunks = 8;
  // Four threads dispatch the loop (the caller runs chunks too); one thread
  // runs it inline. Neither lets a body span into the trace.
  for (const std::size_t threads : {std::size_t{4}, std::size_t{1}}) {
    util::ThreadPool::SetGlobalThreadCount(threads);
    TraceContext trace;
    {
      TraceScope scope(&trace);
      Span outer("test.outer");
      util::ParallelFor("test.fanout", kChunks,
                        [](std::size_t, std::size_t, std::size_t) {
                          Span chunk("test.chunk");
                        });
    }
    std::vector<std::string> names;
    for (const TraceSpan& span : trace.spans()) names.push_back(span.name);
    const std::vector<std::string> expected =
        threads > 1
            ? std::vector<std::string>{"test.outer", "parallel.test.fanout"}
            : std::vector<std::string>{"test.outer"};
    EXPECT_EQ(names, expected) << threads << " threads";
  }
  util::ThreadPool::SetGlobalThreadCount(0);

  const PhaseStats tree = PhaseTreeSnapshot();
  EXPECT_EQ(PhaseCount(tree, "test.outer"), 2u);
  EXPECT_EQ(PhaseCount(tree, "test.chunk"), 2 * kChunks);
  SetEnabled(false);
  ResetAllTelemetry();
}

}  // namespace
}  // namespace podium::telemetry
