#include "podium/telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "podium/core/greedy.h"
#include "podium/core/instance.h"
#include "podium/json/parser.h"
#include "podium/json/writer.h"
#include "podium/telemetry/export.h"
#include "podium/telemetry/phase.h"
#include "podium/telemetry/trace.h"
#include "tests/testing/table2.h"

namespace podium::telemetry {
namespace {

/// Telemetry state is process-global; every test starts enabled and clean
/// and leaves the library default (disabled, empty) behind.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    ResetAllTelemetry();
  }
  void TearDown() override {
    SetEnabled(false);
    ResetAllTelemetry();
  }
};

TEST_F(TelemetryTest, CounterCountsAndResets) {
  Counter& counter = MetricsRegistry::Global().counter("test.counter");
  counter.Add();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST_F(TelemetryTest, ConcurrentCounterIncrementsLoseNoUpdates) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  Counter& counter = MetricsRegistry::Global().counter("test.concurrent");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.Add();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST_F(TelemetryTest, RegistryReturnsSameMetricPerName) {
  auto& registry = MetricsRegistry::Global();
  Counter& a = registry.counter("test.same");
  Counter& b = registry.counter("test.same");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.Value(), 3u);
}

TEST_F(TelemetryTest, GaugeKeepsLastWrite) {
  Gauge& gauge = MetricsRegistry::Global().gauge("test.gauge");
  gauge.Set(1.5);
  gauge.Set(-2.25);
  EXPECT_DOUBLE_EQ(gauge.Value(), -2.25);
}

TEST_F(TelemetryTest, HistogramBucketsByUpperBound) {
  Histogram& histogram =
      MetricsRegistry::Global().histogram("test.histogram", {1.0, 10.0});
  histogram.Observe(0.5);   // <= 1
  histogram.Observe(5.0);   // <= 10
  histogram.Observe(50.0);  // overflow
  histogram.Observe(1.0);   // boundary goes to its own bucket
  const std::vector<std::uint64_t> counts = histogram.BucketCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(histogram.Count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 56.5);
}

TEST_F(TelemetryTest, SnapshotIsSortedByName) {
  auto& registry = MetricsRegistry::Global();
  registry.counter("test.zz").Add(1);
  registry.counter("test.aa").Add(2);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_GE(snapshot.counters.size(), 2u);
  for (std::size_t i = 1; i < snapshot.counters.size(); ++i) {
    EXPECT_LT(snapshot.counters[i - 1].first, snapshot.counters[i].first);
  }
}

TEST_F(TelemetryTest, NestedPhaseSpansRollUpUnderParent) {
  {
    Span outer("test.outer");
    for (int i = 0; i < 2; ++i) {
      Span inner("test.inner");
    }
  }
  {
    Span outer("test.outer");  // same position: accumulates
  }
  const PhaseStats tree = PhaseTreeSnapshot();
  EXPECT_EQ(tree.name, "process");
  const PhaseStats* outer = FindPhase(tree, "test.outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 2u);
  ASSERT_EQ(outer->children.size(), 1u);
  const PhaseStats& inner = outer->children[0];
  EXPECT_EQ(inner.name, "test.inner");
  EXPECT_EQ(inner.count, 2u);
  // Children's time is a subset of the parent's.
  EXPECT_LE(inner.seconds, outer->seconds);
  EXPECT_DOUBLE_EQ(SumPhaseSeconds(tree, "test.outer"), outer->seconds);
}

TEST_F(TelemetryTest, ResetPrunesPhaseTreeSnapshot) {
  { Span span("test.reset"); }
  ASSERT_NE(FindPhase(PhaseTreeSnapshot(), "test.reset"), nullptr);
  ResetPhaseTree();
  EXPECT_EQ(FindPhase(PhaseTreeSnapshot(), "test.reset"), nullptr);
}

TEST_F(TelemetryTest, DisabledSpanRecordsNothing) {
  SetEnabled(false);
  { Span span("test.disabled"); }
  SetEnabled(true);
  EXPECT_EQ(FindPhase(PhaseTreeSnapshot(), "test.disabled"), nullptr);
}

/// Shared repository: instances keep a pointer into it, so it must outlive
/// every instance the tests build.
const ProfileRepository& Table2Repo() {
  static const ProfileRepository* repo =  // podium-lint: allow(raw-new)
      new ProfileRepository(podium::testing::MakeTable2Repository());
  return *repo;
}

DiversificationInstance MakeInstance(std::size_t budget) {
  Result<DiversificationInstance> instance =
      DiversificationInstance::FromGroups(
          Table2Repo(), podium::testing::MakeTable2Groups(Table2Repo()),
          WeightKind::kLbs, CoverageKind::kSingle, budget);
  if (!instance.ok()) std::abort();
  return std::move(instance).value();
}

std::vector<GreedyRoundEvent> RunTracedGreedy(std::size_t budget,
                                              Selection* selection_out) {
  GreedyTrace::Clear();
  const DiversificationInstance instance = MakeInstance(budget);
  Result<Selection> selection = GreedySelector().Select(instance, budget);
  if (!selection.ok()) std::abort();
  *selection_out = std::move(selection).value();
  return GreedyTrace::Snapshot();
}

TEST_F(TelemetryTest, GreedyTraceReconstructsSelectionOrder) {
  constexpr std::size_t kBudget = 3;
  Selection selection;
  const std::vector<GreedyRoundEvent> events =
      RunTracedGreedy(kBudget, &selection);
  ASSERT_EQ(events.size(), selection.users.size());
  double gain_sum = 0.0;
  for (std::size_t round = 0; round < events.size(); ++round) {
    EXPECT_EQ(events[round].run, events[0].run);
    EXPECT_EQ(events[round].round, round);
    EXPECT_EQ(events[round].user, selection.users[round]);
    gain_sum += events[round].gain;
    if (round > 0) {
      // Submodularity: marginal gains never increase.
      EXPECT_LE(events[round].gain, events[round - 1].gain);
    }
  }
  // The selection score is exactly the sum of marginal gains.
  EXPECT_NEAR(gain_sum, selection.score, 1e-9);
}

TEST_F(TelemetryTest, TraceRunIdsDistinguishRuns) {
  Selection selection;
  GreedyTrace::Clear();
  GreedyOptions options;
  const DiversificationInstance instance = MakeInstance(2);
  ASSERT_TRUE(GreedySelector(options).Select(instance, 2).ok());
  ASSERT_TRUE(GreedySelector(options).Select(instance, 2).ok());
  const std::vector<GreedyRoundEvent> events = GreedyTrace::Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].run, events[1].run);
  EXPECT_EQ(events[2].run, events[3].run);
  EXPECT_NE(events[0].run, events[2].run);
}

TEST_F(TelemetryTest, GreedyTraceKeepsTheNewestCapacityEvents) {
  // More than a capacity's worth, through both Record overloads: one
  // batch larger than the ring, then single events.
  constexpr std::size_t kSingles = 100;
  constexpr std::size_t kTotal = GreedyTrace::kCapacity + 1000;
  std::vector<GreedyRoundEvent> batch(kTotal - kSingles);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].round = static_cast<std::uint32_t>(i);
  }
  GreedyTrace::Record(batch);
  for (std::size_t i = batch.size(); i < kTotal; ++i) {
    GreedyRoundEvent event;
    event.round = static_cast<std::uint32_t>(i);
    GreedyTrace::Record(event);
  }

  const std::vector<GreedyRoundEvent> events = GreedyTrace::Snapshot();
  ASSERT_EQ(events.size(), GreedyTrace::kCapacity);
  const std::size_t dropped = kTotal - GreedyTrace::kCapacity;
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(events[i].round, dropped + i) << "at " << i;
  }
  auto& registry = MetricsRegistry::Global();
  EXPECT_EQ(registry.counter("telemetry.greedy_trace.dropped").Value(),
            dropped);
  EXPECT_EQ(registry.gauge("telemetry.greedy_trace.retained").Value(),
            static_cast<double>(GreedyTrace::kCapacity));
  EXPECT_EQ(TelemetryToJson().AsObject().Find("greedy_trace_dropped")
                ->AsNumber(),
            static_cast<double>(dropped));

  GreedyTrace::Clear();
  EXPECT_TRUE(GreedyTrace::Snapshot().empty());
  EXPECT_EQ(registry.gauge("telemetry.greedy_trace.retained").Value(), 0.0);
}

TEST_F(TelemetryTest, DisabledGreedyRecordsNoTrace) {
  SetEnabled(false);
  const DiversificationInstance instance = MakeInstance(2);
  ASSERT_TRUE(GreedySelector().Select(instance, 2).ok());
  SetEnabled(true);
  EXPECT_TRUE(GreedyTrace::Snapshot().empty());
}

TEST_F(TelemetryTest, JsonExportMatchesDocumentedSchema) {
  constexpr std::size_t kBudget = 2;
  Selection selection;
  const std::vector<GreedyRoundEvent> events =
      RunTracedGreedy(kBudget, &selection);
  ASSERT_EQ(events.size(), kBudget);

  const json::Value root = TelemetryToJson();
  ASSERT_TRUE(root.is_object());
  const json::Object& object = root.AsObject();

  const json::Value* schema = object.Find("schema");
  ASSERT_NE(schema, nullptr);
  ASSERT_TRUE(schema->is_object());
  EXPECT_EQ(schema->AsObject().Find("name")->AsString(), "podium.telemetry");
  EXPECT_EQ(schema->AsObject().Find("version")->AsNumber(),
            kTelemetrySchemaVersion);

  const json::Value* counters = object.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());
  const json::Value* rounds = counters->AsObject().Find("greedy.rounds");
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(rounds->AsNumber(), static_cast<double>(kBudget));

  ASSERT_NE(object.Find("gauges"), nullptr);
  EXPECT_TRUE(object.Find("gauges")->is_object());
  ASSERT_NE(object.Find("histograms"), nullptr);
  EXPECT_TRUE(object.Find("histograms")->is_object());

  const json::Value* phases = object.Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_TRUE(phases->is_object());
  EXPECT_EQ(phases->AsObject().Find("name")->AsString(), "process");
  EXPECT_GE(phases->AsObject().Find("seconds")->AsNumber(), 0.0);
  EXPECT_TRUE(phases->AsObject().Find("children")->is_array());

  const json::Value* trace = object.Find("greedy_trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_TRUE(trace->is_array());
  ASSERT_EQ(trace->AsArray().size(), kBudget);
  const json::Object& round0 = trace->AsArray()[0].AsObject();
  for (const char* key :
       {"run", "round", "user", "gain", "gain_secondary", "retired_links",
        "retired_groups"}) {
    EXPECT_TRUE(round0.Contains(key)) << "missing trace key " << key;
  }
  EXPECT_EQ(round0.Find("user")->AsNumber(),
            static_cast<double>(selection.users[0]));
  const json::Value* dropped = object.Find("greedy_trace_dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->AsNumber(), 0.0);
}

TEST_F(TelemetryTest, JsonExportEscapesHostileMetricNames) {
  // Metric names are data to the exporter: quotes, control characters and
  // non-ASCII bytes must survive a serialize -> parse round-trip intact.
  const std::string hostile = "test.\"quoted\"\nnew\tline caf\xC3\xA9 \x01";
  auto& registry = MetricsRegistry::Global();
  registry.counter(hostile).Add(7);
  registry.gauge(hostile).Set(1.5);
  registry.histogram(hostile, {1.0}).Observe(0.5);

  const std::string text = json::Write(TelemetryToJson());
  Result<json::Value> parsed = json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Object& object = parsed.value().AsObject();

  const json::Value* counter = object.Find("counters")->AsObject().Find(hostile);
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->AsNumber(), 7.0);
  const json::Value* gauge = object.Find("gauges")->AsObject().Find(hostile);
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->AsNumber(), 1.5);
  const json::Value* histogram =
      object.Find("histograms")->AsObject().Find(hostile);
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->AsObject().Find("count")->AsNumber(), 1.0);
}

TEST_F(TelemetryTest, WriteTelemetryJsonRoundTrips) {
  Selection selection;
  RunTracedGreedy(2, &selection);
  const std::string path =
      ::testing::TempDir() + "/podium_telemetry_test.json";
  ASSERT_TRUE(WriteTelemetryJson(path).ok());
  Result<json::Value> parsed = json::ParseFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed.value().AsObject().Find("schema"),
            *TelemetryToJson().AsObject().Find("schema"));
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, RenderTimingSummaryListsPhasesAndCounters) {
  Selection selection;
  RunTracedGreedy(2, &selection);
  const std::string summary = RenderTimingSummary();
  EXPECT_NE(summary.find("greedy.select"), std::string::npos);
  EXPECT_NE(summary.find("greedy.rounds"), std::string::npos);
}

TEST_F(TelemetryTest, ResetAllTelemetryClearsEveryStore) {
  Selection selection;
  RunTracedGreedy(2, &selection);
  ResetAllTelemetry();
  EXPECT_TRUE(GreedyTrace::Snapshot().empty());
  EXPECT_EQ(MetricsRegistry::Global()
                .counter("greedy.rounds")
                .Value(),
            0u);
  EXPECT_TRUE(PhaseTreeSnapshot().children.empty());
}

}  // namespace
}  // namespace podium::telemetry
