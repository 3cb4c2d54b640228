// Unit tests for the selection benchmark's own machinery: seeded inputs,
// the percentile rule, the ladder search, span self time, the cost model,
// and the output check.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "check.h"
#include "loadgen.h"
#include "model.h"
#include "podium/datagen/generator.h"
#include "podium/json/parser.h"
#include "podium/serve/request.h"
#include "podium/serve/service.h"
#include "podium/serve/snapshot.h"
#include "sampler.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace selbench {
namespace {

TEST(SamplerTest, SameSeedSameDraws) {
  Rng a(42), b(42), c(43);
  const ZipfSampler zipf(512, 1.0);
  std::vector<std::size_t> da, db, dc;
  for (int i = 0; i < 1000; ++i) {
    da.push_back(zipf.Draw(a));
    db.push_back(zipf.Draw(b));
    dc.push_back(zipf.Draw(c));
  }
  EXPECT_EQ(da, db);
  EXPECT_NE(da, dc);
}

TEST(SamplerTest, ZipfFollowsItsDistribution) {
  const ZipfSampler zipf(512, 1.0);
  double harmonic = 0.0;
  for (int r = 1; r <= 512; ++r) harmonic += 1.0 / r;
  EXPECT_NEAR(zipf.Probability(0), 1.0 / harmonic, 1e-12);
  EXPECT_NEAR(zipf.Probability(9), 0.1 / harmonic, 1e-12);
  Rng rng(7);
  std::size_t top = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) top += zipf.Draw(rng) == 0 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(top) / kDraws, zipf.Probability(0), 0.005);
}

TEST(SamplerTest, StratifiedValuesCoverEveryBlock) {
  Rng rng(3);
  const std::vector<std::size_t> values = StratifiedValues(rng, 2, 64, 63 * 3);
  for (std::size_t block = 0; block < 3; ++block) {
    std::vector<std::size_t> seen(values.begin() + block * 63,
                                  values.begin() + (block + 1) * 63);
    std::sort(seen.begin(), seen.end());
    for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 2 + i);
  }
}

// The request sequence depends only on (workload, seed, snapshot).
class PlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    podium::datagen::DatasetConfig config =
        podium::datagen::DatasetConfig::TripAdvisorLike();
    config.num_users = 400;
    config.num_restaurants = 2000;
    config.leaf_categories = 60;
    config.holdout_destinations = 0;
    podium::datagen::Dataset data =
        podium::datagen::GenerateDataset(config).value();
    podium::serve::SnapshotOptions options;
    snapshot_ = new std::shared_ptr<const podium::serve::Snapshot>(
        podium::serve::Snapshot::Build(std::move(data.repository), options, 1)
            .value());
  }
  static void TearDownTestSuite() {
    delete snapshot_;
    snapshot_ = nullptr;
  }
  static const podium::serve::Snapshot& snapshot() { return **snapshot_; }

  static std::shared_ptr<const podium::serve::Snapshot>* snapshot_;
};

std::shared_ptr<const podium::serve::Snapshot>* PlanTest::snapshot_ = nullptr;

std::vector<std::string> Bodies(const RequestPlan& plan, std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n && i < plan.order.size(); ++i) {
    out.push_back(plan.keys[plan.order[i]].body);
  }
  return out;
}

TEST_F(PlanTest, SameSeedSameRequestSequence) {
  for (const char* name : {"miss", "hot", "custom", "shard"}) {
    const WorkloadSpec& spec = *FindWorkload(name);
    const RequestPlan a = PlanRequests(spec, 11, snapshot());
    const RequestPlan b = PlanRequests(spec, 11, snapshot());
    const RequestPlan c = PlanRequests(spec, 12, snapshot());
    EXPECT_EQ(Bodies(a, 2000), Bodies(b, 2000)) << name;
    EXPECT_NE(Bodies(a, 2000), Bodies(c, 2000)) << name;
  }
}

TEST_F(PlanTest, MissSendsOneHeapRequestInSixteen) {
  const RequestPlan plan = PlanRequests(*FindWorkload("miss"), 5, snapshot());
  std::size_t heap = 0;
  for (std::uint32_t key : plan.order) heap += plan.keys[key].heap ? 1 : 0;
  EXPECT_EQ(heap * 16, plan.order.size());
  // Each key belongs to exactly one connection.
  for (const PlannedRequest& key : plan.keys) {
    EXPECT_EQ(key.client, (key.budget - 2) % 4);
  }
}

TEST_F(PlanTest, HotHas512DistinctKeysOneInEightExplained) {
  const RequestPlan plan = PlanRequests(*FindWorkload("hot"), 5, snapshot());
  ASSERT_EQ(plan.keys.size(), 512u);
  std::set<std::string> bodies;
  std::size_t explain = 0;
  for (const PlannedRequest& key : plan.keys) {
    bodies.insert(key.body);
    explain += key.explain ? 1 : 0;
    EXPECT_GE(key.budget, 2u);
    EXPECT_LE(key.budget, 16u);
  }
  EXPECT_EQ(bodies.size(), 512u);
  EXPECT_EQ(explain, 64u);
}

TEST_F(PlanTest, CustomKeysAreDistinct) {
  const RequestPlan plan = PlanRequests(*FindWorkload("custom"), 5, snapshot());
  std::set<std::string> bodies;
  for (const PlannedRequest& key : plan.keys) bodies.insert(key.body);
  EXPECT_EQ(bodies.size(), plan.keys.size());
  EXPECT_TRUE(plan.distinct);
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  EXPECT_EQ(Percentile(values, 50), 50);
  EXPECT_EQ(Percentile(values, 99), 99);
  EXPECT_EQ(Percentile(values, 100), 100);
  EXPECT_EQ(Median({3, 1, 2}), 2);
}

TEST(PercentileTest, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  EXPECT_EQ(SamplesNeededFor(99.0), 1000u);
  EXPECT_EQ(SamplesNeededFor(95.0), 200u);
  EXPECT_EQ(SamplesNeededFor(90.0), 100u);
  EXPECT_EQ(HighestSupportedPercentile(1000, 99.0), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(999, 99.0), 98.0);
  EXPECT_EQ(HighestSupportedPercentile(5000, 95.0), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(30, 99.0), 50.0);
}

TEST(LadderTest, FindsHighestRateUnderTheLimitOnASyntheticCurve) {
  // Latency grows as 1 / (capacity - rate): the classic queueing knee.
  constexpr double kCapacity = 1000.0;
  constexpr double kLimit = 10.0;
  const std::vector<double> rungs = GeometricLadder(50.0, 3200.0, 1.1);
  std::vector<double> probed;
  const LadderOutcome outcome = SearchLadder(rungs, [&](double rate) {
    probed.push_back(rate);
    ProbeResult probe;
    probe.rate = rate;
    probe.sent = 100;
    probe.tail_ms = rate < kCapacity ? 1000.0 / (kCapacity - rate) : 1e9;
    probe.backlog_growing = rate >= kCapacity;
    probe.passed = ProbePasses(probe, kLimit);
    return probe;
  });
  // The limit is met below rate 900; the answer is the highest rung < 900.
  double expected = 0.0;
  for (double r : rungs) {
    if (1000.0 / (kCapacity - r) <= kLimit && r < kCapacity) expected = r;
  }
  EXPECT_EQ(outcome.sustained_rps, expected);
  EXPECT_LE(probed.size(),
            static_cast<std::size_t>(std::ceil(std::log2(rungs.size() + 1))));
}

TEST(LadderTest, FailuresAndBacklogFailAProbe) {
  ProbeResult probe;
  probe.sent = 10;
  probe.tail_ms = 1.0;
  EXPECT_TRUE(ProbePasses(probe, 5.0));
  probe.failed = 1;
  EXPECT_FALSE(ProbePasses(probe, 5.0));
  probe.failed = 0;
  probe.backlog_growing = true;
  EXPECT_FALSE(ProbePasses(probe, 5.0));
  EXPECT_TRUE(BacklogGrowing({0, 0, 0, 0, 10, 20, 30, 40}, 100.0));
  EXPECT_FALSE(BacklogGrowing({0, 1, 0, 1, 0, 1, 0, 1}, 100.0));
  EXPECT_FALSE(BacklogGrowing({0, 0, 0, 0, 10, 20, 30, 40}, 200.0));
}

TEST(LadderTest, NoPassingRungMeansZero) {
  const LadderOutcome outcome =
      SearchLadder({1, 2, 4}, [](double rate) {
        ProbeResult probe;
        probe.rate = rate;
        return probe;
      });
  EXPECT_EQ(outcome.sustained_rps, 0.0);
}

TEST(SpanTest, SelfTimeSubtractsChildrenOnce) {
  // request [0, 10] with children [1, 3] and [2, 6] (overlapping) and a
  // grandchild [4, 5] under the second child.
  std::vector<Span> spans = {
      {"request", 0.0, 10.0, -1, 1},
      {"a", 1.0, 3.0, 0, 1},
      {"b", 2.0, 6.0, 0, 1},
      {"c", 4.0, 5.0, 2, 1},
  };
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 0), 10.0 - 5.0);  // union [1, 6]
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 1), 2.0);
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 2), 3.0);
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 3), 1.0);
  const auto layers = AggregateByName(spans);
  EXPECT_DOUBLE_EQ(layers.at("request").self_seconds, 5.0);
  EXPECT_DOUBLE_EQ(layers.at("b").total_seconds, 4.0);
  double self_total = 0.0;
  for (const auto& [name, layer] : layers) self_total += layer.self_seconds;
  // Self times partition the root's interval when children nest.
  EXPECT_DOUBLE_EQ(self_total, 10.0 + 1.0);  // a and b overlap by 1
}

TEST(SpanTest, TracerNestsSpans) {
  Tracer tracer;
  {
    Tracer::Scope outer(tracer, "outer", 7);
    Tracer::Scope inner(tracer, "inner", 7);
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[1].request, 7u);
  EXPECT_LE(tracer.spans()[0].start, tracer.spans()[1].start);
  EXPECT_GE(tracer.spans()[0].end, tracer.spans()[1].end);
}

TEST(ModelTest, RecoversKnownCoefficients) {
  std::vector<CostSample> samples;
  for (int b = 2; b <= 64; ++b) {
    CostSample s;
    s.budget = b;
    s.scan_work = b * 200000.0;
    s.retired_links = 1000.0 * b + 50.0 * b * b;  // not collinear with scan
    s.select_seconds = 2e-9 * s.retired_links + 1e-10 * s.scan_work;
    s.serialize_seconds = 3e-7 * b;
    samples.push_back(s);
  }
  const CostModel model = FitCostModel(samples);
  ASSERT_TRUE(model.fitted);
  EXPECT_NEAR(model.retire_seconds, 2e-9, 1e-12);
  EXPECT_NEAR(model.scan_seconds, 1e-10, 1e-13);
  EXPECT_NEAR(model.ser_seconds, 3e-7, 1e-12);
  EXPECT_LT(model.residual, 1e-6);
  EXPECT_EQ(model.outliers, 0u);
}

TEST(ModelTest, CountsRequestsOffByMoreThanTwice) {
  std::vector<CostSample> samples;
  for (int b = 2; b <= 20; ++b) {
    CostSample s;
    s.budget = b;
    s.scan_work = b * 1000.0;
    s.retired_links = 10.0 * b * b;
    s.select_seconds = 1e-6 * b;
    s.serialize_seconds = 1e-7 * b;
    samples.push_back(s);
  }
  samples[5].select_seconds *= 10.0;
  const CostModel model = FitCostModel(samples);
  ASSERT_TRUE(model.fitted);
  EXPECT_GE(model.outliers, 1u);
}

// The output check catches a single corrupted body among correct ones.
TEST_F(PlanTest, OutputCheckCatchesOneCorruptedBody) {
  const RequestPlan plan = PlanRequests(*FindWorkload("miss"), 9, snapshot());
  BodyLedger ledger(plan.keys.size());
  podium::serve::ServiceOptions options;
  options.cache_entries = 0;
  podium::serve::SelectionService service(*snapshot_, options);
  // Serve a handful of keys for real.
  std::vector<std::uint32_t> keys = {0, 1, 10, 11, 40};
  for (std::uint32_t key : keys) {
    auto doc = podium::json::Parse(plan.keys[key].body);
    auto request = podium::serve::SelectionRequestFromJson(doc.value());
    auto reply = service.Select(request.value());
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(ledger.Record(key, reply->body));
  }
  CheckReport clean = CheckServedBodies(plan, ledger, snapshot());
  EXPECT_TRUE(clean.bad_keys.empty());
  EXPECT_EQ(clean.keys_checked, keys.size());
  EXPECT_GT(clean.score_frac, 0.0);
  EXPECT_LE(clean.score_frac, 1.0);

  // Same keys, one body with a corrupted score: only that key fails.
  BodyLedger corrupted(plan.keys.size());
  for (std::uint32_t key : keys) {
    std::string body = *ledger.first(key);
    if (key == 10) {
      const std::size_t at = body.find("\"score\":") + 8;
      body.insert(at, "1");
    }
    corrupted.Record(key, body);
  }
  CheckReport report = CheckServedBodies(plan, corrupted, snapshot());
  ASSERT_EQ(report.bad_keys.size(), 1u);
  EXPECT_EQ(report.bad_keys[0], 10u);

  // A later response that differs from the first for its key is caught as
  // it arrives.
  EXPECT_FALSE(ledger.Record(0, *ledger.first(1)));
  EXPECT_EQ(ledger.mismatches(), 1u);

  // The uncached replay flags the corrupted body too.
  CheckReport replay;
  CompareWithUncachedService(plan, corrupted, *snapshot_, 1, keys.size(),
                             replay);
  EXPECT_EQ(replay.replayed, keys.size());
  ASSERT_EQ(replay.bad_keys.size(), 1u);
  EXPECT_EQ(replay.bad_keys[0], 10u);
}

}  // namespace
}  // namespace selbench
