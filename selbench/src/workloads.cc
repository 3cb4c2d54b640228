#include "workloads.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "podium/json/value.h"
#include "podium/json/writer.h"
#include "sampler.h"
#include "stats.h"

namespace selbench {

namespace {

using podium::GroupId;
using podium::GroupIndex;
using podium::json::Array;
using podium::json::Object;
using podium::json::Value;

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  WorkloadSpec miss;
  miss.name = "miss";
  miss.population = Population::kYelpLike;
  miss.users = 200000;
  miss.connections = 4;
  miss.cache_entries = 0;
  miss.tail_pct = 90.0;
  miss.open_limit_ms = 400.0;
  miss.ladder = GeometricLadder(8.0, 160.0, 1.05);
  miss.reference_rps = 20.0;
  miss.partition_keys = true;
  miss.closed_share = 0.5;
  miss.reference_share = 0.2;
  miss.traced_requests = 160;
  all.push_back(miss);

  WorkloadSpec hot;
  hot.name = "hot";
  hot.population = Population::kTripAdvisorLike;
  hot.users = 50000;
  hot.connections = 4;
  hot.cache_entries = 1024;
  hot.tail_pct = 99.0;
  hot.open_limit_ms = 20.0;
  hot.ladder = GeometricLadder(2000.0, 128000.0, 1.05);
  hot.reference_rps = 10000.0;
  hot.warm_all_keys = true;
  hot.closed_share = 0.35;
  hot.reference_share = 0.3;
  hot.traced_requests = 20000;
  all.push_back(hot);

  WorkloadSpec custom;
  custom.name = "custom";
  custom.population = Population::kTripAdvisorLike;
  custom.users = 50000;
  custom.connections = 4;
  custom.cache_entries = 1024;
  custom.tail_pct = 95.0;
  custom.open_limit_ms = 200.0;
  custom.ladder = GeometricLadder(20.0, 640.0, 1.05);
  custom.reference_rps = 100.0;
  custom.traced_requests = 400;
  custom.reference_share = 0.25;
  all.push_back(custom);

  WorkloadSpec shard;
  shard.name = "shard";
  shard.population = Population::kShardShape;
  shard.users = 1000000;
  shard.shards = 4;
  shard.connections = 1;
  shard.cache_entries = 0;
  shard.tail_pct = 90.0;
  shard.open_limit_ms = 200.0;
  shard.ladder = GeometricLadder(2.0, 64.0, 1.05);
  shard.reference_rps = 8.0;
  shard.closed_share = 0.5;
  shard.reference_share = 0.2;
  shard.traced_requests = 40;
  all.push_back(shard);
  return all;
}

std::string Body(std::size_t budget, bool heap, const std::string* weights,
                 const std::string* coverage,
                 const std::vector<std::string>& must_have,
                 const std::vector<std::string>& must_not,
                 const std::vector<std::string>& priority, bool explain) {
  auto labels = [](const std::vector<std::string>& list) {
    Array out;
    for (const std::string& label : list) out.emplace_back(label);
    return Value(std::move(out));
  };
  Object body;
  body.Set("budget", Value(budget));
  if (heap) body.Set("selector", Value("greedy-heap"));
  if (weights != nullptr) body.Set("weights", Value(*weights));
  if (coverage != nullptr) body.Set("coverage", Value(*coverage));
  if (!must_have.empty()) body.Set("must_have", labels(must_have));
  if (!must_not.empty()) body.Set("must_not", labels(must_not));
  if (!priority.empty()) body.Set("priority", labels(priority));
  if (explain) body.Set("explain", Value(true));
  return podium::json::Write(Value(std::move(body)));
}

/// |a \ b| for ascending member lists.
std::size_t DifferenceSize(std::span<const podium::UserId> a,
                           std::span<const podium::UserId> b) {
  std::size_t count = 0;
  std::size_t j = 0;
  for (podium::UserId u : a) {
    while (j < b.size() && b[j] < u) ++j;
    if (j == b.size() || b[j] != u) ++count;
  }
  return count;
}

RequestPlan PlanMiss(Rng& rng) {
  constexpr std::size_t kLo = 2, kHi = 64;
  constexpr std::size_t kHeapEvery = 16;
  constexpr std::size_t kLength = 64 * 128;
  RequestPlan plan;
  for (std::size_t b = kLo; b <= kHi; ++b) {
    for (bool heap : {false, true}) {
      PlannedRequest request;
      request.budget = b;
      request.heap = heap;
      request.client = (b - kLo) % 4;
      request.body = Body(b, heap, nullptr, nullptr, {}, {}, {}, false);
      plan.keys.push_back(std::move(request));
    }
  }
  const std::vector<std::size_t> plain =
      StratifiedValues(rng, kLo, kHi, kLength);
  const std::vector<std::size_t> heap =
      StratifiedValues(rng, kLo, kHi, kLength / kHeapEvery);
  // Exactly one greedy-heap request at a seeded position in every window
  // of kHeapEvery requests.
  std::size_t heap_slot = 0;
  for (std::size_t i = 0; i < kLength; ++i) {
    if (i % kHeapEvery == 0) heap_slot = i + rng.Below(kHeapEvery);
    const bool is_heap = i == heap_slot;
    const std::size_t budget = is_heap ? heap[i / kHeapEvery] : plain[i];
    plan.order.push_back(
        static_cast<std::uint32_t>(2 * (budget - kLo) + (is_heap ? 1 : 0)));
  }
  return plan;
}

RequestPlan PlanHot(Rng& rng, const GroupIndex& groups) {
  constexpr std::size_t kKeys = 512;
  constexpr std::size_t kLength = 1 << 18;
  constexpr std::size_t kLo = 2, kHi = 16;
  RequestPlan plan;
  std::unordered_set<std::string> seen;
  for (std::size_t rank = 0; rank < kKeys; ++rank) {
    // One key in eight asks for explanations. Their ranks and budgets are
    // fixed (every eighth rank, budgets cycling through 2..16) so that the
    // explain share of traffic and its response sizes do not swing with
    // the seed; the seed picks everything else.
    PlannedRequest request;
    request.explain = rank % 8 == 7;
    request.budget = request.explain ? kLo + (rank / 8) % (kHi - kLo + 1)
                                     : rng.Between(kLo, kHi);
    do {
      const std::string label =
          groups.label(static_cast<GroupId>(rng.Below(groups.group_count())));
      request.body = Body(request.budget, false, nullptr, nullptr, {}, {label},
                          {}, request.explain);
    } while (!seen.insert(request.body).second);
    plan.keys.push_back(std::move(request));
  }
  const ZipfSampler zipf(kKeys, 1.0);
  plan.order.reserve(kLength);
  for (std::size_t i = 0; i < kLength; ++i) {
    plan.order.push_back(static_cast<std::uint32_t>(zipf.Draw(rng)));
  }
  return plan;
}

RequestPlan PlanCustom(Rng& rng, const GroupIndex& groups,
                       std::size_t num_users) {
  constexpr std::size_t kKeys = 12000;
  constexpr std::size_t kLo = 2, kHi = 16;
  constexpr std::size_t kMinMustHave = 64;
  enum : unsigned { kOverrides = 1, kMustHave = 2, kMustNot = 4, kPriority = 8 };
  // One block of request shapes; every block of eight requests holds each
  // shape once, in a seeded order.
  const std::vector<unsigned> shapes = {
      kOverrides | kMustHave, kOverrides | kMustNot | kPriority,
      kMustHave | kPriority,  kMustHave | kMustNot,
      kOverrides | kPriority, kMustNot,
      kOverrides | kMustHave | kMustNot | kPriority, kPriority};
  static const std::string kWeights[] = {"Iden", "LBS"};
  static const std::string kCoverage[] = {"Single", "Prop"};

  std::vector<GroupId> must_have_groups;
  for (GroupId g = 0; g < groups.group_count(); ++g) {
    const std::size_t size = groups.group_size(g);
    if (size >= kMinMustHave && size <= num_users / 2) {
      must_have_groups.push_back(g);
    }
  }
  if (must_have_groups.empty()) {
    throw std::runtime_error("custom: no group is large enough for must_have");
  }

  const std::vector<std::size_t> budgets =
      StratifiedValues(rng, kLo, kHi, kKeys);
  const std::vector<std::size_t> combos = StratifiedValues(rng, 0, 3, kKeys);
  const std::vector<std::size_t> explain_slot =
      StratifiedValues(rng, 0, 3, kKeys / 4);
  std::vector<unsigned> block;
  RequestPlan plan;
  plan.distinct = true;
  std::unordered_set<std::string> seen;
  for (std::size_t i = 0; i < kKeys; ++i) {
    if (i % shapes.size() == 0) {
      block = shapes;
      rng.Shuffle(block);
    }
    const unsigned shape = block[i % shapes.size()];
    PlannedRequest request;
    request.budget = budgets[i];
    request.explain = i % 4 == explain_slot[i / 4];
    const bool overrides = (shape & kOverrides) != 0;
    const std::string* weights =
        overrides ? &kWeights[combos[i] / 2] : nullptr;
    const std::string* coverage =
        overrides ? &kCoverage[combos[i] % 2] : nullptr;
    // LBS/Single is the snapshot's own instance.
    request.own_instance = overrides && combos[i] != 2;
    do {
      std::vector<std::string> must_have, must_not, priority;
      GroupId have = podium::kInvalidGroup;
      if (shape & kMustHave) {
        have = must_have_groups[rng.Below(must_have_groups.size())];
        must_have.push_back(groups.label(have));
      }
      if (shape & kMustNot) {
        // Redraw until the refined pool keeps at least B users.
        for (;;) {
          const auto g = static_cast<GroupId>(rng.Below(groups.group_count()));
          const std::size_t pool =
              have == podium::kInvalidGroup
                  ? num_users - groups.group_size(g)
                  : DifferenceSize(groups.members(have), groups.members(g));
          if (g != have && pool >= request.budget) {
            must_not.push_back(groups.label(g));
            break;
          }
        }
      }
      if (shape & kPriority) {
        const std::size_t count = 1 + rng.Below(2);
        for (std::size_t p = 0; p < count; ++p) {
          priority.push_back(groups.label(
              static_cast<GroupId>(rng.Below(groups.group_count()))));
        }
      }
      request.body = Body(request.budget, false, weights, coverage, must_have,
                          must_not, priority, request.explain);
    } while (!seen.insert(request.body).second);
    plan.keys.push_back(std::move(request));
    plan.order.push_back(static_cast<std::uint32_t>(i));
  }
  return plan;
}

RequestPlan PlanShard(Rng& rng) {
  constexpr std::size_t kLo = 4, kHi = 64;
  constexpr std::size_t kLength = (kHi - kLo + 1) * 16;
  RequestPlan plan;
  for (std::size_t b = kLo; b <= kHi; ++b) {
    PlannedRequest request;
    request.budget = b;
    request.body = Body(b, false, nullptr, nullptr, {}, {}, {}, false);
    plan.keys.push_back(std::move(request));
  }
  for (std::size_t b : StratifiedValues(rng, kLo, kHi, kLength)) {
    plan.order.push_back(static_cast<std::uint32_t>(b - kLo));
  }
  return plan;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

podium::datagen::DatasetConfig PopulationConfig(const WorkloadSpec& spec,
                                                std::uint64_t seed) {
  podium::datagen::DatasetConfig config;
  switch (spec.population) {
    case Population::kYelpLike:
      config = podium::datagen::DatasetConfig::YelpLike();
      break;
    case Population::kTripAdvisorLike:
      config = podium::datagen::DatasetConfig::TripAdvisorLike();
      break;
    case Population::kShardShape:
      // bench/shard_bench.cc's population: light profiles (~44 properties
      // per user, 714 groups) so that a million users fit in memory.
      config.num_restaurants = std::max<std::size_t>(spec.users / 8, 64);
      config.leaf_categories = 60;
      config.num_cities = 30;
      config.min_reviews_per_user = 3;
      config.max_reviews_per_user = 12;
      config.derive_enthusiasm = false;
      config.holdout_destinations = 0;
      break;
  }
  config.num_users = spec.users;
  config.seed = seed;
  return config;
}

podium::serve::SnapshotOptions ServeSnapshotOptions(const WorkloadSpec& spec) {
  podium::serve::SnapshotOptions options;
  options.instance.grouping.bucket_method = "quantile";
  options.instance.grouping.max_buckets = 3;
  options.instance.weight_kind = podium::WeightKind::kLbs;
  options.instance.coverage_kind = podium::CoverageKind::kSingle;
  options.instance.budget = 8;
  options.shard.num_shards = spec.shards;
  options.shard.strategy = podium::shard::PartitionStrategy::kHashUsers;
  return options;
}

RequestPlan PlanRequests(const WorkloadSpec& spec, std::uint64_t seed,
                         const podium::serve::Snapshot& snapshot) {
  // Request bodies get their own stream, apart from the population's.
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  if (spec.name == "miss") return PlanMiss(rng);
  if (spec.name == "shard") return PlanShard(rng);
  const GroupIndex& groups = snapshot.default_instance().groups();
  if (spec.name == "hot") return PlanHot(rng, groups);
  if (spec.name == "custom") {
    return PlanCustom(rng, groups, snapshot.user_count());
  }
  throw std::invalid_argument("no request plan for workload " +
                              std::string(spec.name));
}

}  // namespace selbench
