#include "podium/core/greedy.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "podium/check/oracle.h"
#include "podium/core/exhaustive.h"
#include "podium/core/score.h"
#include "podium/util/rng.h"
#include "tests/testing/table2.h"

namespace podium {
namespace {

/// Random repository: `users` users, `properties` score properties, each
/// user holding each property with probability `density`.
ProfileRepository RandomRepository(std::size_t users, std::size_t properties,
                                   double density, util::Rng& rng) {
  ProfileRepository repo;
  for (std::size_t u = 0; u < users; ++u) {
    const UserId id = repo.AddUser("u" + std::to_string(u)).value();
    for (std::size_t p = 0; p < properties; ++p) {
      if (rng.NextBernoulli(density)) {
        EXPECT_TRUE(repo.SetScore(id, "prop" + std::to_string(p),
                                  rng.NextDouble())
                        .ok());
      }
    }
  }
  return repo;
}

DiversificationInstance RandomInstance(const ProfileRepository& repo,
                                       WeightKind weight, CoverageKind cov,
                                       std::size_t budget) {
  InstanceOptions options;
  options.grouping.bucket_method = "equal-width";
  options.grouping.max_buckets = 3;
  options.weight_kind = weight;
  options.coverage_kind = cov;
  options.budget = budget;
  Result<DiversificationInstance> instance =
      DiversificationInstance::Build(repo, options);
  EXPECT_TRUE(instance.ok()) << instance.status();
  return std::move(instance).value();
}

// ---------------------------------------------------------------------------
// Score-function properties backing Prop. 4.4 (submodularity, monotonicity),
// checked on random instances.
// ---------------------------------------------------------------------------

struct PropertySweep {
  std::uint64_t seed;
  WeightKind weight;
  CoverageKind coverage;
};

class ScorePropertyTest : public ::testing::TestWithParam<PropertySweep> {};

TEST_P(ScorePropertyTest, ScoreIsMonotoneAndSubmodular) {
  const PropertySweep& param = GetParam();
  util::Rng rng(param.seed);
  const ProfileRepository repo = RandomRepository(24, 8, 0.5, rng);
  const DiversificationInstance instance =
      RandomInstance(repo, param.weight, param.coverage, 5);

  for (int trial = 0; trial < 30; ++trial) {
    // Random nested subsets U ⊆ U' and a user u ∉ U'.
    std::vector<std::size_t> shuffled =
        rng.SampleWithoutReplacement(repo.user_count(), 10);
    const UserId extra = static_cast<UserId>(shuffled.back());
    shuffled.pop_back();
    const std::size_t small_size = rng.NextBounded(shuffled.size());
    std::vector<UserId> small(shuffled.begin(),
                              shuffled.begin() + small_size);
    std::vector<UserId> large(shuffled.begin(), shuffled.end());

    const double score_small = TotalScore(instance, small);
    const double score_large = TotalScore(instance, large);
    EXPECT_LE(score_small, score_large + 1e-9) << "monotonicity";
    EXPECT_GE(score_small, 0.0) << "non-negativity";

    std::vector<UserId> small_plus = small;
    small_plus.push_back(extra);
    std::vector<UserId> large_plus = large;
    large_plus.push_back(extra);
    const double gain_small = TotalScore(instance, small_plus) - score_small;
    const double gain_large = TotalScore(instance, large_plus) - score_large;
    EXPECT_GE(gain_small, gain_large - 1e-9) << "submodularity";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScorePropertyTest,
    ::testing::Values(
        PropertySweep{1, WeightKind::kIden, CoverageKind::kSingle},
        PropertySweep{2, WeightKind::kLbs, CoverageKind::kSingle},
        PropertySweep{3, WeightKind::kLbs, CoverageKind::kProp},
        PropertySweep{4, WeightKind::kIden, CoverageKind::kProp},
        PropertySweep{5, WeightKind::kLbs, CoverageKind::kSingle}),
    [](const auto& info) {
      return std::string(WeightKindName(info.param.weight)) + "_" +
             std::string(CoverageKindName(info.param.coverage)) + "_s" +
             std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// Approximation guarantee: greedy >= (1 - 1/e) * optimal on random
// instances small enough for exhaustive search (the paper observes ~0.998
// in practice; we assert the hard bound and track the empirical one).
// ---------------------------------------------------------------------------

class ApproximationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ApproximationTest, GreedyIsWithinBoundOfOptimal) {
  util::Rng rng(GetParam());
  const ProfileRepository repo = RandomRepository(14, 6, 0.45, rng);
  for (WeightKind weight : {WeightKind::kIden, WeightKind::kLbs}) {
    for (CoverageKind cov : {CoverageKind::kSingle, CoverageKind::kProp}) {
      const DiversificationInstance instance =
          RandomInstance(repo, weight, cov, 4);
      GreedySelector greedy;
      ExhaustiveSelector optimal;
      Result<Selection> greedy_result = greedy.Select(instance, 4);
      Result<Selection> optimal_result = optimal.Select(instance, 4);
      ASSERT_TRUE(greedy_result.ok());
      ASSERT_TRUE(optimal_result.ok()) << optimal_result.status();
      constexpr double kBound = 1.0 - 1.0 / M_E;
      EXPECT_GE(greedy_result->score,
                kBound * optimal_result->score - 1e-9)
          << WeightKindName(weight) << "/" << CoverageKindName(cov);
      EXPECT_LE(greedy_result->score, optimal_result->score + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApproximationTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// "greedy-heap" is a selector-name alias: both modes run the one argmax
// scan and must select identically.
// ---------------------------------------------------------------------------

class GreedyModeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyModeTest, LazyHeapMatchesPlainScan) {
  util::Rng rng(GetParam());
  const ProfileRepository repo = RandomRepository(60, 12, 0.4, rng);
  for (WeightKind weight : {WeightKind::kIden, WeightKind::kLbs}) {
    const DiversificationInstance instance =
        RandomInstance(repo, weight, CoverageKind::kSingle, 10);
    GreedyOptions plain;
    plain.mode = GreedyMode::kPlainScan;
    GreedyOptions lazy;
    lazy.mode = GreedyMode::kLazyHeap;
    Result<Selection> a = GreedySelector(plain).Select(instance, 10);
    Result<Selection> b = GreedySelector(lazy).Select(instance, 10);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->users, b->users);
    EXPECT_DOUBLE_EQ(a->score, b->score);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyModeTest,
                         ::testing::Values(7, 8, 9, 10));

// ---------------------------------------------------------------------------
// Runs that accumulate their own Line-2 gains (weight noise, tiers, a
// restricted pool) still reproduce the oracle, and base runs share one
// once-computed gain array per instance.
// ---------------------------------------------------------------------------

class GreedyOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyOracleTest, WeightNoiseRunMatchesOracleOverPerturbedWeights) {
  util::Rng rng(GetParam());
  const ProfileRepository repo = RandomRepository(40, 8, 0.4, rng);
  for (WeightKind weight : {WeightKind::kIden, WeightKind::kLbs}) {
    const DiversificationInstance instance =
        RandomInstance(repo, weight, CoverageKind::kProp, 6);
    GreedyOptions options;
    options.weight_noise = 0.3;
    options.weight_noise_seed = GetParam() * 7 + 1;
    // The perturbation GreedySelector documents, recomputed here.
    std::vector<double> perturbed = instance.weights().scalars();
    util::Rng noise(options.weight_noise_seed);
    for (double& w : perturbed) {
      w *= 1.0 + options.weight_noise * noise.NextDouble(-1.0, 1.0);
    }
    Result<Selection> greedy = GreedySelector(options).Select(instance, 6);
    Result<Selection> oracle =
        check::OracleGreedy(instance, 6, {}, {}, perturbed);
    ASSERT_TRUE(greedy.ok()) << greedy.status();
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    EXPECT_EQ(greedy->users, oracle->users) << WeightKindName(weight);
    // The reported score stays under the true weights.
    EXPECT_EQ(greedy->score, oracle->score);
  }
}

TEST_P(GreedyOracleTest, TieredPooledRunMatchesOracle) {
  util::Rng rng(GetParam());
  const ProfileRepository repo = RandomRepository(50, 8, 0.4, rng);
  const DiversificationInstance instance =
      RandomInstance(repo, WeightKind::kLbs, CoverageKind::kSingle, 7);
  const std::size_t num_groups = instance.groups().group_count();
  std::vector<std::uint8_t> tiers(num_groups);
  for (std::uint8_t& tier : tiers) {
    tier = static_cast<std::uint8_t>(rng.NextBounded(3));  // 2 = ignored
  }
  std::vector<UserId> pool;
  for (UserId u = 0; u < repo.user_count(); ++u) {
    if (rng.NextBernoulli(0.6)) pool.push_back(u);
  }
  ASSERT_FALSE(pool.empty());
  // Untiered over the pool (cached gains, -inf outside it), then tiered.
  for (const bool tiered : {false, true}) {
    GreedyOptions options;
    options.candidate_pool = pool;
    if (tiered) options.group_tiers = tiers;
    Result<Selection> greedy = GreedySelector(options).Select(instance, 7);
    Result<Selection> oracle = check::OracleGreedy(
        instance, 7, pool, tiered ? tiers : std::vector<std::uint8_t>{});
    ASSERT_TRUE(greedy.ok()) << greedy.status();
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    EXPECT_EQ(greedy->users, oracle->users) << "tiered=" << tiered;
    EXPECT_EQ(greedy->score, oracle->score) << "tiered=" << tiered;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyOracleTest,
                         ::testing::Values(41, 42, 43, 44));

TEST(LineTwoGainsTest, CopiesShareOneComputation) {
  util::Rng rng(5);
  const ProfileRepository repo = RandomRepository(30, 6, 0.5, rng);
  const DiversificationInstance instance =
      RandomInstance(repo, WeightKind::kLbs, CoverageKind::kSingle, 4);
  const DiversificationInstance copy = instance;  // the copy under test
  const std::vector<double>& gains = copy.LineTwoGains();
  // One array, whichever copy asked first.
  EXPECT_EQ(&instance.LineTwoGains(), &gains);
  // A separately built instance computes its own.
  const DiversificationInstance rebuilt =
      RandomInstance(repo, WeightKind::kLbs, CoverageKind::kSingle, 4);
  EXPECT_NE(&rebuilt.LineTwoGains(), &gains);
  // marg_{u,∅} = Σ_{G ∋ u} wei(G); LBS weights are integers, so exact.
  ASSERT_EQ(gains.size(), repo.user_count());
  for (UserId u = 0; u < repo.user_count(); ++u) {
    double expected = 0.0;
    for (GroupId g : instance.groups().groups_of(u)) {
      expected += instance.weight(g);
    }
    EXPECT_EQ(gains[u], expected) << "user " << u;
  }
  EXPECT_EQ(rebuilt.LineTwoGains(), gains);
}

TEST(LineTwoGainsTest, ConcurrentFirstRunsShareOneComputation) {
  util::Rng rng(9);
  const ProfileRepository repo = RandomRepository(200, 10, 0.4, rng);
  const DiversificationInstance instance =
      RandomInstance(repo, WeightKind::kLbs, CoverageKind::kSingle, 8);
  const Selection expected = [&] {
    const DiversificationInstance fresh =
        RandomInstance(repo, WeightKind::kLbs, CoverageKind::kSingle, 8);
    return GreedySelector().Select(fresh, 8).value();
  }();
  // Several copies race to be the first run on the shared cache.
  constexpr int kThreads = 4;
  std::vector<Selection> selections(kThreads);
  std::vector<const std::vector<double>*> gains(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const DiversificationInstance copy = instance;
      selections[t] = GreedySelector().Select(copy, 8).value();
      gains[t] = &copy.LineTwoGains();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(selections[t].users, expected.users) << "thread " << t;
    EXPECT_EQ(gains[t], &instance.LineTwoGains()) << "thread " << t;
  }
}

// ---------------------------------------------------------------------------
// EBS correctness: the tiered comparison must match explicit long-double
// exponential weights on instances small enough for those to be exact.
// ---------------------------------------------------------------------------

class EbsEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EbsEquivalenceTest, TieredGreedyMatchesExplicitExponentialWeights) {
  util::Rng rng(GetParam());
  // Few groups so (B+1)^rank stays representable: 10 users, 3 properties.
  const ProfileRepository repo = RandomRepository(10, 3, 0.6, rng);
  const DiversificationInstance instance =
      RandomInstance(repo, WeightKind::kEbs, CoverageKind::kSingle, 3);

  GreedySelector greedy;
  Result<Selection> tiered = greedy.Select(instance, 3);
  ASSERT_TRUE(tiered.ok());

  // Reference: brute-force greedy over explicit scalar weights.
  const std::size_t n = repo.user_count();
  std::vector<bool> chosen(n, false);
  std::vector<UserId> reference;
  for (int round = 0; round < 3; ++round) {
    UserId best = kInvalidUser;
    long double best_gain = -1.0L;
    for (UserId u = 0; u < n; ++u) {
      if (chosen[u]) continue;
      std::vector<UserId> with = reference;
      with.push_back(u);
      // Long-double scores computed directly from Def. 3.3.
      auto score = [&](const std::vector<UserId>& subset) {
        std::vector<std::uint32_t> count(instance.groups().group_count(), 0);
        for (UserId v : subset) {
          for (GroupId g : instance.groups().groups_of(v)) ++count[g];
        }
        long double total = 0.0L;
        for (GroupId g = 0; g < count.size(); ++g) {
          total += std::pow(4.0L,  // (B+1) with B=3
                            static_cast<long double>(
                                instance.weights().rank(g))) *
                   std::min(count[g], instance.coverage(g));
        }
        return total;
      };
      const long double gain = score(with) - score(reference);
      if (gain > best_gain) {
        best_gain = gain;
        best = u;
      }
    }
    reference.push_back(best);
    chosen[best] = true;
  }
  EXPECT_EQ(tiered->users, reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EbsEquivalenceTest,
                         ::testing::Values(3, 6, 9, 12, 15));

// ---------------------------------------------------------------------------
// Edge cases and options.
// ---------------------------------------------------------------------------

TEST(GreedyEdgeTest, BudgetLargerThanPopulationSelectsEveryone) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  Result<DiversificationInstance> instance =
      DiversificationInstance::FromGroups(repo, testing::MakeTable2Groups(repo),
                                          WeightKind::kLbs,
                                          CoverageKind::kSingle, 10);
  ASSERT_TRUE(instance.ok());
  GreedySelector selector;
  Result<Selection> selection = selector.Select(instance.value(), 10);
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection->users.size(), repo.user_count());
}

TEST(GreedyEdgeTest, ZeroBudgetIsRejected) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  Result<DiversificationInstance> instance =
      DiversificationInstance::FromGroups(repo, testing::MakeTable2Groups(repo),
                                          WeightKind::kLbs,
                                          CoverageKind::kSingle, 2);
  ASSERT_TRUE(instance.ok());
  GreedySelector selector;
  EXPECT_FALSE(selector.Select(instance.value(), 0).ok());
}

TEST(GreedyEdgeTest, CandidatePoolRestrictsSelection) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  Result<DiversificationInstance> instance =
      DiversificationInstance::FromGroups(repo, testing::MakeTable2Groups(repo),
                                          WeightKind::kLbs,
                                          CoverageKind::kSingle, 2);
  ASSERT_TRUE(instance.ok());
  GreedyOptions options;
  options.candidate_pool = {repo.FindUser("Bob"), repo.FindUser("Carol")};
  GreedySelector selector(options);
  Result<Selection> selection = selector.Select(instance.value(), 5);
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(selection->users.size(), 2u);  // pool exhausted before budget
  for (UserId u : selection->users) {
    EXPECT_TRUE(u == repo.FindUser("Bob") || u == repo.FindUser("Carol"));
  }
}

TEST(GreedyEdgeTest, TieBreakOrderIsRespected) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  Result<DiversificationInstance> instance =
      DiversificationInstance::FromGroups(repo, testing::MakeTable2Groups(repo),
                                          WeightKind::kLbs,
                                          CoverageKind::kSingle, 1);
  ASSERT_TRUE(instance.ok());
  // Alice and Eve tie at 10; prefer Eve via the tie-break permutation.
  GreedyOptions options;
  options.tie_break_order = {repo.FindUser("Eve"), repo.FindUser("Alice"),
                             repo.FindUser("Bob"), repo.FindUser("Carol"),
                             repo.FindUser("David")};
  GreedySelector selector(options);
  Result<Selection> selection = selector.Select(instance.value(), 1);
  ASSERT_TRUE(selection.ok());
  EXPECT_EQ(repo.user(selection->users[0]).name(), "Eve");
}

TEST(GreedyEdgeTest, InvalidOptionsAreRejected) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  Result<DiversificationInstance> instance =
      DiversificationInstance::FromGroups(repo, testing::MakeTable2Groups(repo),
                                          WeightKind::kLbs,
                                          CoverageKind::kSingle, 2);
  ASSERT_TRUE(instance.ok());

  GreedyOptions bad_tiers;
  bad_tiers.group_tiers = {0, 1};  // wrong length
  EXPECT_FALSE(GreedySelector(bad_tiers).Select(instance.value(), 2).ok());

  GreedyOptions bad_pool;
  bad_pool.candidate_pool = {999};
  EXPECT_FALSE(GreedySelector(bad_pool).Select(instance.value(), 2).ok());

  GreedyOptions bad_order;
  bad_order.tie_break_order = {0, 1};  // not a full permutation
  EXPECT_FALSE(GreedySelector(bad_order).Select(instance.value(), 2).ok());
}

TEST(GreedyEdgeTest, PropCoverageRewardsRepeatedRepresentation) {
  // Two groups: a big one (4 users) needing 2 representatives under Prop
  // with B=4, and small singleton groups. Greedy must take two members of
  // the big group before chasing singletons of lower weight.
  ProfileRepository repo;
  for (int i = 0; i < 4; ++i) {
    const UserId u = repo.AddUser("big" + std::to_string(i)).value();
    ASSERT_TRUE(repo.SetScore(u, "big", 1.0, PropertyKind::kBoolean).ok());
  }
  const UserId loner = repo.AddUser("loner").value();
  ASSERT_TRUE(repo.SetScore(loner, "solo", 1.0, PropertyKind::kBoolean).ok());

  InstanceOptions options;
  options.weight_kind = WeightKind::kLbs;
  options.coverage_kind = CoverageKind::kProp;
  options.budget = 3;
  DiversificationInstance instance =
      DiversificationInstance::Build(repo, options).value();
  // cov(big) = max(floor(3*4/5), 1) = 2; wei(big) = 4, wei(solo) = 1.
  GreedySelector selector;
  Result<Selection> selection = selector.Select(instance, 3);
  ASSERT_TRUE(selection.ok());
  int big_members = 0;
  for (UserId u : selection->users) {
    if (repo.user(u).name().substr(0, 3) == "big") ++big_members;
  }
  EXPECT_EQ(big_members, 2);
  EXPECT_DOUBLE_EQ(selection->score, 4.0 * 2.0 + 1.0);
}

}  // namespace
}  // namespace podium
