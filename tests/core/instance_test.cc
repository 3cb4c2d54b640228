#include "podium/core/instance.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "tests/testing/table2.h"

namespace podium {
namespace {

TEST(InstanceTest, BuildEvaluatesWeightsAndCoverage) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  InstanceOptions options;
  options.grouping.bucket_method = "equal-width";
  options.weight_kind = WeightKind::kLbs;
  options.coverage_kind = CoverageKind::kSingle;
  options.budget = 3;
  Result<DiversificationInstance> instance =
      DiversificationInstance::Build(repo, options);
  ASSERT_TRUE(instance.ok()) << instance.status();
  EXPECT_EQ(&instance->repository(), &repo);
  EXPECT_EQ(instance->budget(), 3u);
  EXPECT_EQ(instance->weight_kind(), WeightKind::kLbs);
  EXPECT_EQ(instance->coverage_kind(), CoverageKind::kSingle);
  ASSERT_GT(instance->groups().group_count(), 0u);
  for (GroupId g = 0; g < instance->groups().group_count(); ++g) {
    EXPECT_DOUBLE_EQ(instance->weight(g),
                     static_cast<double>(instance->groups().group_size(g)));
    EXPECT_EQ(instance->coverage(g), 1u);
  }
}

TEST(InstanceTest, RejectsZeroBudget) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  InstanceOptions options;
  options.budget = 0;
  EXPECT_FALSE(DiversificationInstance::Build(repo, options).ok());
}

TEST(InstanceTest, RejectsBadGroupingOptions) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  InstanceOptions options;
  options.grouping.bucket_method = "astrology";
  EXPECT_FALSE(DiversificationInstance::Build(repo, options).ok());
}

TEST(InstanceTest, FromGroupsRejectsForeignIndex) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  ProfileRepository other;
  ASSERT_TRUE(other.AddUser("solo").ok());
  ASSERT_TRUE(other.SetScore(0, "x", 1.0).ok());
  GroupIndex foreign = GroupIndex::Build(other, {}).value();
  Result<DiversificationInstance> instance =
      DiversificationInstance::FromGroups(repo, std::move(foreign),
                                          WeightKind::kLbs,
                                          CoverageKind::kSingle, 2);
  EXPECT_FALSE(instance.ok());
}

TEST(InstanceTest, ScoringInstanceTakesItsPopulationFromTheIndex) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  GroupIndex groups = GroupIndex::Build(repo, {}).value();
  const std::size_t num_groups = groups.group_count();
  const GroupWeighting weights =
      GroupWeighting::Compute(groups, WeightKind::kIden, 2);
  Result<DiversificationInstance> instance =
      DiversificationInstance::FromGroupsWithScoring(
          std::move(groups), weights, CoverageKind::kSingle,
          std::vector<std::uint32_t>(num_groups, 1), 2);
  ASSERT_TRUE(instance.ok()) << instance.status();
  EXPECT_EQ(instance->groups().user_count(), repo.user_count());
  // Built without a repository: asking for one is a checked failure.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH((void)instance->repository(), "built without a repository");
}

TEST(InstanceTest, PropertyFiltersNarrowTheInstance) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  InstanceOptions all;
  all.grouping.bucket_method = "equal-width";
  InstanceOptions filtered = all;
  filtered.grouping.property_filters = {"CheapEats"};
  const auto full = DiversificationInstance::Build(repo, all).value();
  const auto narrow = DiversificationInstance::Build(repo, filtered).value();
  EXPECT_LT(narrow.groups().group_count(), full.groups().group_count());
  for (GroupId g = 0; g < narrow.groups().group_count(); ++g) {
    EXPECT_NE(narrow.groups().label(g).find("CheapEats"),
              std::string::npos);
  }
}

TEST(InstanceTest, EbsBudgetAffectsScalarBase) {
  const ProfileRepository repo = testing::MakeTable2Repository();
  Result<DiversificationInstance> b2 =
      DiversificationInstance::FromGroups(repo,
                                          testing::MakeTable2Groups(repo),
                                          WeightKind::kEbs,
                                          CoverageKind::kSingle, 2);
  ASSERT_TRUE(b2.ok());
  // rank-1 group scalar weight = (B+1)^1 = 3 at B = 2.
  for (GroupId g = 0; g < b2->groups().group_count(); ++g) {
    if (b2->weights().rank(g) == 1) {
      EXPECT_DOUBLE_EQ(b2->weight(g), 3.0);
    }
  }
}

}  // namespace
}  // namespace podium
