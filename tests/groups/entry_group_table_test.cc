// EntryGroupTable is the flat entry → group lookup every snapshot build
// runs once per profile entry. These tests pin it to the lookup it
// replaced: bucketing::FindBucket over β(p), then slot_of[p][b]. Every
// bucketizer, max_buckets 1–8, skewed, duplicate-heavy and all-equal
// scores, boolean properties with and without their "false" groups, and
// properties left out by a filter are probed at 0, at 1, at every bucket
// bound and one ulp either side of it, outside [0, 1], and at every score
// the repository holds.

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "podium/bucketing/bucket.h"
#include "podium/groups/group_index.h"
#include "podium/profile/repository.h"
#include "podium/util/rng.h"

namespace podium {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// 400 users over score properties of several shapes, a boolean property,
/// a property one user holds, and a property nobody holds.
ProfileRepository MakeRepository() {
  ProfileRepository repo;
  util::Rng rng(2024);
  const double duplicates[] = {0.0, 0.2, 0.2, 0.2, 0.5, 0.5, 1.0};
  repo.properties().Intern("unused score");
  for (UserId u = 0; u < 400; ++u) {
    EXPECT_TRUE(repo.AddUser("user-" + std::to_string(u)).ok());
    const double x = rng.NextDouble();
    EXPECT_TRUE(repo.SetScore(u, "uniform score", x).ok());
    EXPECT_TRUE(repo.SetScore(u, "skewed score", x * x * x * x).ok());
    EXPECT_TRUE(
        repo.SetScore(u, "duplicate score", duplicates[u % 7]).ok());
    EXPECT_TRUE(repo.SetScore(u, "equal score", 0.37).ok());
    EXPECT_TRUE(repo.SetScore(u, "flag", u % 3 == 0 ? 1.0 : 0.0,
                              PropertyKind::kBoolean)
                    .ok());
    if (u == 7) {
      EXPECT_TRUE(repo.SetScore(u, "single score", 0.6).ok());
    }
  }
  return repo;
}

/// The lookup the table replaces.
GroupId Reference(const GroupSlots& slots, PropertyId p, double score) {
  const std::vector<bucketing::Bucket>& buckets =
      slots.buckets_per_property[p];
  if (buckets.empty()) return kInvalidGroup;
  const int b = bucketing::FindBucket(buckets, score);
  return b < 0 ? kInvalidGroup
               : slots.slot_of[p][static_cast<std::size_t>(b)];
}

/// 0, 1, every bucket bound, one ulp either side of each, values outside
/// [0, 1] and NaN.
std::vector<double> Probes(const std::vector<bucketing::Bucket>& buckets) {
  std::vector<double> bounds = {0.0, 1.0};
  for (const bucketing::Bucket& bucket : buckets) {
    bounds.push_back(bucket.lo);
    bounds.push_back(bucket.hi);
  }
  std::vector<double> probes = {-0.0, -1.0, 2.0,
                                std::numeric_limits<double>::quiet_NaN()};
  for (const double x : bounds) {
    probes.push_back(x);
    probes.push_back(std::nextafter(x, -kInf));
    probes.push_back(std::nextafter(x, kInf));
  }
  return probes;
}

/// Checks the table against the reference on every probe of every
/// property and on every entry of the repository; returns the number of
/// probes that landed exactly on an interior cut.
std::size_t ExpectMatchesReference(const ProfileRepository& repo,
                                   const GroupSlots& slots,
                                   const std::string& tag) {
  std::size_t on_cut = 0;
  for (PropertyId p = 0; p < repo.property_count(); ++p) {
    const std::vector<bucketing::Bucket>& buckets =
        slots.buckets_per_property[p];
    for (const double score : Probes(buckets)) {
      EXPECT_EQ(slots.SlotOf(PropertyScore{p, score}),
                Reference(slots, p, score))
          << tag << " property " << repo.properties().Label(p) << " score "
          << score;
      for (std::size_t b = 1; b < buckets.size(); ++b) {
        on_cut += buckets[b].lo == score ? 1 : 0;
      }
    }
  }
  for (UserId u = 0; u < repo.user_count(); ++u) {
    for (const PropertyScore& entry : repo.user(u).entries()) {
      EXPECT_EQ(slots.SlotOf(entry),
                Reference(slots, entry.property, entry.score))
          << tag << " user " << u;
    }
  }
  return on_cut;
}

TEST(EntryGroupTableTest, MatchesFindBucketForEveryBucketizer) {
  const ProfileRepository repo = MakeRepository();
  for (const char* method :
       {"equal-width", "quantile", "kmeans-1d", "jenks", "kde"}) {
    std::size_t on_cut = 0;
    for (int max_buckets = 1; max_buckets <= 8; ++max_buckets) {
      for (const bool false_groups : {false, true}) {
        GroupingOptions options;
        options.bucket_method = method;
        options.max_buckets = max_buckets;
        options.include_boolean_false_groups = false_groups;
        Result<GroupSlots> slots = DeriveGroupSlots(repo, options, "test");
        ASSERT_TRUE(slots.ok()) << slots.status().ToString();
        const std::string tag = std::string(method) + " max_buckets " +
                                std::to_string(max_buckets) +
                                (false_groups ? " +false" : "");
        on_cut += ExpectMatchesReference(repo, *slots, tag);

        // The boolean property always splits in two; only its "true"
        // side has a group unless the "false" side is asked for.
        const PropertyId flag = repo.properties().Find("flag");
        EXPECT_NE(slots->SlotOf(PropertyScore{flag, 1.0}), kInvalidGroup);
        EXPECT_EQ(slots->SlotOf(PropertyScore{flag, 0.0}) != kInvalidGroup,
                  false_groups)
            << tag;
      }
    }
    // Some split had interior cuts, and probes landed on them.
    EXPECT_GT(on_cut, 0u) << method;
  }
}

TEST(EntryGroupTableTest, FilteredAndAbsentPropertiesHaveNoGroup) {
  const ProfileRepository repo = MakeRepository();
  GroupingOptions options;
  options.property_filters = {"skewed", "flag"};
  options.max_buckets = 4;
  Result<GroupSlots> slots = DeriveGroupSlots(repo, options, "test");
  ASSERT_TRUE(slots.ok()) << slots.status().ToString();
  ExpectMatchesReference(repo, *slots, "filtered");
  for (const char* label :
       {"uniform score", "duplicate score", "equal score", "unused score"}) {
    const PropertyId p = repo.properties().Find(label);
    ASSERT_NE(p, kInvalidProperty);
    EXPECT_TRUE(slots->buckets_per_property[p].empty()) << label;
    for (const double score : {0.0, 0.37, 0.5, 1.0}) {
      EXPECT_EQ(slots->SlotOf(PropertyScore{p, score}), kInvalidGroup)
          << label;
    }
  }
  const PropertyId skewed = repo.properties().Find("skewed score");
  EXPECT_NE(slots->SlotOf(PropertyScore{skewed, 0.5}), kInvalidGroup);
}

TEST(EntryGroupTableTest, DuplicateCutsAndBooleanBuckets) {
  // [0, 0.5) [0.5, 0.5) [0.5, 0.75) [0.75, 0.75) [0.75, 1]: a score on a
  // repeated cut skips the empty buckets, as FindBucket's first match does.
  const std::vector<std::vector<bucketing::Bucket>> buckets = {
      {{0.0, 0.5, false, "a"},
       {0.5, 0.5, false, "b"},
       {0.5, 0.75, false, "c"},
       {0.75, 0.75, false, "d"},
       {0.75, 1.0, true, "e"}},
      bucketing::FixedBooleanBuckets(),
      {},
      bucketing::PartitionFromBreakpoints({})};
  const std::vector<std::vector<GroupId>> groups = {
      {10, 11, 12, 13, 14}, {kInvalidGroup, 20}, {}, {30}};
  Result<EntryGroupTable> table = EntryGroupTable::Build(buckets, groups);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  for (PropertyId p = 0; p < buckets.size(); ++p) {
    for (const double score : Probes(buckets[p])) {
      const int b = buckets[p].empty()
                        ? -1
                        : bucketing::FindBucket(buckets[p], score);
      const GroupId want =
          b < 0 ? kInvalidGroup : groups[p][static_cast<std::size_t>(b)];
      EXPECT_EQ(table->GroupOfEntry(PropertyScore{p, score}), want)
          << "property " << p << " score " << score;
    }
  }
  EXPECT_EQ(table->GroupOfEntry(PropertyScore{0, 0.5}), 12u);
  EXPECT_EQ(table->GroupOfEntry(PropertyScore{0, 0.75}), 14u);

  // Renumbering maps every group through the table, invalid ones stay.
  std::vector<GroupId> id_of(31, kInvalidGroup);
  id_of[12] = 2;
  id_of[20] = 5;
  table->Renumber(id_of);
  EXPECT_EQ(table->GroupOfEntry(PropertyScore{0, 0.6}), 2u);
  EXPECT_EQ(table->GroupOfEntry(PropertyScore{0, 0.1}), kInvalidGroup);
  EXPECT_EQ(table->GroupOfEntry(PropertyScore{1, 1.0}), 5u);
  EXPECT_EQ(table->GroupOfEntry(PropertyScore{1, 0.0}), kInvalidGroup);
}

TEST(EntryGroupTableTest, RejectsBucketingsThatDoNotTileTheUnitInterval) {
  const std::vector<std::vector<GroupId>> two = {{0, 1}};
  // A gap between buckets.
  EXPECT_FALSE(EntryGroupTable::Build(
                   {{{0.0, 0.4, false, "a"}, {0.5, 1.0, true, "b"}}}, two)
                   .ok());
  // An open last bucket: 1 would fall in no bucket.
  EXPECT_FALSE(EntryGroupTable::Build(
                   {{{0.0, 0.5, false, "a"}, {0.5, 1.0, false, "b"}}}, two)
                   .ok());
  // Starts above 0.
  EXPECT_FALSE(EntryGroupTable::Build(
                   {{{0.1, 0.5, false, "a"}, {0.5, 1.0, true, "b"}}}, two)
                   .ok());
  // Group table of the wrong shape.
  EXPECT_FALSE(
      EntryGroupTable::Build({bucketing::FixedBooleanBuckets()}, {{0}}).ok());
}

}  // namespace
}  // namespace podium
