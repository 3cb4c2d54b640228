#include <string_view>

#include <gtest/gtest.h>

#include "podium/profile/property.h"
#include "podium/profile/repository.h"
#include "podium/profile/user_profile.h"

namespace podium {
namespace {

TEST(PropertyTableTest, InternIsIdempotent) {
  PropertyTable table;
  const PropertyId a = table.Intern("livesIn Tokyo", PropertyKind::kBoolean);
  const PropertyId b = table.Intern("avgRating Mexican");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("livesIn Tokyo"), a);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Label(a), "livesIn Tokyo");
  EXPECT_EQ(table.Kind(a), PropertyKind::kBoolean);
  EXPECT_EQ(table.Kind(b), PropertyKind::kScore);
}

TEST(PropertyTableTest, InternKeepsFirstKind) {
  PropertyTable table;
  const PropertyId a = table.Intern("x", PropertyKind::kBoolean);
  table.Intern("x", PropertyKind::kScore);  // ignored: already interned
  EXPECT_EQ(table.Kind(a), PropertyKind::kBoolean);
}

TEST(PropertyTableTest, FindMissingReturnsInvalid) {
  PropertyTable table;
  EXPECT_EQ(table.Find("ghost"), kInvalidProperty);
}

TEST(UserProfileTest, SetGetRemove) {
  UserProfile profile("Alice");
  EXPECT_TRUE(profile.empty());
  profile.Set(3, 0.5);
  profile.Set(1, 0.25);
  profile.Set(2, 0.75);
  EXPECT_EQ(profile.size(), 3u);
  EXPECT_EQ(profile.Get(1), 0.25);
  EXPECT_EQ(profile.Get(2), 0.75);
  EXPECT_EQ(profile.Get(3), 0.5);
  EXPECT_EQ(profile.Get(4), std::nullopt);
  EXPECT_TRUE(profile.Remove(2));
  EXPECT_FALSE(profile.Remove(2));
  EXPECT_EQ(profile.size(), 2u);
}

TEST(UserProfileTest, EntriesAreSortedByPropertyId) {
  UserProfile profile;
  profile.Set(9, 0.9);
  profile.Set(1, 0.1);
  profile.Set(5, 0.5);
  ASSERT_EQ(profile.entries().size(), 3u);
  EXPECT_EQ(profile.entries()[0].property, 1u);
  EXPECT_EQ(profile.entries()[1].property, 5u);
  EXPECT_EQ(profile.entries()[2].property, 9u);
}

TEST(UserProfileTest, SetOverwrites) {
  UserProfile profile;
  profile.Set(1, 0.1);
  profile.Set(1, 0.9);
  EXPECT_EQ(profile.size(), 1u);
  EXPECT_EQ(profile.Get(1), 0.9);
}

TEST(UserProfileTest, ReplaceEntriesSortsAndDeduplicates) {
  UserProfile profile;
  profile.ReplaceEntries({{7, 0.7}, {2, 0.2}, {7, 0.9}, {4, 0.4}});
  ASSERT_EQ(profile.size(), 3u);
  EXPECT_EQ(profile.Get(2), 0.2);
  EXPECT_EQ(profile.Get(4), 0.4);
  EXPECT_EQ(profile.Get(7), 0.9);  // last duplicate wins
}

TEST(RepositoryTest, AddAndFindUsers) {
  ProfileRepository repo;
  Result<UserId> alice = repo.AddUser("Alice");
  Result<UserId> bob = repo.AddUser("Bob");
  ASSERT_TRUE(alice.ok());
  ASSERT_TRUE(bob.ok());
  EXPECT_EQ(repo.user_count(), 2u);
  EXPECT_EQ(repo.FindUser("Alice"), alice.value());
  EXPECT_EQ(repo.FindUser("Bob"), bob.value());
  EXPECT_EQ(repo.FindUser("Eve"), kInvalidUser);
}

TEST(RepositoryTest, RejectsDuplicateNames) {
  ProfileRepository repo;
  ASSERT_TRUE(repo.AddUser("Alice").ok());
  Result<UserId> duplicate = repo.AddUser("Alice");
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kAlreadyExists);
  // A refused name adds no user and leaves the first one findable.
  EXPECT_EQ(repo.user_count(), 1u);
  EXPECT_EQ(repo.FindUser("Alice"), 0u);
  ASSERT_TRUE(repo.AddUser("Bob").ok());
  EXPECT_EQ(repo.FindUser("Bob"), 1u);
}

TEST(RepositoryTest, FindUserTakesAnyStringView) {
  ProfileRepository repo;
  ASSERT_TRUE(repo.AddUser("user-00042").ok());
  // A view into a longer buffer: no terminator after the name.
  const std::string_view buffer = "user-00042,user-00043";
  EXPECT_EQ(repo.FindUser(buffer.substr(0, 10)), 0u);
  EXPECT_EQ(repo.FindUser(buffer.substr(11)), kInvalidUser);
  EXPECT_EQ(repo.FindUser(buffer), kInvalidUser);
}

TEST(RepositoryTest, SetScoreValidatesInput) {
  ProfileRepository repo;
  const UserId alice = repo.AddUser("Alice").value();
  EXPECT_TRUE(repo.SetScore(alice, "p", 0.5).ok());
  EXPECT_TRUE(repo.SetScore(alice, "p", 0.0).ok());
  EXPECT_TRUE(repo.SetScore(alice, "p", 1.0).ok());
  EXPECT_FALSE(repo.SetScore(alice, "p", -0.1).ok());
  EXPECT_FALSE(repo.SetScore(alice, "p", 1.1).ok());
  EXPECT_FALSE(
      repo.SetScore(alice, "p", std::numeric_limits<double>::quiet_NaN())
          .ok());
  const PropertyId p = repo.properties().Find("p");
  EXPECT_FALSE(repo.SetScore(99, p, 0.5).ok());
  EXPECT_FALSE(repo.SetScore(alice, static_cast<PropertyId>(99), 0.5).ok());
}

TEST(RepositoryTest, SupportCount) {
  ProfileRepository repo;
  const UserId a = repo.AddUser("a").value();
  const UserId b = repo.AddUser("b").value();
  repo.AddUser("c").value();
  ASSERT_TRUE(repo.SetScore(a, "shared", 0.5).ok());
  ASSERT_TRUE(repo.SetScore(b, "shared", 0.7).ok());
  ASSERT_TRUE(repo.SetScore(b, "solo", 1.0).ok());
  EXPECT_EQ(repo.SupportCount(repo.properties().Find("shared")), 2u);
  EXPECT_EQ(repo.SupportCount(repo.properties().Find("solo")), 1u);
}

TEST(RepositoryTest, MeanProfileSize) {
  ProfileRepository repo;
  EXPECT_DOUBLE_EQ(repo.MeanProfileSize(), 0.0);
  const UserId a = repo.AddUser("a").value();
  const UserId b = repo.AddUser("b").value();
  ASSERT_TRUE(repo.SetScore(a, "p1", 0.5).ok());
  ASSERT_TRUE(repo.SetScore(a, "p2", 0.5).ok());
  ASSERT_TRUE(repo.SetScore(b, "p1", 0.5).ok());
  EXPECT_DOUBLE_EQ(repo.MeanProfileSize(), 1.5);
}

TEST(RepositoryTest, CloneIsIndependent) {
  ProfileRepository repo;
  const UserId a = repo.AddUser("a").value();
  ASSERT_TRUE(repo.SetScore(a, "p", 0.5).ok());
  ProfileRepository copy = repo.Clone();
  ASSERT_TRUE(copy.SetScore(a, "p", 0.9).ok());
  EXPECT_EQ(repo.user(a).Get(repo.properties().Find("p")), 0.5);
  EXPECT_EQ(copy.user(a).Get(copy.properties().Find("p")), 0.9);
}

}  // namespace
}  // namespace podium
