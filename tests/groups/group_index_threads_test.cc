// The CSR arrays of a GroupIndex must not depend on the pool size: every
// builder records user rows in chunks over user ids and scatters them
// into both directions chunk by chunk, and every pool size has to produce
// the same bytes. Pruned builds and overlapping definitions are also
// compared with a nested reference built one member at a time.

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "podium/groups/group_index.h"
#include "podium/util/rng.h"
#include "podium/util/thread_pool.h"

namespace podium {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

class ScopedThreadCount {
 public:
  explicit ScopedThreadCount(std::size_t count) {
    util::ThreadPool::SetGlobalThreadCount(count);
  }
  ~ScopedThreadCount() { util::ThreadPool::SetGlobalThreadCount(0); }
};

/// Every CSR row, both directions, plus the definitions.
struct CsrSnapshot {
  std::size_t users = 0;
  std::size_t links = 0;
  std::vector<std::string> labels;
  std::vector<std::vector<UserId>> members;
  std::vector<std::vector<GroupId>> groups_of;

  friend bool operator==(const CsrSnapshot&, const CsrSnapshot&) = default;
};

CsrSnapshot Snapshot(const GroupIndex& index) {
  CsrSnapshot snapshot;
  snapshot.users = index.user_count();
  snapshot.links = index.link_count();
  for (GroupId g = 0; g < index.group_count(); ++g) {
    snapshot.labels.push_back(index.label(g));
    const auto members = index.members(g);
    snapshot.members.emplace_back(members.begin(), members.end());
  }
  for (UserId u = 0; u < index.user_count(); ++u) {
    const auto groups = index.groups_of(u);
    snapshot.groups_of.emplace_back(groups.begin(), groups.end());
  }
  return snapshot;
}

/// 5000 users over 30 score and 4 boolean properties (enough users for
/// many chunks). Every seventh user has an empty profile, so belongs to no
/// group; the rest rate a random subset, a few properties only sparsely.
ProfileRepository MakeRepository() {
  ProfileRepository repo;
  std::vector<PropertyId> properties;
  for (int p = 0; p < 30; ++p) {
    properties.push_back(
        repo.properties().Intern("score" + std::to_string(p)));
  }
  for (int p = 0; p < 4; ++p) {
    properties.push_back(repo.properties().Intern(
        "flag" + std::to_string(p), PropertyKind::kBoolean));
  }
  util::Rng rng(17);
  for (int u = 0; u < 5000; ++u) {
    const UserId user = repo.AddUser("u" + std::to_string(u)).value();
    if (u % 7 == 0) continue;
    for (std::size_t i = 0; i < properties.size(); ++i) {
      const double density = i % 10 == 9 ? 0.02 : 0.5;
      if (!rng.NextBernoulli(density)) continue;
      const double score = i >= 30 ? static_cast<double>(rng.NextBounded(2))
                                   : rng.NextDouble();
      EXPECT_TRUE(repo.SetScore(user, properties[i], score).ok());
    }
  }
  return repo;
}

/// The index FromDefs(repo, defs) and a Build pruned at `min_size`
/// should give, listed independently of both: one push_back per (def,
/// user) member, as check::BuildNestedGroups does, then the defs with
/// fewer than `min_size` members dropped and the rest renumbered in order.
CsrSnapshot NestedReference(const ProfileRepository& repo,
                            const std::vector<GroupDef>& defs,
                            std::size_t min_size) {
  CsrSnapshot reference;
  reference.users = repo.user_count();
  reference.groups_of.resize(repo.user_count());
  for (const GroupDef& def : defs) {
    std::vector<UserId> members;
    for (UserId u = 0; u < repo.user_count(); ++u) {
      const auto score = repo.user(u).Get(def.property);
      if (score.has_value() && def.bucket.Contains(*score)) {
        members.push_back(u);
      }
    }
    if (members.size() < min_size) continue;
    const auto g = static_cast<GroupId>(reference.labels.size());
    reference.labels.push_back(def.label);
    for (UserId u : members) reference.groups_of[u].push_back(g);
    reference.links += members.size();
    reference.members.push_back(std::move(members));
  }
  return reference;
}

/// Builds at every thread count with `build` and expects one snapshot,
/// equal to `*expected` when given.
template <typename BuildFn>
void ExpectSameAtEveryThreadCount(const BuildFn& build,
                                  const CsrSnapshot* expected = nullptr) {
  std::vector<CsrSnapshot> snapshots;
  for (std::size_t threads : kThreadCounts) {
    ScopedThreadCount scoped(threads);
    Result<GroupIndex> index = build();
    ASSERT_TRUE(index.ok()) << index.status();
    snapshots.push_back(Snapshot(index.value()));
  }
  ASSERT_GT(snapshots[0].links, 0u);
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    EXPECT_TRUE(snapshots[0] == snapshots[i])
        << "threads=" << kThreadCounts[i] << " diverged from threads=1";
  }
  if (expected != nullptr) {
    EXPECT_TRUE(snapshots[0] == *expected)
        << "threads=1 diverged from the nested reference";
  }
}

std::vector<GroupDef> DefsOf(const GroupIndex& index) {
  std::vector<GroupDef> defs;
  for (GroupId g = 0; g < index.group_count(); ++g) {
    defs.push_back(index.def(g));
  }
  return defs;
}

TEST(GroupIndexThreadsTest, BuildIsThreadCountInvariant) {
  const ProfileRepository repo = MakeRepository();
  GroupingOptions options;
  options.include_boolean_false_groups = true;
  ExpectSameAtEveryThreadCount(
      [&] { return GroupIndex::Build(repo, options); });

  // Pruned builds: the links of dropped groups leave both directions, and
  // no user row names a dropped group. At 40 the sparse properties'
  // buckets (about 30 members each) are dropped.
  const std::vector<GroupDef> unpruned =
      DefsOf(GroupIndex::Build(repo, options).value());
  for (const std::size_t min_size : {2u, 40u}) {
    SCOPED_TRACE("min_group_size=" + std::to_string(min_size));
    options.min_group_size = min_size;
    const CsrSnapshot reference = NestedReference(repo, unpruned, min_size);
    if (min_size == 40) {
      EXPECT_LT(reference.labels.size(), unpruned.size());
    }
    ExpectSameAtEveryThreadCount(
        [&] { return GroupIndex::Build(repo, options); }, &reference);
  }
}

TEST(GroupIndexThreadsTest, FromDefsIsThreadCountInvariant) {
  const ProfileRepository repo = MakeRepository();
  std::vector<GroupDef> defs = DefsOf(GroupIndex::Build(repo).value());
  const PropertyId property = defs.front().property;
  // A definition nobody matches: FromDefs drops it.
  defs.push_back(GroupDef{property, bucketing::Bucket{2.0, 3.0, true, "never"},
                          "never"});
  // Two definitions on one property whose buckets overlap with each other
  // and with the built ones: a user in [0.5, 0.7) then has three groups
  // from one property, a row Build never produces.
  defs.push_back(GroupDef{property, bucketing::Bucket{0.2, 0.7, false, "a"},
                          "overlap a"});
  defs.push_back(GroupDef{property, bucketing::Bucket{0.5, 1.0, true, "b"},
                          "overlap b"});
  const CsrSnapshot reference = NestedReference(repo, defs, 1);
  ExpectSameAtEveryThreadCount(
      [&] { return GroupIndex::FromDefs(repo, defs); }, &reference);

  const GroupIndex index = GroupIndex::FromDefs(repo, defs).value();
  std::size_t overlapping_rows = 0;
  for (UserId u = 0; u < index.user_count(); ++u) {
    std::size_t from_property = 0;
    for (GroupId g : index.groups_of(u)) {
      from_property += index.def(g).property == property ? 1 : 0;
    }
    overlapping_rows += from_property == 3 ? 1 : 0;
  }
  EXPECT_GT(overlapping_rows, 0u);
}

TEST(GroupIndexThreadsTest, FromMembershipKeepsEmptyGroupsAtEveryThreadCount) {
  // Strided member lists over 3000 users, with empty lists between them;
  // users 2900.. and every multiple of 11 belong to no group.
  constexpr std::size_t kUsers = 3000;
  std::vector<GroupDef> defs;
  std::vector<std::vector<UserId>> members;
  for (std::size_t g = 0; g < 40; ++g) {
    defs.push_back(GroupDef{0, bucketing::Bucket{}, "g" + std::to_string(g)});
    members.emplace_back();
    if (g % 5 == 4) continue;  // empty, and kept
    for (UserId u = static_cast<UserId>(g % 13); u < 2900; u += 1 + g % 9) {
      if (u % 11 != 0) members.back().push_back(u);
    }
  }
  ExpectSameAtEveryThreadCount([&] {
    return GroupIndex::FromMembership(defs, members, kUsers);
  });

  const GroupIndex index =
      GroupIndex::FromMembership(defs, members, kUsers).value();
  ASSERT_EQ(index.group_count(), defs.size());
  EXPECT_EQ(index.group_size(4), 0u);
  EXPECT_TRUE(index.groups_of(2950).empty());
  EXPECT_TRUE(index.groups_of(0).empty());
  for (GroupId g = 0; g < index.group_count(); ++g) {
    for (UserId u : index.members(g)) {
      EXPECT_TRUE(std::binary_search(index.groups_of(u).begin(),
                                     index.groups_of(u).end(), g));
    }
  }
}

}  // namespace
}  // namespace podium
