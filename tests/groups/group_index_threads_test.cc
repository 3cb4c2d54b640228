// The CSR arrays of a GroupIndex must not depend on the pool size: the
// reverse (user → group) direction is filled by chunks over user ids, and
// every chunk count has to produce the same bytes.

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

/// Builds at every thread count with `build` and expects one snapshot.
template <typename BuildFn>
void ExpectSameAtEveryThreadCount(const BuildFn& build) {
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
}

TEST(GroupIndexThreadsTest, BuildIsThreadCountInvariant) {
  const ProfileRepository repo = MakeRepository();
  GroupingOptions options;
  options.include_boolean_false_groups = true;
  ExpectSameAtEveryThreadCount(
      [&] { return GroupIndex::Build(repo, options); });
}

TEST(GroupIndexThreadsTest, FromDefsIsThreadCountInvariant) {
  const ProfileRepository repo = MakeRepository();
  const GroupIndex built = GroupIndex::Build(repo).value();
  std::vector<GroupDef> defs;
  for (GroupId g = 0; g < built.group_count(); ++g) {
    defs.push_back(built.def(g));
  }
  // A definition nobody matches: FromDefs drops it.
  defs.push_back(GroupDef{defs.front().property,
                          bucketing::Bucket{2.0, 3.0, true, "never"},
                          "never"});
  ExpectSameAtEveryThreadCount(
      [&] { return GroupIndex::FromDefs(repo, defs); });
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
