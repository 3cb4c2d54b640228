#include "podium/check/oracle.h"

#include <algorithm>
#include <utility>

#include "podium/util/string_util.h"

namespace podium::check {

namespace {

/// |subset ∩ G| by scanning the subset and testing membership via the
/// group definition (property score in bucket) — not via any index.
std::uint32_t DirectIntersection(const DiversificationInstance& instance,
                                 GroupId g, std::span<const UserId> subset) {
  const GroupDef& def = instance.groups().def(g);
  std::uint32_t count = 0;
  for (UserId u : subset) {
    const auto score = instance.repository().user(u).Get(def.property);
    if (score.has_value() && def.bucket.Contains(*score)) ++count;
  }
  return count;
}

/// OracleTierScore under explicit per-group weights (empty = the
/// instance's own).
double WeightedTierScore(const DiversificationInstance& instance,
                         std::span<const UserId> subset,
                         const std::vector<std::uint8_t>& tiers,
                         std::uint8_t tier,
                         const std::vector<double>& weights) {
  double score = 0.0;
  for (GroupId g = 0; g < instance.groups().group_count(); ++g) {
    if ((tiers.empty() ? 0 : tiers[g]) != tier) continue;
    const std::uint32_t count = DirectIntersection(instance, g, subset);
    score += (weights.empty() ? instance.weight(g) : weights[g]) *
             std::min(count, instance.coverage(g));
  }
  return score;
}

}  // namespace

double OracleScore(const DiversificationInstance& instance,
                   std::span<const UserId> subset) {
  double score = 0.0;
  for (GroupId g = 0; g < instance.groups().group_count(); ++g) {
    const std::uint32_t count = DirectIntersection(instance, g, subset);
    score += instance.weight(g) *
             std::min(count, instance.coverage(g));
  }
  return score;
}

double OracleTierScore(const DiversificationInstance& instance,
                       std::span<const UserId> subset,
                       const std::vector<std::uint8_t>& tiers,
                       std::uint8_t tier) {
  return WeightedTierScore(instance, subset, tiers, tier, {});
}

NestedGroups BuildNestedGroups(const DiversificationInstance& instance) {
  const std::size_t num_users = instance.groups().user_count();
  const std::size_t num_groups = instance.groups().group_count();
  NestedGroups nested;
  nested.members.resize(num_groups);
  nested.groups_of.resize(num_users);
  for (GroupId g = 0; g < num_groups; ++g) {
    const GroupDef& def = instance.groups().def(g);
    for (UserId u = 0; u < num_users; ++u) {
      const auto score = instance.repository().user(u).Get(def.property);
      if (score.has_value() && def.bucket.Contains(*score)) {
        nested.members[g].push_back(u);
        nested.groups_of[u].push_back(g);
      }
    }
  }
  return nested;
}

Status CheckAdjacency(const DiversificationInstance& instance) {
  const GroupIndex& index = instance.groups();
  const NestedGroups nested = BuildNestedGroups(instance);
  for (GroupId g = 0; g < index.group_count(); ++g) {
    const std::span<const UserId> csr = index.members(g);
    if (!std::equal(csr.begin(), csr.end(), nested.members[g].begin(),
                    nested.members[g].end())) {
      return Status::Internal(util::StringPrintf(
          "CSR members of group %u diverge from the nested oracle "
          "(%zu vs %zu entries)",
          g, csr.size(), nested.members[g].size()));
    }
  }
  for (UserId u = 0; u < index.user_count(); ++u) {
    const std::span<const GroupId> csr = index.groups_of(u);
    if (!std::equal(csr.begin(), csr.end(), nested.groups_of[u].begin(),
                    nested.groups_of[u].end())) {
      return Status::Internal(util::StringPrintf(
          "CSR groups_of user %u diverge from the nested oracle "
          "(%zu vs %zu entries)",
          u, csr.size(), nested.groups_of[u].size()));
    }
  }
  return Status::Ok();
}

Result<Selection> OracleGreedy(const DiversificationInstance& instance,
                               std::size_t budget, std::vector<UserId> pool,
                               std::vector<std::uint8_t> tiers,
                               const std::vector<double>& weights) {
  const std::size_t num_users = instance.groups().user_count();
  if (budget == 0) return Status::InvalidArgument("budget must be positive");
  if (!weights.empty() && weights.size() != instance.groups().group_count()) {
    return Status::InvalidArgument("weights must have one entry per group");
  }
  if (pool.empty()) {
    pool.resize(num_users);
    for (UserId u = 0; u < num_users; ++u) pool[u] = u;
  } else {
    // Ascending ids so that "first candidate wins ties" below coincides
    // with the optimized selectors' ascending-id default tie-break.
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    if (!pool.empty() && pool.back() >= num_users) {
      return Status::OutOfRange("candidate pool user id out of range");
    }
  }
  std::vector<std::uint8_t> taken(num_users, 0);

  Selection selection;
  for (std::size_t round = 0; round < budget; ++round) {
    const double base0 =
        WeightedTierScore(instance, selection.users, tiers, 0, weights);
    const double base1 =
        WeightedTierScore(instance, selection.users, tiers, 1, weights);
    UserId chosen = kInvalidUser;
    double best0 = 0.0;
    double best1 = 0.0;
    for (UserId u : pool) {
      if (taken[u]) continue;
      std::vector<UserId> with_u(selection.users);
      with_u.push_back(u);
      const double gain0 =
          WeightedTierScore(instance, with_u, tiers, 0, weights) - base0;
      const double gain1 =
          WeightedTierScore(instance, with_u, tiers, 1, weights) - base1;
      // Larger (gain0, gain1) lexicographically wins; ties keep the
      // earlier (smaller-id) candidate.
      if (chosen == kInvalidUser || gain0 > best0 ||
          (gain0 == best0 && gain1 > best1)) {
        chosen = u;
        best0 = gain0;
        best1 = gain1;
      }
    }
    if (chosen == kInvalidUser) break;  // pool exhausted
    taken[chosen] = 1;
    selection.users.push_back(chosen);
  }
  selection.score = OracleScore(instance, selection.users);
  return selection;
}

}  // namespace podium::check
