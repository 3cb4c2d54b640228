#include "podium/check/invariants.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "podium/check/oracle.h"
#include "podium/core/exhaustive.h"
#include "podium/core/score.h"
#include "podium/util/string_util.h"

namespace podium::check {

InvariantReport CheckGreedyRun(const DiversificationInstance& instance,
                               const Selection& selection,
                               std::size_t budget) {
  InvariantReport report;
  const std::size_t num_users = instance.groups().user_count();
  const std::size_t num_groups = instance.groups().group_count();
  const std::vector<UserId>& users = selection.users;

  if (users.size() > std::min(budget, num_users)) {
    report.Add(util::StringPrintf(
        "selection has %zu users, more than min(budget %zu, population %zu)",
        users.size(), budget, num_users));
  }
  std::vector<std::uint8_t> seen(num_users, 0);
  for (UserId u : users) {
    if (u >= num_users) {
      report.Add(util::StringPrintf("selected user id %u out of range", u));
      return report;  // later checks would index out of bounds
    }
    if (seen[u]) {
      report.Add(util::StringPrintf("user %u selected twice", u));
    }
    seen[u] = 1;
  }

  // Submodularity: the gain sequence of the greedy prefix chain never
  // increases. Gains are recomputed by direct scoring, so this also
  // cross-checks the maintained-marginal bookkeeping.
  double previous_gain = 0.0;
  for (std::size_t round = 0; round < users.size(); ++round) {
    const std::span<const UserId> before(users.data(), round);
    const std::span<const UserId> after(users.data(), round + 1);
    const double gain = OracleScore(instance, after) -
                        OracleScore(instance, before);
    if (round > 0 && gain > previous_gain) {
      report.Add(util::StringPrintf(
          "marginal gain increased at round %zu: %.17g after %.17g",
          round, gain, previous_gain));
    }
    previous_gain = gain;
  }

  // Retirement replay over the nested oracle adjacency: decrement
  // `remaining` for every alive group of each selected user, retiring a
  // group the instant it reaches zero — the exact bookkeeping of
  // Algorithm 1's data-structure section.
  const NestedGroups nested = BuildNestedGroups(instance);
  std::vector<std::uint32_t> remaining = instance.coverage();
  std::vector<std::uint8_t> dead(num_groups, 0);
  for (UserId u : users) {
    for (GroupId g : nested.groups_of[u]) {
      if (dead[g]) continue;
      if (--remaining[g] == 0) dead[g] = 1;
    }
  }
  const std::vector<std::uint32_t> csr_counts =
      MembersSelectedPerGroup(instance, users);
  for (GroupId g = 0; g < num_groups; ++g) {
    const std::uint32_t expected =
        instance.coverage(g) -
        std::min(csr_counts[g], instance.coverage(g));
    if (remaining[g] != expected) {
      report.Add(util::StringPrintf(
          "group %u remaining counter %u inconsistent with cov %u minus "
          "%u selected members",
          g, remaining[g], instance.coverage(g), csr_counts[g]));
    }
    if ((remaining[g] == 0) != (dead[g] != 0)) {
      report.Add(util::StringPrintf(
          "group %u retired flag disagrees with remaining counter %u", g,
          remaining[g]));
    }
  }

  const double oracle_score = OracleScore(instance, users);
  if (selection.score != oracle_score) {
    report.Add(util::StringPrintf(
        "reported score %.17g != direct-scoring oracle %.17g",
        selection.score, oracle_score));
  }
  return report;
}

InvariantReport CheckApproximationRatio(
    const DiversificationInstance& instance, const Selection& selection,
    std::size_t budget, std::size_t max_users) {
  InvariantReport report;
  if (instance.groups().user_count() > max_users) return report;

  Result<Selection> optimal = ExhaustiveSelector().Select(instance, budget);
  if (!optimal.ok()) {
    report.Add("exhaustive oracle failed: " + optimal.status().message());
    return report;
  }
  // (1 - 1/e) of Prop. 4.4, with a hair of slack for the one inexact
  // operation (the ratio itself; scores are integer-exact).
  const double bound = (1.0 - 1.0 / std::exp(1.0)) * optimal->score - 1e-9;
  if (selection.score < bound) {
    report.Add(util::StringPrintf(
        "greedy score %.17g below (1-1/e) * optimal %.17g",
        selection.score, optimal->score));
  }
  return report;
}

}  // namespace podium::check
