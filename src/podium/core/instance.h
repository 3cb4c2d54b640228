#ifndef PODIUM_CORE_INSTANCE_H_
#define PODIUM_CORE_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "podium/groups/coverage.h"
#include "podium/groups/group_index.h"
#include "podium/groups/weight.h"
#include "podium/profile/repository.h"
#include "podium/util/result.h"

namespace podium {

/// Options for building a DiversificationInstance from a repository.
struct InstanceOptions {
  GroupingOptions grouping;
  WeightKind weight_kind = WeightKind::kLbs;        // paper's default (§8.3)
  CoverageKind coverage_kind = CoverageKind::kSingle;
  /// The budget B; used by Prop coverage and EBS weights, and as the
  /// default budget for selectors.
  std::size_t budget = 8;
};

/// A diversification instance (𝒢, wei, cov) over a repository (Def. 3.3),
/// fully evaluated: groups materialized, weights and coverage sizes
/// computed. Immutable once built; selectors treat it as read-only input.
class DiversificationInstance {
 public:
  /// An empty instance (no repository); assign a Build()/FromGroups()
  /// result over it before use.
  DiversificationInstance() = default;

  /// Derives simple groups from `repository` and evaluates the weight and
  /// coverage functions. The repository must outlive the instance.
  [[nodiscard]] static Result<DiversificationInstance> Build(
      const ProfileRepository& repository, const InstanceOptions& options = {});

  /// Builds an instance over caller-provided groups (manually crafted 𝒢).
  [[nodiscard]] static Result<DiversificationInstance> FromGroups(
      const ProfileRepository& repository, GroupIndex groups,
      WeightKind weight_kind, CoverageKind coverage_kind, std::size_t budget);

  /// Builds an instance over caller-provided groups with EXPLICIT weights
  /// and coverage requirements instead of deriving them from the index.
  /// The sharded engine uses this to inject globally computed wei/cov into
  /// each shard-local instance, so every shard greedily optimizes the same
  /// global objective f (required for the two-round GreeDi bound and the
  /// K=1 byte-identity guarantee; see DESIGN.md §13). The population is the
  /// index's; the instance has no repository (selection reads only the
  /// groups, weights and coverage).
  [[nodiscard]] static Result<DiversificationInstance> FromGroupsWithScoring(
      GroupIndex groups, GroupWeighting weights, CoverageKind coverage_kind,
      std::vector<std::uint32_t> coverage, std::size_t budget);

  /// The profiles the groups were derived from, for the layers that read
  /// them (explanations, distance baselines, the oracle). Aborts on an
  /// instance built without one (FromGroupsWithScoring, or default
  /// constructed). The population size is groups().user_count().
  const ProfileRepository& repository() const;
  const GroupIndex& groups() const { return groups_; }
  const GroupWeighting& weights() const { return weights_; }
  WeightKind weight_kind() const { return weights_.kind(); }
  CoverageKind coverage_kind() const { return coverage_kind_; }
  std::size_t budget() const { return budget_; }

  /// cov(G) for every group.
  const std::vector<std::uint32_t>& coverage() const { return coverage_; }
  std::uint32_t coverage(GroupId g) const { return coverage_[g]; }

  /// wei(G) as a scalar (approximate for EBS; see GroupWeighting).
  double weight(GroupId g) const { return weights_.scalar(g); }

  /// Line 2 of Algorithm 1 for the whole population under the unperturbed
  /// scalar weights, every group in tier 0: marg_{u,∅} = Σ_{G ∋ u} wei(G),
  /// indexed by user id. Computed once, on first call, with the kernel and
  /// reassociation rule the greedy's own accumulation uses, so a run that
  /// copies these gains is byte-identical to one that sums them. Copies of
  /// the instance share one result. Thread-safe.
  const std::vector<double>& LineTwoGains() const;

 private:
  /// Once-per-instance Line-2 gains, shared by every copy of the instance
  /// (they all hold the same groups and weights).
  struct LineTwoCache {
    std::once_flag once;
    std::vector<double> gains;
  };

  const ProfileRepository* repository_ = nullptr;
  GroupIndex groups_;
  GroupWeighting weights_;
  CoverageKind coverage_kind_ = CoverageKind::kSingle;
  std::vector<std::uint32_t> coverage_;
  std::size_t budget_ = 0;
  std::shared_ptr<LineTwoCache> line_two_ = std::make_shared<LineTwoCache>();
};

}  // namespace podium

#endif  // PODIUM_CORE_INSTANCE_H_
