#include "podium/core/instance.h"

#include <cstdio>
#include <cstdlib>

#include "podium/core/kernels.h"
#include "podium/util/thread_pool.h"

namespace podium {

Result<DiversificationInstance> DiversificationInstance::Build(
    const ProfileRepository& repository, const InstanceOptions& options) {
  Result<GroupIndex> groups = GroupIndex::Build(repository, options.grouping);
  if (!groups.ok()) return groups.status();
  return FromGroups(repository, std::move(groups).value(),
                    options.weight_kind, options.coverage_kind,
                    options.budget);
}

Result<DiversificationInstance> DiversificationInstance::FromGroups(
    const ProfileRepository& repository, GroupIndex groups,
    WeightKind weight_kind, CoverageKind coverage_kind, std::size_t budget) {
  if (budget == 0) {
    return Status::InvalidArgument("budget must be positive");
  }
  if (groups.user_count() != repository.user_count()) {
    return Status::InvalidArgument(
        "group index was built over a different population");
  }
  DiversificationInstance instance;
  instance.repository_ = &repository;
  instance.weights_ = GroupWeighting::Compute(groups, weight_kind, budget);
  instance.coverage_kind_ = coverage_kind;
  instance.coverage_ =
      ComputeCoverage(groups, coverage_kind, budget, repository.user_count());
  instance.groups_ = std::move(groups);
  instance.budget_ = budget;
  return instance;
}

Result<DiversificationInstance> DiversificationInstance::FromGroupsWithScoring(
    GroupIndex groups, GroupWeighting weights, CoverageKind coverage_kind,
    std::vector<std::uint32_t> coverage, std::size_t budget) {
  if (budget == 0) {
    return Status::InvalidArgument("budget must be positive");
  }
  if (weights.group_count() != groups.group_count() ||
      coverage.size() != groups.group_count()) {
    return Status::InvalidArgument(
        "injected weights/coverage disagree with the group count");
  }
  DiversificationInstance instance;
  instance.weights_ = std::move(weights);
  instance.coverage_kind_ = coverage_kind;
  instance.coverage_ = std::move(coverage);
  instance.groups_ = std::move(groups);
  instance.budget_ = budget;
  return instance;
}

const ProfileRepository& DiversificationInstance::repository() const {
  if (repository_ == nullptr) {
    // A caller that needs profiles was handed a groups-only instance; that
    // is a programming error with no recoverable result, so report and
    // abort rather than dereference null.
    std::fprintf(stderr,
                 "podium::DiversificationInstance::repository() called on an "
                 "instance built without a repository\n");
    std::abort();
  }
  return *repository_;
}

const std::vector<double>& DiversificationInstance::LineTwoGains() const {
  LineTwoCache& cache = *line_two_;
  std::call_once(cache.once, [&] {
    // Every group in tier 0 under the unperturbed weights: the tier-0
    // weight array is the scalars themselves and there is no tier 1.
    const std::vector<double>& weights = weights_.scalars();
    const bool exact = kernels::ExactUnderReassociation(weights);
    std::vector<double> gains(groups_.user_count(), 0.0);
    util::ParallelFor(
        "instance.line_two_gains", gains.size(),
        [&](std::size_t begin, std::size_t end, std::size_t) {
          for (std::size_t u = begin; u < end; ++u) {
            kernels::AccumulateTieredGains(
                groups_.groups_of(static_cast<UserId>(u)), weights.data(),
                nullptr, exact, &gains[u], nullptr);
          }
        },
        /*grain=*/512);
    cache.gains = std::move(gains);
  });
  return cache.gains;
}

}  // namespace podium
