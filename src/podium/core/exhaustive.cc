#include "podium/core/exhaustive.h"

#include <algorithm>
#include <limits>

#include "podium/core/score.h"
#include "podium/util/string_util.h"

namespace podium {

namespace {

/// C(n, k) saturating at uint64 max.
std::uint64_t BinomialSaturating(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    const std::uint64_t numerator = n - k + i;
    if (result > std::numeric_limits<std::uint64_t>::max() / numerator) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    result = result * numerator / i;
  }
  return result;
}

}  // namespace

Result<Selection> ExhaustiveSelector::Select(
    const DiversificationInstance& instance, std::size_t budget) const {
  const std::size_t n = instance.groups().user_count();
  if (budget == 0) {
    return Status::InvalidArgument("budget must be positive");
  }
  const std::size_t k = std::min(budget, n);
  if (k == 0) return Selection{};  // empty population
  const std::uint64_t subsets = BinomialSaturating(n, k);
  if (subsets > max_subsets_) {
    return Status::FailedPrecondition(util::StringPrintf(
        "exhaustive search over C(%zu, %zu) = %llu subsets exceeds the "
        "configured limit of %llu",
        n, k, static_cast<unsigned long long>(subsets),
        static_cast<unsigned long long>(max_subsets_)));
  }

  // Enumerate size-k combinations in lexicographic order. The score is
  // monotone, so subsets of exactly size k dominate smaller ones.
  std::vector<UserId> current(k);
  for (std::size_t i = 0; i < k; ++i) current[i] = static_cast<UserId>(i);

  Selection best;
  best.score = -1.0;
  for (;;) {
    const double score = TotalScore(instance, current);
    if (score > best.score) {
      best.score = score;
      best.users = current;
    }
    // Advance to the next combination.
    std::size_t pos = k;
    while (pos > 0) {
      --pos;
      if (current[pos] != static_cast<UserId>(n - k + pos)) break;
      if (pos == 0) return best;  // all combinations exhausted
    }
    ++current[pos];
    for (std::size_t i = pos + 1; i < k; ++i) current[i] = current[i - 1] + 1;
  }
}

}  // namespace podium
