#ifndef PODIUM_SHARD_SHARDED_SELECTOR_H_
#define PODIUM_SHARD_SHARDED_SELECTOR_H_

#include <cstddef>
#include <vector>

#include "podium/core/greedy.h"
#include "podium/core/selection.h"
#include "podium/shard/sharded_snapshot.h"
#include "podium/util/result.h"

namespace podium::shard {

/// The merged result of a two-round distributed selection, plus the
/// per-phase observability the serve layer and benches surface (shard
/// skew is the thing to watch at high K).
struct ShardedSelection {
  /// Final selection in merge-round pick order; users are GLOBAL ids and
  /// score is the GLOBAL score_𝒢 (exactly TotalScore of the unsharded
  /// instance over the same set — integer-exact for Iden/LBS).
  Selection merged;

  /// Candidate pool size contributed by each shard.
  std::vector<std::size_t> pool_sizes;
  /// Per-shard wall clock of the first round, seconds (skew signal).
  std::vector<double> shard_seconds;
  /// Total candidates entering the merge round.
  std::size_t candidate_count = 0;
  double merge_seconds = 0.0;
};

/// Two-round distributed greedy (the GreeDi shape; DESIGN.md §13):
/// round 1 runs the greedy independently per shard — against
/// the GLOBAL weights/coverage baked into each shard's instance — for a
/// candidate pool of max(pool_factor·B, B) users; round 2 unions the
/// pools and runs one exact greedy over the union. Guarantees
/// f(merged) ≥ (1−1/e)²/min(K,B) · f(OPT), and at K=1 reproduces the
/// single-snapshot greedy byte for byte.
class ShardedSelector {
 public:
  /// `mode` is the request's selector name, passed through to round 1;
  /// every mode selects the same users (see GreedyMode).
  explicit ShardedSelector(GreedyMode mode = GreedyMode::kPlainScan)
      : mode_(mode) {}

  [[nodiscard]] Result<ShardedSelection> Select(
      const ShardedSnapshot& snapshot, std::size_t budget) const;

 private:
  GreedyMode mode_;
};

}  // namespace podium::shard

#endif  // PODIUM_SHARD_SHARDED_SELECTOR_H_
