#ifndef PODIUM_CORE_GREEDY_H_
#define PODIUM_CORE_GREEDY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "podium/core/selection.h"

namespace podium {

/// The selector name a request asked for. Both values run the same
/// Algorithm 1 — one vectorized argmax scan per round — and select the
/// same users byte for byte. Two values remain because clients name the
/// selector on the wire ("greedy" / "greedy-heap"), where it is echoed
/// back and keys the result cache.
enum class GreedyMode {
  kPlainScan,
  kLazyHeap,
};

struct GreedyOptions {
  /// Selector name only; does not change the selection (see GreedyMode).
  GreedyMode mode = GreedyMode::kPlainScan;

  /// Candidate pool restriction (the refined user set 𝒰' of Def. 6.3).
  /// Empty means the full population.
  std::vector<UserId> candidate_pool;

  /// Group tiers for the customized score of Prop. 6.5: tier 0 gains
  /// dominate tier 1 gains lexicographically, and groups with tier >= 2
  /// are ignored ("do not diversify"). Empty means all groups in tier 0
  /// (the BASE-DIVERSITY problem). One entry per group when non-empty.
  std::vector<std::uint8_t> group_tiers;

  /// Optional deterministic tie-break permutation: ties in marginal gain
  /// are broken by preferring the user appearing earlier here. Empty means
  /// ties break by ascending user id. (The paper breaks ties arbitrarily;
  /// the prototype randomizes — pass a shuffled permutation to emulate, or
  /// set random_tie_seed below to have the selector shuffle for you.)
  std::vector<UserId> tie_break_order;

  /// When set (and tie_break_order is empty), ties break by a random
  /// permutation derived from this seed — the prototype's randomized
  /// tie-breaking (Section 10).
  std::optional<std::uint64_t> random_tie_seed;

  /// Multiplicative noise on group weights, the randomization extension
  /// the paper proposes in its future work (Section 10): each group's
  /// weight is scaled by a factor uniform in [1 - w, 1 + w] drawn from
  /// `weight_noise_seed`. 0 disables. Different seeds yield different
  /// near-optimal subsets, letting a client resample panels. Supported for
  /// Iden/LBS weights (EBS ranks are ordinal, noise does not apply).
  double weight_noise = 0.0;
  std::uint64_t weight_noise_seed = 0;
};

/// Greedy User Selection (Algorithm 1) with the paper's data structures:
/// bidirectional user↔group links, maintained marginal contributions, and
/// link retirement when a group's remaining coverage hits zero. Guarantees
/// a (1 - 1/e)-approximation of BASE-DIVERSITY (Prop. 4.4) — and of
/// CUSTOM-DIVERSITY when tiers/pool are supplied (Prop. 6.5).
///
/// EBS weights are handled exactly via lexicographic comparison of
/// marginal rank-sets rather than floating-point exponentials; EBS is
/// currently supported only for the base problem (no tiers).
class GreedySelector : public Selector {
 public:
  explicit GreedySelector(GreedyOptions options = {})
      : options_(std::move(options)) {}

  std::string Name() const override { return "Podium"; }

  [[nodiscard]] Result<Selection> Select(const DiversificationInstance& instance,
                           std::size_t budget) const override;

 private:
  GreedyOptions options_;
};

}  // namespace podium

#endif  // PODIUM_CORE_GREEDY_H_
