#include "podium/core/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "podium/util/rng.h"

namespace podium::kernels {
namespace {

/// Restores automatic dispatch when a test that pins a variant exits,
/// even on assertion failure.
struct VariantGuard {
  ~VariantGuard() { ForceVariant(std::nullopt); }
};

/// A random kernel input: `length` ascending ids over a universe ~8x
/// larger, a flags buffer padded per the overread contract with every
/// other id alive, and integral per-id weights.
struct Fixture {
  std::vector<std::uint32_t> ids;
  std::vector<std::uint8_t> flags;
  std::vector<double> w0;
  std::vector<double> w1;
  std::size_t universe = 0;

  explicit Fixture(std::size_t length, std::uint64_t seed = 99) {
    universe = length * 8 + 16;
    util::Rng rng(seed);
    for (std::size_t i = 0; i < length; ++i) {
      ids.push_back(static_cast<std::uint32_t>(rng.NextBounded(universe)));
    }
    std::sort(ids.begin(), ids.end());
    flags.assign(universe + kFlagPadding, 0);
    for (std::size_t u = 0; u < universe; ++u) {
      flags[u] = static_cast<std::uint8_t>(u % 2);
    }
    w0.assign(universe, 0.0);
    w1.assign(universe, 0.0);
    for (std::size_t u = 0; u < universe; ++u) {
      w0[u] = static_cast<double>(u % 7);
      w1[u] = static_cast<double>(u % 5);
    }
  }

  std::size_t NaiveAlive() const {
    std::size_t count = 0;
    for (std::uint32_t id : ids) count += flags[id];
    return count;
  }
};

TEST(KernelDispatchTest, VariantNamesAreStable) {
  EXPECT_EQ(VariantName(Variant::kScalar), "scalar");
  EXPECT_EQ(VariantName(Variant::kAvx2), "avx2");
}

TEST(KernelDispatchTest, ForceVariantPinsAndRestores) {
  VariantGuard guard;
  ForceVariant(Variant::kScalar);
  EXPECT_EQ(ActiveVariant(), Variant::kScalar);
  ForceVariant(Variant::kAvx2);
  if (Avx2Available()) {
    EXPECT_EQ(ActiveVariant(), Variant::kAvx2);
  } else {
    // Forcing a variant the CPU cannot run demotes to scalar.
    EXPECT_EQ(ActiveVariant(), Variant::kScalar);
  }
  ForceVariant(std::nullopt);
  const Variant ambient = ActiveVariant();
  EXPECT_TRUE(ambient == Variant::kScalar || ambient == Variant::kAvx2);
}

TEST(CountAliveTest, MatchesNaiveCountUnderEveryVariant) {
  VariantGuard guard;
  // Lengths cover the SIMD main loop, its remainder, and sub-width spans.
  for (std::size_t length : {0u, 1u, 7u, 8u, 13u, 64u, 129u, 1000u}) {
    const Fixture fx(length);
    const std::size_t expected = fx.NaiveAlive();
    for (Variant variant : {Variant::kScalar, Variant::kAvx2}) {
      ForceVariant(variant);
      EXPECT_EQ(CountAlive(fx.ids, fx.flags.data()), expected)
          << "length=" << length << " variant=" << VariantName(variant);
    }
  }
}

TEST(RetireSpanTest, SubtractsOnlyFromAliveIdsBitExactly) {
  VariantGuard guard;
  const Fixture fx(257);
  const double weight = 4.0;
  for (Variant variant : {Variant::kScalar, Variant::kAvx2}) {
    ForceVariant(variant);
    std::vector<double> gains(fx.universe, 0.0);
    for (std::size_t u = 0; u < fx.universe; ++u) {
      gains[u] = static_cast<double>(u % 11) + 0.25;
    }
    const std::vector<double> before = gains;
    const std::uint32_t alive =
        RetireSpan(fx.ids, fx.flags.data(), gains.data(), weight);
    EXPECT_EQ(alive, fx.NaiveAlive());
    std::vector<double> expected = before;
    for (std::uint32_t id : fx.ids) {
      if (fx.flags[id] != 0) expected[id] -= weight;
    }
    for (std::size_t u = 0; u < fx.universe; ++u) {
      // Bitwise equality, not approximate: dead ids must be untouched and
      // alive ids must see exactly one subtraction per occurrence.
      EXPECT_EQ(gains[u], expected[u]) << "u=" << u;
    }
  }
}

TEST(AccumulateTieredGainsTest, MatchesStrictOrderSumAcrossVariants) {
  VariantGuard guard;
  for (std::size_t length : {0u, 5u, 8u, 100u, 513u}) {
    const Fixture fx(length);
    double expected0 = 0.0;
    double expected1 = 0.0;
    for (std::uint32_t id : fx.ids) {
      expected0 += fx.w0[id];
      expected1 += fx.w1[id];
    }
    for (Variant variant : {Variant::kScalar, Variant::kAvx2}) {
      for (bool reassociate : {false, true}) {
        ForceVariant(variant);
        // The kernel accumulates into its outputs; start from zero.
        double g0 = 0.0;
        double g1 = 0.0;
        AccumulateTieredGains(fx.ids, fx.w0.data(), fx.w1.data(), reassociate,
                              &g0, &g1);
        // The fixture weights are integral doubles, so every association
        // order produces the same bits as the strict-order sum.
        EXPECT_EQ(g0, expected0) << "length=" << length;
        EXPECT_EQ(g1, expected1) << "length=" << length;
      }
    }
  }
}

TEST(AccumulateTieredGainsTest, NullTier1SkipsSecondAccumulation) {
  VariantGuard guard;
  const Fixture fx(64);
  double expected0 = 0.0;
  for (std::uint32_t id : fx.ids) expected0 += fx.w0[id];
  for (Variant variant : {Variant::kScalar, Variant::kAvx2}) {
    ForceVariant(variant);
    double g0 = 0.0;
    double g1 = 7.5;
    AccumulateTieredGains(fx.ids, fx.w0.data(), nullptr, true, &g0, &g1);
    EXPECT_EQ(g0, expected0);
    EXPECT_EQ(g1, 7.5);  // untouched: no tier-1 accumulation ran
  }
}

/// ArgmaxGains' documented order, written out directly: the live entry
/// with the largest (gain0, gain1), then the smallest rank, then the
/// smallest index; size() when nothing is live.
std::size_t NaiveArgmax(const std::vector<double>& gain0,
                        const std::vector<double>* gain1,
                        const std::vector<std::uint32_t>* tie_rank) {
  const double dead = -std::numeric_limits<double>::infinity();
  std::size_t best = gain0.size();
  for (std::size_t i = 0; i < gain0.size(); ++i) {
    if (gain0[i] == dead) continue;
    if (best == gain0.size()) {
      best = i;
      continue;
    }
    const double a1 = gain1 == nullptr ? 0.0 : (*gain1)[i];
    const double b1 = gain1 == nullptr ? 0.0 : (*gain1)[best];
    const std::uint32_t ra = tie_rank == nullptr ? 0 : (*tie_rank)[i];
    const std::uint32_t rb = tie_rank == nullptr ? 0 : (*tie_rank)[best];
    if (gain0[i] > gain0[best] ||
        (gain0[i] == gain0[best] &&
         (a1 > b1 || (a1 == b1 && ra < rb)))) {
      best = i;
    }
  }
  return best;
}

/// One ArgmaxGains input: gains drawn from `distinct` values (few values =
/// heavy ties), each entry dead with probability `dead_share`.
struct ArgmaxInput {
  std::vector<double> gain0;
  std::vector<double> gain1;
  std::vector<std::uint32_t> tie_rank;

  ArgmaxInput(std::size_t n, std::uint64_t distinct, double dead_share,
              std::uint64_t seed) {
    util::Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
      gain0.push_back(rng.NextBernoulli(dead_share)
                          ? -std::numeric_limits<double>::infinity()
                          : static_cast<double>(rng.NextBounded(distinct)));
      gain1.push_back(static_cast<double>(rng.NextBounded(distinct)));
      tie_rank.push_back(static_cast<std::uint32_t>(i));
    }
    rng.Shuffle(tie_rank);
  }
};

/// Runs every key combination under both variants against NaiveArgmax.
void ExpectArgmaxAgrees(const ArgmaxInput& in, const std::string& what) {
  for (const bool with_gain1 : {false, true}) {
    for (const bool with_rank : {false, true}) {
      const std::size_t expected =
          NaiveArgmax(in.gain0, with_gain1 ? &in.gain1 : nullptr,
                      with_rank ? &in.tie_rank : nullptr);
      for (Variant variant : {Variant::kScalar, Variant::kAvx2}) {
        ForceVariant(variant);
        EXPECT_EQ(ArgmaxGains(in.gain0, with_gain1 ? in.gain1.data() : nullptr,
                              with_rank ? in.tie_rank.data() : nullptr),
                  expected)
            << what << " gain1=" << with_gain1 << " rank=" << with_rank
            << " variant=" << VariantName(variant);
      }
    }
  }
}

TEST(ArgmaxGainsTest, VariantsAgreeAcrossLengthsTiesAndSentinels) {
  VariantGuard guard;
  // Lengths cover the empty array, sub-vector tails and several full
  // vector blocks; 3 distinct values make ties the rule, not the
  // exception.
  for (std::size_t n = 0; n <= 67; ++n) {
    for (const double dead_share : {0.0, 0.5, 1.0}) {
      for (const std::uint64_t distinct : {1u, 3u, 1000u}) {
        const ArgmaxInput in(n, distinct, dead_share, 1000 * n + distinct);
        ExpectArgmaxAgrees(in, "n=" + std::to_string(n) +
                                   " dead=" + std::to_string(dead_share) +
                                   " distinct=" + std::to_string(distinct));
      }
    }
  }
}

TEST(ArgmaxGainsTest, AllDeadOrEmptyReturnsSize) {
  VariantGuard guard;
  const std::vector<double> empty;
  const std::vector<double> dead(13, -std::numeric_limits<double>::infinity());
  const std::vector<double> gain1(13, 5.0);
  for (Variant variant : {Variant::kScalar, Variant::kAvx2}) {
    ForceVariant(variant);
    EXPECT_EQ(ArgmaxGains(empty, nullptr, nullptr), 0u);
    EXPECT_EQ(ArgmaxGains(dead, nullptr, nullptr), dead.size());
    // A live-looking gain1 does not revive a dead gain0.
    EXPECT_EQ(ArgmaxGains(dead, gain1.data(), nullptr), dead.size());
  }
}

TEST(ArgmaxGainsTest, SingleLiveUserWinsAtEveryPosition) {
  VariantGuard guard;
  const double kDead = -std::numeric_limits<double>::infinity();
  for (std::size_t n : {1u, 4u, 8u, 9u, 33u}) {
    for (std::size_t live = 0; live < n; ++live) {
      std::vector<double> gain0(n, kDead);
      gain0[live] = 0.0;  // a zero gain still beats every dead entry
      std::vector<double> gain1(n, 1.0);
      std::vector<std::uint32_t> rank(n, 0);
      for (Variant variant : {Variant::kScalar, Variant::kAvx2}) {
        ForceVariant(variant);
        EXPECT_EQ(ArgmaxGains(gain0, nullptr, nullptr), live);
        EXPECT_EQ(ArgmaxGains(gain0, gain1.data(), rank.data()), live);
      }
    }
  }
}

TEST(ArgmaxGainsTest, KeysBreakTiesInOrder) {
  VariantGuard guard;
  //              index:  0    1    2    3    4    5    6    7    8
  const std::vector<double> gain0 = {1, 7, 7, 7, 7, 2, 7, 0, 7};
  const std::vector<double> gain1 = {9, 1, 3, 3, 2, 9, 3, 9, 3};
  const std::vector<std::uint32_t> rank = {0, 1, 8, 6, 2, 3, 5, 4, 7};
  for (Variant variant : {Variant::kScalar, Variant::kAvx2}) {
    ForceVariant(variant);
    EXPECT_EQ(ArgmaxGains(gain0, nullptr, nullptr), 1u);  // first 7
    EXPECT_EQ(ArgmaxGains(gain0, gain1.data(), nullptr), 2u);  // first 7/3
    EXPECT_EQ(ArgmaxGains(gain0, gain1.data(), rank.data()), 6u);  // rank 5
    EXPECT_EQ(ArgmaxGains(gain0, nullptr, rank.data()), 1u);  // rank 1
  }
}

TEST(OverreadContractTest, MaxIdAtBufferEdgeIsSafe) {
  VariantGuard guard;
  // Every id is the last addressable flag byte, so the AVX2 gather reads
  // exactly kFlagPadding bytes past it — the contract's worst case.
  const std::size_t universe = 41;
  std::vector<std::uint32_t> ids(16, static_cast<std::uint32_t>(universe - 1));
  std::vector<std::uint8_t> flags(universe + kFlagPadding, 0);
  flags[universe - 1] = 1;
  for (Variant variant : {Variant::kScalar, Variant::kAvx2}) {
    ForceVariant(variant);
    EXPECT_EQ(CountAlive(ids, flags.data()), ids.size());
  }
}

}  // namespace
}  // namespace podium::kernels
