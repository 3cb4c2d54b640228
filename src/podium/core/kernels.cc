#include "podium/core/kernels.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PODIUM_KERNELS_X86 1
#else
#define PODIUM_KERNELS_X86 0
#endif

namespace podium::kernels {

namespace {

// ---------------------------------------------------------------------------
// Scalar variants. Branchless: the flag byte (0/1) multiplies into the
// arithmetic instead of guarding it, so the loop carries no
// data-dependent branch for the predictor to miss on half-retired spans.

std::size_t CountAliveScalar(const std::uint32_t* ids, std::size_t n,
                             const std::uint8_t* flags) {
  std::size_t alive = 0;
  for (std::size_t i = 0; i < n; ++i) alive += flags[ids[i]];
  return alive;
}

std::uint32_t RetireSpanScalar(const std::uint32_t* ids, std::size_t n,
                               const std::uint8_t* flags, double* gains,
                               double weight) {
  std::uint32_t retired = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t id = ids[i];
    const std::uint8_t flag = flags[id];
    // flag == 0 subtracts 0.0: bit-identical to not touching the gain
    // (gains are non-negative here, or -inf for dead users).
    gains[id] -= weight * static_cast<double>(flag);
    retired += flag;
  }
  return retired;
}

void AccumulateScalar(const std::uint32_t* ids, std::size_t n,
                      const double* tier0_weights,
                      const double* tier1_weights, double* gain0,
                      double* gain1) {
  // Strict span-order left fold — the reference association every other
  // variant must reproduce exactly or prove order-independent.
  double sum0 = 0.0;
  double sum1 = 0.0;
  if (tier1_weights == nullptr) {
    for (std::size_t i = 0; i < n; ++i) sum0 += tier0_weights[ids[i]];
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t id = ids[i];
      sum0 += tier0_weights[id];
      sum1 += tier1_weights[id];
    }
    *gain1 += sum1;
  }
  *gain0 += sum0;
}

/// True when entry i beats entry `best` under ArgmaxGains' order; `best`
/// == n means no live entry has been seen yet. The reference every
/// variant reproduces.
bool Beats(std::size_t i, std::size_t best, std::size_t n, const double* gain0,
           const double* gain1, const std::uint32_t* tie_rank) {
  if (gain0[i] == kDeadGain) return false;
  if (best == n) return true;
  if (gain0[i] != gain0[best]) return gain0[i] > gain0[best];
  if (gain1 != nullptr && gain1[i] != gain1[best]) {
    return gain1[i] > gain1[best];
  }
  if (tie_rank != nullptr && tie_rank[i] != tie_rank[best]) {
    return tie_rank[i] < tie_rank[best];
  }
  return i < best;
}

std::size_t ArgmaxScalar(const double* gain0, std::size_t n,
                         const double* gain1, const std::uint32_t* tie_rank) {
  std::size_t best = n;
  if (gain1 == nullptr && tie_rank == nullptr) {
    // First strictly greater wins: ties keep the smaller index, and a
    // dead entry (-inf) never exceeds the -inf starting value.
    double best0 = kDeadGain;
    for (std::size_t i = 0; i < n; ++i) {
      if (gain0[i] > best0) {
        best0 = gain0[i];
        best = i;
      }
    }
    return best;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (Beats(i, best, n, gain0, gain1, tie_rank)) best = i;
  }
  return best;
}

// ---------------------------------------------------------------------------
// AVX2 variants. Flag bytes are fetched 8 lanes at a time with a 4-byte
// gather masked down to the low byte — this is the overread the
// kFlagPadding contract exists for. Gain updates stay element-wise
// (AVX2 has no scatter), so their values match the scalar variant bit
// for bit; only the sums in AccumulateTieredGains reassociate, and the
// dispatcher only routes them here when the caller proved that exact.

#if PODIUM_KERNELS_X86

__attribute__((target("avx2"))) std::size_t CountAliveAvx2(
    const std::uint32_t* ids, std::size_t n, const std::uint8_t* flags) {
  const __m256i low_byte = _mm256_set1_epi32(0xFF);
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + i));
    const __m256i raw = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(flags), idx, 1);
    acc = _mm256_add_epi32(acc, _mm256_and_si256(raw, low_byte));
  }
  alignas(32) std::uint32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::size_t alive = 0;
  for (std::uint32_t lane : lanes) alive += lane;
  for (; i < n; ++i) alive += flags[ids[i]];
  return alive;
}

__attribute__((target("avx2"))) double HorizontalSum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

__attribute__((target("avx2"))) void AccumulateAvx2(
    const std::uint32_t* ids, std::size_t n, const double* tier0_weights,
    const double* tier1_weights, double* gain0, double* gain1) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ids + i));
    acc0 = _mm256_add_pd(acc0, _mm256_i32gather_pd(tier0_weights, idx, 8));
    if (tier1_weights != nullptr) {
      acc1 = _mm256_add_pd(acc1, _mm256_i32gather_pd(tier1_weights, idx, 8));
    }
  }
  double sum0 = HorizontalSum(acc0);
  double sum1 = HorizontalSum(acc1);
  for (; i < n; ++i) {
    sum0 += tier0_weights[ids[i]];
    if (tier1_weights != nullptr) sum1 += tier1_weights[ids[i]];
  }
  *gain0 += sum0;
  if (tier1_weights != nullptr) *gain1 += sum1;
}

/// Folds the per-lane winners (index n = none) and the scalar tail
/// [tail, n) into the overall winner under the reference order.
std::size_t FinishArgmax(const std::int64_t* lanes, std::size_t count,
                         std::size_t tail, std::size_t n, const double* gain0,
                         const double* gain1, const std::uint32_t* tie_rank) {
  std::size_t best = n;
  for (std::size_t l = 0; l < count; ++l) {
    const auto i = static_cast<std::size_t>(lanes[l]);
    if (i != n && Beats(i, best, n, gain0, gain1, tie_rank)) best = i;
  }
  for (std::size_t i = tail; i < n; ++i) {
    if (Beats(i, best, n, gain0, gain1, tie_rank)) best = i;
  }
  return best;
}

/// Base runs (no tier-1 key, ascending-id ties): each of 8 lanes keeps the
/// first strictly greater gain0 it sees and that entry's index, so a lane
/// holds the smallest index of its maximum; the fold breaks cross-lane
/// ties by index.
__attribute__((target("avx2"))) std::size_t ArgmaxGain0Avx2(
    const double* gain0, std::size_t n) {
  __m256d best_a = _mm256_set1_pd(kDeadGain);
  __m256d best_b = best_a;
  __m256i index_a = _mm256_set1_epi64x(static_cast<std::int64_t>(n));
  __m256i index_b = index_a;
  __m256i ids_a = _mm256_setr_epi64x(0, 1, 2, 3);
  __m256i ids_b = _mm256_setr_epi64x(4, 5, 6, 7);
  const __m256i step = _mm256_set1_epi64x(8);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d a = _mm256_loadu_pd(gain0 + i);
    const __m256d b = _mm256_loadu_pd(gain0 + i + 4);
    const __m256d win_a = _mm256_cmp_pd(a, best_a, _CMP_GT_OQ);
    const __m256d win_b = _mm256_cmp_pd(b, best_b, _CMP_GT_OQ);
    best_a = _mm256_blendv_pd(best_a, a, win_a);
    best_b = _mm256_blendv_pd(best_b, b, win_b);
    index_a = _mm256_castpd_si256(_mm256_blendv_pd(
        _mm256_castsi256_pd(index_a), _mm256_castsi256_pd(ids_a), win_a));
    index_b = _mm256_castpd_si256(_mm256_blendv_pd(
        _mm256_castsi256_pd(index_b), _mm256_castsi256_pd(ids_b), win_b));
    ids_a = _mm256_add_epi64(ids_a, step);
    ids_b = _mm256_add_epi64(ids_b, step);
  }
  alignas(32) std::int64_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), index_a);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 4), index_b);
  // Clear the upper register halves before the SSE fold and the SSE
  // retirement loop that follows each round. GCC 12 at -O2 emits no
  // vzeroupper ahead of this tail call, and the dirty state then made
  // every greedy round 2-4x slower (BM_GreedySelect, selbench shard).
  _mm256_zeroupper();
  return FinishArgmax(lanes, 8, i, n, gain0, nullptr, nullptr);
}

/// Four lanes of the general order's running winners: each lane keeps its
/// best (gain0, gain1, rank) triple and that entry's index.
struct LexLanes {
  __m256d best0;
  __m256d best1;
  __m256i best_rank;
  __m256i index;
};

/// A lane starts at (-inf, +inf, max): a dead entry ties on -inf but
/// cannot beat +inf on gain1, so dead entries never win.
__attribute__((target("avx2"))) LexLanes StartLexLanes(std::size_t n) {
  return LexLanes{
      _mm256_set1_pd(kDeadGain),
      _mm256_set1_pd(std::numeric_limits<double>::infinity()),
      _mm256_set1_epi64x(std::numeric_limits<std::int64_t>::max()),
      _mm256_set1_epi64x(static_cast<std::int64_t>(n))};
}

/// Folds 4 entries into `lanes`. A null key reads as zeros (gain1) or the
/// index (rank), which only grows within a lane and so never displaces an
/// equal earlier entry.
__attribute__((target("avx2"), always_inline)) inline void StepLexLanes(
    LexLanes& lanes, const double* gain0, const double* gain1,
    const std::uint32_t* tie_rank, std::size_t i, __m256i ids) {
  const __m256d g0 = _mm256_loadu_pd(gain0 + i);
  const __m256d g1 =
      gain1 != nullptr ? _mm256_loadu_pd(gain1 + i) : _mm256_setzero_pd();
  const __m256i rank =
      tie_rank != nullptr
          ? _mm256_cvtepu32_epi64(_mm_loadu_si128(
                reinterpret_cast<const __m128i*>(tie_rank + i)))
          : ids;
  const __m256d rank_wins =
      _mm256_castsi256_pd(_mm256_cmpgt_epi64(lanes.best_rank, rank));
  const __m256d gain1_wins = _mm256_or_pd(
      _mm256_cmp_pd(g1, lanes.best1, _CMP_GT_OQ),
      _mm256_and_pd(_mm256_cmp_pd(g1, lanes.best1, _CMP_EQ_OQ), rank_wins));
  const __m256d win = _mm256_or_pd(
      _mm256_cmp_pd(g0, lanes.best0, _CMP_GT_OQ),
      _mm256_and_pd(_mm256_cmp_pd(g0, lanes.best0, _CMP_EQ_OQ), gain1_wins));
  lanes.best0 = _mm256_blendv_pd(lanes.best0, g0, win);
  lanes.best1 = _mm256_blendv_pd(lanes.best1, g1, win);
  lanes.best_rank = _mm256_castpd_si256(_mm256_blendv_pd(
      _mm256_castsi256_pd(lanes.best_rank), _mm256_castsi256_pd(rank), win));
  lanes.index = _mm256_castpd_si256(_mm256_blendv_pd(
      _mm256_castsi256_pd(lanes.index), _mm256_castsi256_pd(ids), win));
}

/// General order over two independent lane sets (8 entries per step), so
/// the loop-carried compare/blend chain of one set overlaps the other's.
__attribute__((target("avx2"))) std::size_t ArgmaxLexAvx2(
    const double* gain0, std::size_t n, const double* gain1,
    const std::uint32_t* tie_rank) {
  LexLanes lanes_a = StartLexLanes(n);
  LexLanes lanes_b = StartLexLanes(n);
  __m256i ids_a = _mm256_setr_epi64x(0, 1, 2, 3);
  __m256i ids_b = _mm256_setr_epi64x(4, 5, 6, 7);
  const __m256i step = _mm256_set1_epi64x(8);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    StepLexLanes(lanes_a, gain0, gain1, tie_rank, i, ids_a);
    StepLexLanes(lanes_b, gain0, gain1, tie_rank, i + 4, ids_b);
    ids_a = _mm256_add_epi64(ids_a, step);
    ids_b = _mm256_add_epi64(ids_b, step);
  }
  alignas(32) std::int64_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), lanes_a.index);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 4), lanes_b.index);
  _mm256_zeroupper();  // see ArgmaxGain0Avx2
  return FinishArgmax(lanes, 8, i, n, gain0, gain1, tie_rank);
}

#endif  // PODIUM_KERNELS_X86

// ---------------------------------------------------------------------------
// Dispatch. Detection runs once (CPU support + the PODIUM_FORCE_SCALAR
// escape hatch); tests pin a variant via ForceVariant.

bool DetectAvx2() {
#if PODIUM_KERNELS_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Variant DetectedVariant() {
  static const Variant detected = [] {
    const char* force = std::getenv("PODIUM_FORCE_SCALAR");
    const bool force_scalar =
        force != nullptr && std::strcmp(force, "0") != 0 &&
        std::strcmp(force, "") != 0;
    if (force_scalar || !DetectAvx2()) return Variant::kScalar;
    return Variant::kAvx2;
  }();
  return detected;
}

// -1 = no override; otherwise the forced Variant value.
std::atomic<int> g_forced_variant{-1};

}  // namespace

std::string_view VariantName(Variant variant) {
  switch (variant) {
    case Variant::kScalar:
      return "scalar";
    case Variant::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool Avx2Available() { return DetectAvx2(); }

Variant ActiveVariant() {
  const int forced = g_forced_variant.load(std::memory_order_relaxed);
  if (forced >= 0) {
    const Variant variant = static_cast<Variant>(forced);
    if (variant == Variant::kAvx2 && !DetectAvx2()) return Variant::kScalar;
    return variant;
  }
  return DetectedVariant();
}

void ForceVariant(std::optional<Variant> variant) {
  g_forced_variant.store(
      variant.has_value() ? static_cast<int>(*variant) : -1,
      std::memory_order_relaxed);
}

std::size_t CountAlive(std::span<const std::uint32_t> ids,
                       const std::uint8_t* flags) {
#if PODIUM_KERNELS_X86
  if (ActiveVariant() == Variant::kAvx2) {
    return CountAliveAvx2(ids.data(), ids.size(), flags);
  }
#endif
  return CountAliveScalar(ids.data(), ids.size(), flags);
}

std::uint32_t RetireSpan(std::span<const std::uint32_t> ids,
                         const std::uint8_t* flags, double* gains,
                         double weight) {
  // Branchless scalar on every variant, by measurement: the update must
  // store element-wise regardless (AVX2 has no scatter), and one
  // high-latency flag gather per 8 lanes costs about twice what 8
  // pipelined L1 byte loads do once the stores are paid either way
  // (BM_RetireKernel vs the greedy microbenchmarks). Variants therefore
  // agree bit-for-bit here by construction.
  return RetireSpanScalar(ids.data(), ids.size(), flags, gains, weight);
}

bool ExactUnderReassociation(std::span<const double> weights) {
  constexpr double kLimit = 4503599627370496.0;  // 2^52
  double total = 0.0;
  for (double w : weights) {
    if (!(w >= 0.0) || w != std::floor(w)) return false;
    total += w;
  }
  return total < kLimit;
}

void AccumulateTieredGains(std::span<const std::uint32_t> ids,
                           const double* tier0_weights,
                           const double* tier1_weights,
                           bool allow_reassociation, double* gain0,
                           double* gain1) {
#if PODIUM_KERNELS_X86
  if (allow_reassociation && ActiveVariant() == Variant::kAvx2) {
    AccumulateAvx2(ids.data(), ids.size(), tier0_weights, tier1_weights,
                   gain0, gain1);
    return;
  }
#else
  (void)allow_reassociation;
#endif
  AccumulateScalar(ids.data(), ids.size(), tier0_weights, tier1_weights,
                   gain0, gain1);
}

std::size_t ArgmaxGains(std::span<const double> gain0, const double* gain1,
                        const std::uint32_t* tie_rank) {
#if PODIUM_KERNELS_X86
  if (ActiveVariant() == Variant::kAvx2) {
    if (gain1 == nullptr && tie_rank == nullptr) {
      return ArgmaxGain0Avx2(gain0.data(), gain0.size());
    }
    return ArgmaxLexAvx2(gain0.data(), gain0.size(), gain1, tie_rank);
  }
#endif
  return ArgmaxScalar(gain0.data(), gain0.size(), gain1, tie_rank);
}

}  // namespace podium::kernels
