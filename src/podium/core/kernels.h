#ifndef PODIUM_CORE_KERNELS_H_
#define PODIUM_CORE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string_view>

namespace podium::kernels {

/// The inner loops of Algorithm 1's hot path — retirement counting over
/// a group's member span, tier-aware marginal-gain accumulation over a
/// user's group span, and the per-round argmax over the gain arrays — as
/// explicit kernels with a scalar variant and an AVX2 variant, selected
/// once per process by runtime CPU dispatch.
///
/// ## Byte-identity contract (DESIGN.md §12)
///
/// Selections must stay byte-identical across variants, so every kernel
/// is either integer-only (CountAlive, the count in RetireSpan),
/// comparison-only (ArgmaxGains) or floating-point with provably
/// order-independent arithmetic:
///
///  * RetireSpan subtracts `weight * flag` element-wise at distinct
///    addresses — no reassociation exists, and `x - 0.0 == x` bitwise for
///    the gains the greedy maintains (non-negative, or the -inf sentinel
///    of a dead user). It runs the branchless
///    scalar loop on every variant: the update stores element-wise
///    regardless (AVX2 has no scatter), and a flag gather per 8 lanes
///    measures ~2x slower than 8 pipelined byte loads once the stores are
///    paid either way.
///  * AccumulateTieredGains reassociates its sum ONLY when the caller
///    passes `allow_reassociation` — which callers take from
///    ExactUnderReassociation over the weights (Iden and LBS always
///    qualify; weight-noise runs do not). Integer-valued double sums below
///    2^53 are exact in any association order.
///
/// ## Overread contract
///
/// The AVX2 flag gathers load 4 bytes per lane from `flags + id`, so a
/// flags buffer must keep 3 readable bytes past its highest addressable
/// index. util::Arena guarantees this for every span it hands out
/// (kGuardBytes); plain vectors passed to these kernels must be padded by
/// the caller (see kFlagPadding).
inline constexpr std::size_t kFlagPadding = 3;

enum class Variant : std::uint8_t {
  kScalar,
  kAvx2,
};

std::string_view VariantName(Variant variant);

/// The variant the dispatcher would use right now: a ForceVariant()
/// override if one is set, else PODIUM_FORCE_SCALAR=1 in the environment
/// (read once), else AVX2 when the CPU supports it, else scalar.
Variant ActiveVariant();

/// True when this build/CPU can execute the AVX2 variants at all.
bool Avx2Available();

/// Test hook: pins the dispatched variant (nullopt restores automatic
/// detection). Forcing kAvx2 on a CPU without AVX2 is ignored. Not
/// thread-safe against in-flight kernels; call between selections, as the
/// differential sweep does.
void ForceVariant(std::optional<Variant> variant);

/// Retirement counting: the number of ids whose byte flag is set, i.e.
/// the still-alive members of a group span. flags needs kFlagPadding
/// readable bytes past the largest id.
std::size_t CountAlive(std::span<const std::uint32_t> ids,
                       const std::uint8_t* flags);

/// Link retirement: for every id, `gains[id] -= weight * flags[id]`
/// (a no-op for dead members, bit-identical to skipping them). Returns
/// the number of alive ids — the retired-link count the telemetry
/// reports. Branchless scalar under every variant (see the byte-identity
/// contract above for why SIMD loses here). flags needs kFlagPadding
/// readable bytes past the largest id.
std::uint32_t RetireSpan(std::span<const std::uint32_t> ids,
                         const std::uint8_t* flags, double* gains,
                         double weight);

/// True when every weight is a non-negative integral double and the grand
/// total stays below 2^52: integer-valued double sums under 2^53 are exact
/// in every association order, so AccumulateTieredGains may reassociate
/// and still match the scalar left fold bit for bit. Iden (all 1.0) and
/// LBS (group sizes) always qualify; weight-noise runs never do.
bool ExactUnderReassociation(std::span<const double> weights);

/// Tier-aware marginal-gain accumulation (Line 2 of Algorithm 1): sums
/// `tier0_weights[id]` into *gain0 and `tier1_weights[id]` into *gain1
/// over the id span. The caller pre-splits weights by tier (ignored tiers
/// get 0.0 in both arrays, which adds exactly nothing). Passing
/// tier1_weights == nullptr skips the second accumulation entirely (base
/// instances have no tier-1 groups). With allow_reassociation false the
/// sum runs strictly in span order on every variant.
void AccumulateTieredGains(std::span<const std::uint32_t> ids,
                           const double* tier0_weights,
                           const double* tier1_weights,
                           bool allow_reassociation, double* gain0,
                           double* gain1);

/// The dead sentinel: the gain0 of a user who cannot be chosen (already
/// selected, or outside the candidate pool). ArgmaxGains never returns
/// such an entry, and RetireSpan leaves it unchanged (its flag is 0, and
/// -inf - 0.0 == -inf).
inline constexpr double kDeadGain = -std::numeric_limits<double>::infinity();

/// Lexicographic argmax (Line 5 of Algorithm 1): the index i with the
/// largest (gain0[i], gain1[i]), ties going to the smaller tie_rank[i] and
/// then to the smaller i. A null gain1 counts as all zeros and a null
/// tie_rank as the index itself, so base runs with ascending-id ties read
/// one array. Entries with gain0 == kDeadGain never win; returns
/// gain0.size() when every entry is dead. gain0/gain1 must hold no NaN,
/// and gain1 no +inf. Every variant returns the same index: the keys are
/// only compared, never combined.
std::size_t ArgmaxGains(std::span<const double> gain0, const double* gain1,
                        const std::uint32_t* tie_rank);

/// Software prefetch over [address, address + bytes), one request per
/// cache line, capped so a pathological span cannot flood the load
/// queue. Used on the chosen user's adjacency span before the retirement
/// walk reads it.
inline void PrefetchRange(const void* address, std::size_t bytes) {
#if defined(__GNUC__) || defined(__clang__)
  constexpr std::size_t kLine = 64;
  constexpr std::size_t kMaxLines = 16;
  const char* p = static_cast<const char*>(address);
  const std::size_t lines = (bytes + kLine - 1) / kLine;
  for (std::size_t i = 0; i < lines && i < kMaxLines; ++i) {
    __builtin_prefetch(p + i * kLine, /*rw=*/0, /*locality=*/3);
  }
#else
  (void)address;
  (void)bytes;
#endif
}

}  // namespace podium::kernels

#endif  // PODIUM_CORE_KERNELS_H_
