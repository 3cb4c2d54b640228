#include "podium/core/greedy.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "podium/core/kernels.h"
#include "podium/core/score.h"
#include "podium/telemetry/phase.h"
#include "podium/telemetry/telemetry.h"
#include "podium/telemetry/trace.h"
#include "podium/util/arena.h"
#include "podium/util/rng.h"
#include "podium/util/thread_pool.h"

namespace podium {

namespace {

/// Buffers per-round trace events and data-structure counters for one
/// Select() run, flushing to the global sinks once at the end — the hot
/// loop touches only locals, so the enabled-mode overhead is a handful of
/// integer increments per round.
struct GreedyRunStats {
  bool enabled = false;
  std::vector<telemetry::GreedyRoundEvent> events;
  std::uint64_t retired_links = 0;
  std::uint64_t retired_groups = 0;

  /// `rounds` is the run's round count, min(B, |pool|): the client picks B,
  /// so sizing the buffer by B alone would let one request reserve
  /// arbitrary memory.
  explicit GreedyRunStats(std::size_t rounds)
      : enabled(telemetry::Enabled()) {
    if (enabled) events.reserve(rounds);
  }

  void Flush() {
    if (!enabled) return;
    const std::uint32_t run = telemetry::GreedyTrace::NextRunId();
    for (telemetry::GreedyRoundEvent& event : events) event.run = run;
    telemetry::GreedyTrace::Record(events);
    auto& registry = telemetry::MetricsRegistry::Global();
    registry.counter("greedy.runs").Add();
    registry.counter("greedy.rounds").Add(events.size());
    registry.counter("greedy.retired_links").Add(retired_links);
    registry.counter("greedy.retired_groups").Add(retired_groups);
  }
};

/// Tier count used by the scalar path: tier 0 ("priority coverage") and
/// tier 1 ("standard coverage"). Base instances use tier 0 only.
constexpr std::uint8_t kIgnoredTier = 2;

/// Grain for loops chunked over the candidate pool during initialization.
constexpr std::size_t kPoolGrain = 512;

/// The candidate pool of one run: every user (`ids` empty) or the
/// deduplicated restriction 𝒰' of Def. 6.3.
struct CandidatePool {
  std::vector<UserId> ids;
  std::size_t num_users = 0;

  bool full() const { return ids.empty(); }
  std::size_t size() const { return full() ? num_users : ids.size(); }
  UserId at(std::size_t i) const {
    return full() ? static_cast<UserId>(i) : ids[i];
  }
};

// Per-run greedy state as structure-of-arrays in one 64-byte-aligned
// arena block: parallel gain arrays per tier (gain0/gain1 instead of a
// vector of per-user pairs; gain1 only when some group is in tier 1),
// per-group remaining counts and dead flags, byte in-pool flags for the
// retirement kernel, and the weights pre-split by tier (w0/w1 carry 0.0
// for groups of any other tier, which accumulates as an exact no-op).
// The arena's guard bytes license the AVX2 flag gathers past the last
// user id.
struct SoaState {
  util::Arena arena;
  std::span<double> gain0;                // per user, tier-0 marginal gain
  std::span<double> gain1;                // per user, tier-1 marginal gain
  std::span<std::uint32_t> remaining;     // per group: cov(G) minus selected
  std::span<std::uint8_t> group_dead;     // remaining hit zero
  std::span<std::uint8_t> in_pool;        // per user, byte flag for kernels
  std::span<double> w0;                   // per group: weight if tier 0
  std::span<double> w1;                   // per group: weight if tier 1

  SoaState(std::size_t num_users, std::size_t num_groups, bool has_tier1)
      : arena(util::Arena::BytesFor<double>(num_users) * (has_tier1 ? 2 : 1) +
              util::Arena::BytesFor<std::uint32_t>(num_groups) +
              util::Arena::BytesFor<std::uint8_t>(num_groups) +
              util::Arena::BytesFor<std::uint8_t>(num_users) +
              util::Arena::BytesFor<double>(num_groups) * 2) {
    gain0 = arena.AllocateSpan<double>(num_users);
    if (has_tier1) gain1 = arena.AllocateSpan<double>(num_users);
    remaining = arena.AllocateSpan<std::uint32_t>(num_groups);
    group_dead = arena.AllocateSpan<std::uint8_t>(num_groups);
    in_pool = arena.AllocateSpan<std::uint8_t>(num_users);
    w0 = arena.AllocateSpan<double>(num_groups);
    w1 = arena.AllocateSpan<double>(num_groups);
  }
};

/// Line 2 of Algorithm 1 for one run: marg_{u,∅} per pool user, -inf for
/// everyone else. A base run (every group in tier 0, unperturbed weights)
/// copies the instance's once-computed gains; any other run accumulates
/// them per tier over the pre-split weight arrays (groups of other tiers
/// contribute an exact +0.0).
void InitGains(const DiversificationInstance& instance,
               const CandidatePool& pool,
               const std::vector<std::uint8_t>& tiers,
               const std::vector<double>& weights, bool base_run,
               SoaState& state) {
  if (base_run) {
    const std::vector<double>& line_two = instance.LineTwoGains();
    if (pool.full()) {
      std::copy(line_two.begin(), line_two.end(), state.gain0.begin());
    } else {
      std::fill(state.gain0.begin(), state.gain0.end(), kernels::kDeadGain);
      for (UserId u : pool.ids) state.gain0[u] = line_two[u];
    }
    return;
  }
  // Arena spans start at +0.0, the accumulation's starting value; only
  // users outside a restricted pool need the sentinel.
  if (!pool.full()) {
    std::fill(state.gain0.begin(), state.gain0.end(), kernels::kDeadGain);
    for (UserId u : pool.ids) state.gain0[u] = 0.0;
  }
  for (GroupId g = 0; g < tiers.size(); ++g) {
    state.w0[g] = tiers[g] == 0 ? weights[g] : 0.0;
    state.w1[g] = tiers[g] == 1 ? weights[g] : 0.0;
  }
  const GroupIndex& groups = instance.groups();
  const bool exact_reassoc = kernels::ExactUnderReassociation(weights);
  const double* w1_or_null = state.gain1.empty() ? nullptr : state.w1.data();
  double* gain1 = state.gain1.empty() ? nullptr : state.gain1.data();
  // Pool users are distinct (Select() dedupes), so chunks write disjoint
  // gain slots.
  util::ParallelFor(
      "greedy.init_gains", pool.size(),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          const UserId u = pool.at(i);
          kernels::AccumulateTieredGains(
              groups.groups_of(u), state.w0.data(), w1_or_null, exact_reassoc,
              &state.gain0[u], gain1 == nullptr ? nullptr : &gain1[u]);
        }
      },
      kPoolGrain);
}

Selection RunScalarGreedy(const DiversificationInstance& instance,
                          std::size_t budget, const CandidatePool& pool,
                          const std::vector<std::uint8_t>& tiers,
                          const std::vector<std::uint32_t>& tie_rank,
                          const std::vector<double>& weights,
                          bool perturbed) {
  const GroupIndex& groups = instance.groups();
  const std::size_t num_users = groups.user_count();
  const std::size_t num_groups = groups.group_count();

  // Phase accounting: "greedy.init" covers the marginal-gain setup,
  // "greedy.rounds" the selection loop, "greedy.score" the final scoring.
  std::optional<telemetry::Span> phase;
  phase.emplace("greedy.init");
  bool has_tier1 = false;
  bool all_tier0 = true;
  for (const std::uint8_t tier : tiers) {
    has_tier1 |= tier == 1;
    all_tier0 &= tier == 0;
  }
  SoaState state(num_users, num_groups, has_tier1);
  std::copy(instance.coverage().begin(), instance.coverage().end(),
            state.remaining.begin());
  if (pool.full()) {
    std::fill(state.in_pool.begin(), state.in_pool.end(), 1);
  } else {
    for (UserId u : pool.ids) state.in_pool[u] = 1;
  }
  InitGains(instance, pool, tiers, weights, all_tier0 && !perturbed, state);

  phase.emplace("greedy.rounds");
  const std::size_t rounds = std::min(budget, pool.size());
  const double* gain1_or_null = has_tier1 ? state.gain1.data() : nullptr;
  const std::uint32_t* rank_or_null =
      tie_rank.empty() ? nullptr : tie_rank.data();
  GreedyRunStats stats(rounds);
  Selection selection;
  selection.users.reserve(rounds);
  for (std::size_t round = 0; round < rounds; ++round) {
    // Line 5: maxUser = argmax marg, by (gain0, gain1, tie_rank) — a
    // strict total order over distinct pool users. Every user outside the
    // remaining pool holds gain0 == -inf and cannot win.
    const std::size_t best =
        kernels::ArgmaxGains(state.gain0, gain1_or_null, rank_or_null);
    if (best == num_users) break;  // unreachable: rounds <= |pool|
    const auto chosen = static_cast<UserId>(best);

    // Lines 6-10: move the user, decrement coverage, retire dead groups
    // and charge their weight back from other members' marginal gains.
    const double chosen_gain0 = state.gain0[chosen];
    const double chosen_gain1 = has_tier1 ? state.gain1[chosen] : 0.0;
    selection.users.push_back(chosen);
    state.in_pool[chosen] = 0;
    state.gain0[chosen] = kernels::kDeadGain;
    const auto adjacent = groups.groups_of(chosen);
    kernels::PrefetchRange(adjacent.data(), adjacent.size() * sizeof(GroupId));
    std::uint32_t round_retired_links = 0;
    std::uint32_t round_retired_groups = 0;
    for (GroupId g : adjacent) {
      const std::uint8_t tier = tiers[g];
      if (tier >= kIgnoredTier || state.group_dead[g]) continue;
      if (--state.remaining[g] > 0) continue;
      state.group_dead[g] = 1;
      ++round_retired_groups;
      double* gains = tier == 0 ? state.gain0.data() : state.gain1.data();
      round_retired_links += kernels::RetireSpan(
          groups.members(g), state.in_pool.data(), gains, weights[g]);
    }
    if (stats.enabled) {
      telemetry::GreedyRoundEvent event;
      event.round = static_cast<std::uint32_t>(round);
      event.user = chosen;
      event.gain = chosen_gain0;
      event.gain_secondary = chosen_gain1;
      event.retired_links = round_retired_links;
      event.retired_groups = round_retired_groups;
      stats.events.push_back(event);
      stats.retired_links += round_retired_links;
      stats.retired_groups += round_retired_groups;
    }
  }
  stats.Flush();
  phase.emplace("greedy.score");
  selection.score = TotalScore(instance, selection.users);
  return selection;
}

/// EBS gains: the set of ord-ranks of alive groups containing the user,
/// kept sorted descending. Because ord is a permutation and the base B+1
/// is >= 2, numeric comparison of Σ (B+1)^rank coincides with
/// lexicographic comparison of the descending rank sequences (with the
/// longer sequence winning on a tied prefix).
struct EbsGain {
  std::vector<std::uint32_t> ranks;  // descending

  void Remove(std::uint32_t rank) {
    auto it = std::lower_bound(ranks.begin(), ranks.end(), rank,
                               std::greater<std::uint32_t>());
    if (it != ranks.end() && *it == rank) ranks.erase(it);
  }
};

bool EbsBetter(const EbsGain& a, const EbsGain& b) {
  const std::size_t common = std::min(a.ranks.size(), b.ranks.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (a.ranks[i] != b.ranks[i]) return a.ranks[i] > b.ranks[i];
  }
  return a.ranks.size() > b.ranks.size();
}

Selection RunEbsGreedy(const DiversificationInstance& instance,
                       std::size_t budget, const std::vector<UserId>& pool,
                       const std::vector<std::uint32_t>& tie_rank) {
  const GroupIndex& groups = instance.groups();
  const std::size_t num_users = groups.user_count();

  std::optional<telemetry::Span> phase;
  phase.emplace("greedy.init");
  std::vector<EbsGain> gains(num_users);
  std::vector<std::uint32_t> remaining = instance.coverage();
  std::vector<std::uint8_t> group_dead(groups.group_count(), 0);
  std::vector<std::uint8_t> in_pool(num_users, 0);
  for (UserId u : pool) in_pool[u] = 1;
  // Pool users are distinct (Select() dedupes), so chunks build disjoint
  // rank sets.
  util::ParallelFor(
      "greedy.init_gains", pool.size(),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          const UserId u = pool[i];
          auto& ranks = gains[u].ranks;
          for (GroupId g : groups.groups_of(u)) {
            ranks.push_back(instance.weights().rank(g));
          }
          std::sort(ranks.begin(), ranks.end(), std::greater<std::uint32_t>());
        }
      },
      kPoolGrain);

  phase.emplace("greedy.rounds");
  GreedyRunStats stats(std::min(budget, pool.size()));
  Selection selection;
  std::size_t pool_left = pool.size();
  for (std::size_t round = 0; round < budget && pool_left > 0; ++round) {
    UserId chosen = kInvalidUser;
    for (UserId u : pool) {
      if (!in_pool[u]) continue;
      if (chosen == kInvalidUser || EbsBetter(gains[u], gains[chosen]) ||
          (!EbsBetter(gains[chosen], gains[u]) &&
           tie_rank[u] < tie_rank[chosen])) {
        chosen = u;
      }
    }
    // EBS gains are rank sets, not scalars; the traced gain is the number
    // of alive groups the chosen user still covers.
    const auto chosen_gain = static_cast<double>(gains[chosen].ranks.size());
    selection.users.push_back(chosen);
    in_pool[chosen] = 0;
    --pool_left;
    std::uint32_t round_retired_links = 0;
    std::uint32_t round_retired_groups = 0;
    for (GroupId g : groups.groups_of(chosen)) {
      if (group_dead[g]) continue;
      if (--remaining[g] > 0) continue;
      group_dead[g] = 1;
      ++round_retired_groups;
      const std::uint32_t rank = instance.weights().rank(g);
      for (UserId member : groups.members(g)) {
        if (in_pool[member]) {
          gains[member].Remove(rank);
          ++round_retired_links;
        }
      }
    }
    if (stats.enabled) {
      telemetry::GreedyRoundEvent event;
      event.round = static_cast<std::uint32_t>(round);
      event.user = chosen;
      event.gain = chosen_gain;
      event.retired_links = round_retired_links;
      event.retired_groups = round_retired_groups;
      stats.events.push_back(event);
      stats.retired_links += round_retired_links;
      stats.retired_groups += round_retired_groups;
    }
  }
  stats.Flush();
  phase.emplace("greedy.score");
  selection.score = TotalScore(instance, selection.users);
  return selection;
}

}  // namespace

Result<Selection> GreedySelector::Select(
    const DiversificationInstance& instance, std::size_t budget) const {
  telemetry::Span select_span("greedy.select");
  // "greedy.setup" covers everything before the algorithm proper: option
  // validation, candidate-pool materialization, tie-break ranks, weight
  // perturbation. Closed right before dispatching to the run loop so the
  // bench harness can separate setup from selection cost.
  std::optional<telemetry::Span> setup_span;
  setup_span.emplace("greedy.setup");
  const std::size_t num_users = instance.groups().user_count();
  const std::size_t num_groups = instance.groups().group_count();
  if (budget == 0) {
    return Status::InvalidArgument("budget must be positive");
  }
  if (!options_.group_tiers.empty() &&
      options_.group_tiers.size() != num_groups) {
    return Status::InvalidArgument(
        "group_tiers must have one entry per group");
  }

  // Candidate pool: full population unless restricted (Def. 6.3's 𝒰').
  // Duplicate entries are dropped (first occurrence wins): a repeated user
  // would otherwise accumulate its Line-2 gain twice, and the parallel
  // init relies on pool users being distinct.
  CandidatePool pool;
  pool.num_users = num_users;
  if (!options_.candidate_pool.empty()) {
    std::vector<std::uint8_t> seen(num_users, 0);
    pool.ids.reserve(options_.candidate_pool.size());
    for (UserId u : options_.candidate_pool) {
      if (u >= num_users) {
        return Status::OutOfRange("candidate pool user id out of range");
      }
      if (seen[u]) continue;
      seen[u] = 1;
      pool.ids.push_back(u);
    }
  }

  // Tie-break ranks: position in tie_break_order, else a seeded random
  // permutation (the prototype's behaviour), else ascending id — which
  // the scalar path represents as no ranks at all (the argmax kernel
  // breaks ties by index).
  std::vector<std::uint32_t> tie_rank;
  if (options_.tie_break_order.empty()) {
    if (options_.random_tie_seed.has_value()) {
      tie_rank.resize(num_users);
      for (UserId u = 0; u < num_users; ++u) tie_rank[u] = u;
      util::Rng tie_rng(*options_.random_tie_seed);
      tie_rng.Shuffle(tie_rank);
    }
  } else {
    if (options_.tie_break_order.size() != num_users) {
      return Status::InvalidArgument(
          "tie_break_order must be a permutation of all users");
    }
    tie_rank.resize(num_users);
    for (std::uint32_t pos = 0; pos < num_users; ++pos) {
      const UserId u = options_.tie_break_order[pos];
      if (u >= num_users) {
        return Status::OutOfRange("tie_break_order user id out of range");
      }
      tie_rank[u] = pos;
    }
  }

  if (instance.weight_kind() == WeightKind::kEbs) {
    if (!options_.group_tiers.empty()) {
      return Status::Unimplemented(
          "customized selection is not supported with EBS weights");
    }
    std::vector<UserId> ebs_pool = std::move(pool.ids);
    if (ebs_pool.empty()) {
      ebs_pool.resize(num_users);
      for (UserId u = 0; u < num_users; ++u) ebs_pool[u] = u;
    }
    if (tie_rank.empty()) {
      tie_rank.resize(num_users);
      for (UserId u = 0; u < num_users; ++u) tie_rank[u] = u;
    }
    setup_span.reset();
    return RunEbsGreedy(instance, budget, ebs_pool, tie_rank);
  }

  std::vector<std::uint8_t> tiers = options_.group_tiers;
  if (tiers.empty()) tiers.assign(num_groups, 0);

  // Optional weight randomization (Section 10): perturb each group weight
  // multiplicatively; the reported selection score stays under the true
  // weights (TotalScore), only the greedy's preferences are perturbed.
  std::vector<double> weights(instance.weights().scalars());
  const bool perturbed = options_.weight_noise > 0.0;
  if (perturbed) {
    if (options_.weight_noise >= 1.0) {
      return Status::InvalidArgument("weight_noise must be in [0, 1)");
    }
    util::Rng noise_rng(options_.weight_noise_seed);
    for (double& weight : weights) {
      weight *= 1.0 + options_.weight_noise * noise_rng.NextDouble(-1.0, 1.0);
    }
  }
  setup_span.reset();
  return RunScalarGreedy(instance, budget, pool, tiers, tie_rank, weights,
                         perturbed);
}

}  // namespace podium
