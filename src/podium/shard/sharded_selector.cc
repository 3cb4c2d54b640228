#include "podium/shard/sharded_selector.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "podium/telemetry/phase.h"
#include "podium/telemetry/telemetry.h"
#include "podium/util/stopwatch.h"
#include "podium/util/thread_pool.h"

namespace podium::shard {

namespace {

/// Per-shard gauges stay bounded-cardinality: beyond this many shards the
/// labeled pool-size gauges are skipped (aggregate counters remain).
constexpr std::size_t kMaxLabeledShards = 32;

/// One merge-round candidate: a user from some shard's pool. Sorted by
/// ascending global id so the argmax scan's first-strictly-greater rule
/// breaks ties toward the lowest global id — the same deterministic
/// tie-break as the single-snapshot greedy.
struct Candidate {
  UserId global = 0;
  std::uint32_t shard = 0;
  UserId local = 0;
};

}  // namespace

Result<ShardedSelection> ShardedSelector::Select(
    const ShardedSnapshot& snapshot, std::size_t budget) const {
  if (budget == 0) {
    return Status::InvalidArgument("budget must be positive");
  }
  telemetry::Span select_span("shard.select");
  const std::size_t k = snapshot.shard_count();

  ShardedSelection result;
  result.pool_sizes.assign(k, 0);
  result.shard_seconds.assign(k, 0.0);

  // Round 1: independent greedy per shard over the shard's instance —
  // which carries the GLOBAL weights/coverage — for a candidate pool of
  // max(pool_factor·B, B) users. Pool ⊇ the shard's budget-B greedy
  // selection because greedy prefixes are selection-consistent.
  // The product saturates: B comes from the client, and a wrapped
  // pool_factor·B would silently shrink the pools.
  const std::size_t pool_factor = snapshot.options().pool_factor;
  const std::size_t pool_budget =
      pool_factor > 1 &&
              budget > std::numeric_limits<std::size_t>::max() / pool_factor
          ? std::numeric_limits<std::size_t>::max()
          : std::max(pool_factor * budget, budget);
  telemetry::TraceContext* trace = telemetry::CurrentTrace();
  const double fanout_start =
      trace == nullptr ? 0.0 : trace->ElapsedSeconds();
  std::vector<Selection> pools(k);
  std::vector<Status> errors(k);
  util::ParallelFor(
      "shard.select.fanout", k,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t s = begin; s < end; ++s) {
          util::Stopwatch watch;
          const ShardSnapshot& shard = snapshot.shard(s);
          if (shard.user_count() > 0) {
            GreedyOptions options;
            options.mode = mode_;
            Result<Selection> pool = GreedySelector(std::move(options))
                                         .Select(shard.instance, pool_budget);
            if (pool.ok()) {
              pools[s] = std::move(pool).value();
            } else {
              errors[s] = pool.status();
            }
          }
          result.shard_seconds[s] = watch.ElapsedSeconds();
        }
      },
      1);
  for (std::size_t s = 0; s < k; ++s) {
    if (!errors[s].ok()) return errors[s];
    result.pool_sizes[s] = pools[s].users.size();
    if (trace != nullptr) {
      trace->AddCompletedSpan("shard.round1." + std::to_string(s),
                              fanout_start, result.shard_seconds[s]);
    }
  }

  // Union the pools, sorted by ascending global id.
  std::vector<Candidate> candidates;
  for (std::size_t s = 0; s < k; ++s) {
    const ShardSnapshot& shard = snapshot.shard(s);
    for (UserId local : pools[s].users) {
      candidates.push_back(Candidate{shard.global_ids[local],
                                     static_cast<std::uint32_t>(s), local});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.global < b.global;
            });
  result.candidate_count = candidates.size();

  // Round 2: one exact greedy over the union, against the global
  // weights/coverage. Candidate adjacency comes from each candidate's
  // shard-local CSR (whose group ids ARE the global ids); gains are
  // maintained by retirement-style decrements — exact, because Iden/LBS
  // weights are integers and every partial sum stays below 2^52.
  util::Stopwatch merge_watch;
  {
    telemetry::Span merge_span("shard.merge");
    const std::vector<double>& weights = snapshot.weights();
    std::vector<std::uint32_t> remaining = snapshot.coverage();
    const std::size_t num_groups = remaining.size();

    const std::size_t n = candidates.size();
    std::vector<double> gain(n, 0.0);
    std::vector<std::uint8_t> alive(n, 1);
    std::vector<std::vector<std::uint32_t>> candidates_of_group(num_groups);
    for (std::size_t i = 0; i < n; ++i) {
      const ShardSnapshot& shard = snapshot.shard(candidates[i].shard);
      for (GroupId g : shard.instance.groups().groups_of(candidates[i].local)) {
        gain[i] += weights[g];
        candidates_of_group[g].push_back(static_cast<std::uint32_t>(i));
      }
    }

    std::vector<std::uint32_t> selected_per_group(num_groups, 0);
    const std::size_t rounds = std::min(budget, n);
    result.merged.users.reserve(rounds);
    for (std::size_t round = 0; round < rounds; ++round) {
      // Plain argmax scan (the union is small: ≤ K·pool_factor·B). First
      // strictly-greater wins, so ties go to the lowest global id.
      std::size_t best = n;
      for (std::size_t i = 0; i < n; ++i) {
        if (!alive[i]) continue;
        if (best == n || gain[i] > gain[best]) best = i;
      }
      alive[best] = 0;
      result.merged.users.push_back(candidates[best].global);

      const ShardSnapshot& shard = snapshot.shard(candidates[best].shard);
      for (GroupId g :
           shard.instance.groups().groups_of(candidates[best].local)) {
        ++selected_per_group[g];
        if (remaining[g] == 0) continue;
        if (--remaining[g] == 0) {
          // Group satisfied: retire its weight from every live candidate.
          for (std::uint32_t j : candidates_of_group[g]) {
            if (alive[j]) gain[j] -= weights[g];
          }
        }
      }
    }

    // Global score, summed in ascending group order — the same integer
    // TotalScore computes over the unsharded instance for this set.
    const std::vector<std::uint32_t>& coverage = snapshot.coverage();
    double score = 0.0;
    for (GroupId g = 0; g < num_groups; ++g) {
      score += weights[g] *
               static_cast<double>(std::min(selected_per_group[g],
                                            coverage[g]));
    }
    result.merged.score = score;
  }
  result.merge_seconds = merge_watch.ElapsedSeconds();

  if (telemetry::Enabled()) {
    auto& registry = telemetry::MetricsRegistry::Global();
    registry.counter("shard.selects").Add();
    registry.counter("shard.merge_candidates")
        .Add(static_cast<std::uint64_t>(result.candidate_count));
    auto& skew = registry.histogram("shard.round1_seconds");
    for (std::size_t s = 0; s < k; ++s) {
      skew.Observe(result.shard_seconds[s]);
      if (k <= kMaxLabeledShards) {
        registry
            .gauge("shard.pool_users{shard=\"" + std::to_string(s) + "\"}")
            .Set(static_cast<double>(result.pool_sizes[s]));
      }
    }
  }
  return result;
}

}  // namespace podium::shard
