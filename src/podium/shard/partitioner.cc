#include "podium/shard/partitioner.h"

#include <string>
#include <utility>

#include "podium/telemetry/phase.h"
#include "podium/util/thread_pool.h"

namespace podium::shard {

namespace {

/// Chunk grain for loops over users (profiles are small; a few hundred
/// users amortize dispatch).
constexpr std::size_t kUserGrain = 1024;

/// SplitMix64 finalizer — a strong, cheap bit mixer. Plain arithmetic on
/// the key, so shard assignment is a pure function of the id being
/// hashed (never of thread count or iteration order).
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The property with the highest score in u's profile, ties by lowest
/// property id; kInvalidProperty for empty profiles.
PropertyId SalientProperty(const UserProfile& profile) {
  PropertyId best = kInvalidProperty;
  double best_score = -1.0;
  for (const PropertyScore& entry : profile.entries()) {
    if (entry.score > best_score) {
      best_score = entry.score;
      best = entry.property;
    }
  }
  return best;
}

}  // namespace

std::string_view PartitionStrategyName(PartitionStrategy strategy) {
  switch (strategy) {
    case PartitionStrategy::kHashUsers:
      return "hash";
    case PartitionStrategy::kGroupAffine:
      return "group-affine";
  }
  return "unknown";
}

Result<PartitionStrategy> ParsePartitionStrategy(std::string_view name) {
  if (name == "hash") return PartitionStrategy::kHashUsers;
  if (name == "group-affine" || name == "group_affine") {
    return PartitionStrategy::kGroupAffine;
  }
  return Status::InvalidArgument("unknown partition strategy: " +
                                 std::string(name));
}

Result<PartitionPlan> Partitioner::Partition(
    const ProfileRepository& repository, const ShardOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  telemetry::Span span("shard.partition");

  const std::size_t num_users = repository.user_count();
  const std::size_t k = options.num_shards;
  PartitionPlan plan;
  plan.num_shards = k;
  plan.strategy = options.strategy;
  plan.users.resize(k);

  // Chunked over users into per-chunk shard buckets, merged per shard in
  // chunk order — each shard's list comes out strictly ascending.
  const util::ChunkPlan user_plan = util::PlanChunks(num_users, kUserGrain);
  std::vector<std::vector<std::vector<UserId>>> chunk_buckets(
      user_plan.num_chunks);
  util::ParallelFor(
      "shard.partition.assign", num_users,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        auto& local = chunk_buckets[chunk];
        local.resize(k);
        for (UserId u = begin; u < end; ++u) {
          std::uint64_t key = u;
          if (options.strategy == PartitionStrategy::kGroupAffine) {
            const PropertyId salient = SalientProperty(repository.user(u));
            if (salient != kInvalidProperty) key = salient;
          }
          local[Mix64(key) % k].push_back(u);
        }
      },
      kUserGrain);
  util::ParallelFor(
      "shard.partition.gather", k,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t s = begin; s < end; ++s) {
          std::size_t total = 0;
          for (const auto& local : chunk_buckets) total += local[s].size();
          plan.users[s].reserve(total);
          for (const auto& local : chunk_buckets) {
            plan.users[s].insert(plan.users[s].end(), local[s].begin(),
                                 local[s].end());
          }
        }
      },
      1);
  return plan;
}

}  // namespace podium::shard
