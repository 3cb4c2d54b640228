#include "podium/shard/scheme.h"

#include <algorithm>
#include <utility>

#include "podium/telemetry/phase.h"
#include "podium/util/thread_pool.h"

namespace podium::shard {

namespace {

/// Same user-loop grain as GroupIndex::Build — the phases below mirror it.
constexpr std::size_t kUserGrain = 256;

}  // namespace

Result<GroupScheme> BuildGroupScheme(const ProfileRepository& repository,
                                     const GroupingOptions& options) {
  telemetry::Span span("shard.scheme");
  Result<std::unique_ptr<bucketing::Bucketizer>> bucketizer =
      bucketing::MakeBucketizer(options.bucket_method);
  if (!bucketizer.ok()) return bucketizer.status();
  if (options.max_buckets < 1) {
    return Status::InvalidArgument("max_buckets must be >= 1");
  }

  const PropertyTable& table = repository.properties();
  const std::size_t num_properties = table.size();
  const std::size_t num_users = repository.user_count();

  // Collect observed scores per property — chunked over users, per-chunk
  // slices concatenated in chunk order (ascending user id), exactly as
  // GroupIndex::Build collects them.
  const util::ChunkPlan user_plan = util::PlanChunks(num_users, kUserGrain);
  std::vector<std::vector<std::vector<double>>> chunk_scores(
      user_plan.num_chunks);
  util::ParallelFor(
      "shard.scheme.collect", num_users,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        auto& local = chunk_scores[chunk];
        local.resize(num_properties);
        for (UserId u = begin; u < end; ++u) {
          for (const PropertyScore& entry : repository.user(u).entries()) {
            local[entry.property].push_back(entry.score);
          }
        }
      },
      kUserGrain);
  std::vector<std::vector<double>> scores(num_properties);
  util::ParallelFor(
      "shard.scheme.merge", num_properties,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (PropertyId p = begin; p < end; ++p) {
          std::size_t total = 0;
          for (const auto& local : chunk_scores) total += local[p].size();
          scores[p].reserve(total);
          for (const auto& local : chunk_scores) {
            scores[p].insert(scores[p].end(), local[p].begin(),
                             local[p].end());
          }
        }
      },
      16);
  chunk_scores.clear();
  chunk_scores.shrink_to_fit();

  GroupScheme scheme;
  scheme.population = num_users;
  scheme.buckets_per_property.resize(num_properties);

  auto passes_filter = [&options, &table](PropertyId p) {
    if (options.property_filters.empty()) return true;
    const std::string& label = table.Label(p);
    for (const std::string& filter : options.property_filters) {
      if (label.find(filter) != std::string::npos) return true;
    }
    return false;
  };

  // Bucketize per property (stateless bucketizers split identically to
  // Build's per-chunk instances).
  std::vector<Status> bucket_errors(num_properties);
  util::ParallelFor(
      "shard.scheme.bucketize", num_properties,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        const auto local_bucketizer =
            bucketing::MakeBucketizer(options.bucket_method);
        for (PropertyId p = begin; p < end; ++p) {
          if (scores[p].empty() || !passes_filter(p)) continue;
          if (table.Kind(p) == PropertyKind::kBoolean) {
            scheme.buckets_per_property[p] = bucketing::FixedBooleanBuckets();
            continue;
          }
          Result<std::vector<bucketing::Bucket>> split =
              local_bucketizer.value()->Split(scores[p], options.max_buckets);
          if (!split.ok()) {
            bucket_errors[p] = split.status();
            continue;
          }
          scheme.buckets_per_property[p] = std::move(split).value();
        }
      },
      4);
  for (PropertyId p = 0; p < num_properties; ++p) {
    if (!bucket_errors[p].ok()) return bucket_errors[p];
  }

  // Provisional slots in (property, bucket) order — Build's id order.
  std::vector<std::vector<GroupId>> slot_of(num_properties);
  std::vector<GroupDef> provisional_defs;
  for (PropertyId p = 0; p < num_properties; ++p) {
    const auto& buckets = scheme.buckets_per_property[p];
    if (buckets.empty()) continue;
    slot_of[p].assign(buckets.size(), kInvalidGroup);
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (!options.include_boolean_false_groups &&
          table.Kind(p) == PropertyKind::kBoolean &&
          buckets[b].label == "false") {
        continue;
      }
      slot_of[p][b] = static_cast<GroupId>(provisional_defs.size());
      provisional_defs.push_back(
          GroupDef{p, buckets[b], MakeGroupLabel(table, p, buckets[b])});
    }
  }

  // Count members per slot — Build's assign pass with uint64 counters in
  // place of member lists, so memory stays O(groups) per chunk.
  const std::size_t num_slots = provisional_defs.size();
  std::vector<std::vector<std::uint64_t>> chunk_counts(user_plan.num_chunks);
  util::ParallelFor(
      "shard.scheme.count", num_users,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        auto& local = chunk_counts[chunk];
        local.resize(num_slots);
        for (UserId u = begin; u < end; ++u) {
          for (const PropertyScore& entry : repository.user(u).entries()) {
            const auto& buckets = scheme.buckets_per_property[entry.property];
            if (buckets.empty()) continue;
            const int b = bucketing::FindBucket(buckets, entry.score);
            if (b < 0) continue;  // unreachable for valid partitions
            const GroupId slot =
                slot_of[entry.property][static_cast<std::size_t>(b)];
            if (slot == kInvalidGroup) continue;
            ++local[slot];
          }
        }
      },
      kUserGrain);
  std::vector<std::uint64_t> slot_sizes(num_slots, 0);
  for (const auto& local : chunk_counts) {
    for (std::size_t slot = 0; slot < local.size(); ++slot) {
      slot_sizes[slot] += local[slot];
    }
  }

  // Prune exactly as Build does (empty and undersized slots drop; the
  // survivors compact in slot order) and invert slot_of into the final
  // (property, bucket) → global id map.
  const std::size_t min_size = std::max<std::size_t>(options.min_group_size, 1);
  scheme.group_of_bucket.resize(num_properties);
  for (PropertyId p = 0; p < num_properties; ++p) {
    scheme.group_of_bucket[p].assign(slot_of[p].size(), kInvalidGroup);
  }
  std::vector<GroupId> final_of_slot(num_slots, kInvalidGroup);
  for (std::size_t slot = 0; slot < num_slots; ++slot) {
    if (slot_sizes[slot] < min_size) continue;
    final_of_slot[slot] = static_cast<GroupId>(scheme.defs.size());
    scheme.defs.push_back(std::move(provisional_defs[slot]));
    scheme.global_sizes.push_back(static_cast<std::uint32_t>(slot_sizes[slot]));
  }
  for (PropertyId p = 0; p < num_properties; ++p) {
    for (std::size_t b = 0; b < slot_of[p].size(); ++b) {
      if (slot_of[p][b] == kInvalidGroup) continue;
      scheme.group_of_bucket[p][b] = final_of_slot[slot_of[p][b]];
    }
  }
  return scheme;
}

}  // namespace podium::shard
