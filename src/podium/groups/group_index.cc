#include "podium/groups/group_index.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "podium/telemetry/phase.h"
#include "podium/telemetry/telemetry.h"
#include "podium/util/thread_pool.h"

namespace podium {

namespace {

/// Grain for loops chunked over users: profile entry lists are short, so
/// a chunk needs a few hundred users to amortize dispatch.
constexpr std::size_t kUserGrain = 256;

/// Lists every slot's members, ascending by user id. A first pass over
/// user chunks records each user's slots in order and counts them per
/// (chunk, slot); each slot's list is then allocated at its exact size,
/// and a second pass writes every chunk's users at that chunk's offset
/// in it. A chunk keeps three flat arrays instead of one list per slot:
/// with 64 chunks and ~10k slots, allocating and freeing those lists
/// cost a quarter of a `custom` build.
std::vector<std::vector<UserId>> AssignMembers(
    const ProfileRepository& repository, const GroupSlots& slots) {
  telemetry::Span span("group_index.members");
  const std::size_t num_users = repository.user_count();
  const std::size_t num_slots = slots.defs.size();
  const std::size_t num_chunks =
      util::PlanChunks(num_users, kUserGrain).num_chunks;
  std::vector<std::vector<GroupId>> chunk_slots(num_chunks);
  std::vector<std::vector<std::uint32_t>> chunk_degrees(num_chunks);
  // Per slot: the chunk's member count, then its offset in the slot list.
  std::vector<std::vector<std::uint32_t>> chunk_counts(num_chunks);
  util::ParallelFor(
      "group_index.assign", num_users,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        std::vector<GroupId>& ids = chunk_slots[chunk];
        chunk_degrees[chunk].resize(end - begin);
        chunk_counts[chunk].resize(num_slots);
        for (UserId u = begin; u < end; ++u) {
          const std::size_t before = ids.size();
          for (const PropertyScore& entry : repository.user(u).entries()) {
            const GroupId slot = slots.SlotOf(entry);
            if (slot == kInvalidGroup) continue;
            ids.push_back(slot);
            ++chunk_counts[chunk][slot];
          }
          chunk_degrees[chunk][u - begin] =
              static_cast<std::uint32_t>(ids.size() - before);
        }
      },
      kUserGrain);
  std::vector<std::vector<UserId>> members(num_slots);
  util::ParallelFor(
      "group_index.gather", num_slots,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t slot = begin; slot < end; ++slot) {
          std::uint32_t total = 0;
          for (auto& counts : chunk_counts) {
            const std::uint32_t count = counts[slot];
            counts[slot] = total;
            total += count;
          }
          members[slot].resize(total);
        }
      },
      16);
  util::ParallelFor(
      "group_index.scatter", num_users,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        const GroupId* slot = chunk_slots[chunk].data();
        std::vector<std::uint32_t>& cursor = chunk_counts[chunk];
        for (UserId u = begin; u < end; ++u) {
          for (std::uint32_t k = chunk_degrees[chunk][u - begin]; k > 0;
               --k, ++slot) {
            members[*slot][cursor[*slot]++] = u;
          }
        }
      },
      kUserGrain);
  return members;
}

}  // namespace

std::string MakeGroupLabel(const PropertyTable& table, PropertyId property,
                           const bucketing::Bucket& bucket) {
  const std::string& property_label = table.Label(property);
  if (table.Kind(property) == PropertyKind::kBoolean) {
    return bucket.label == "false" ? "not " + property_label : property_label;
  }
  return bucket.label + " " + property_label;
}

Result<EntryGroupTable> EntryGroupTable::Build(
    const std::vector<std::vector<bucketing::Bucket>>& buckets_per_property,
    const std::vector<std::vector<GroupId>>& group_of_bucket) {
  const std::size_t num_properties = buckets_per_property.size();
  if (group_of_bucket.size() != num_properties) {
    return Status::Internal("entry table: bucket and group tables disagree");
  }
  EntryGroupTable table;
  table.first_.reserve(num_properties + 1);
  for (std::size_t p = 0; p < num_properties; ++p) {
    const std::vector<bucketing::Bucket>& buckets = buckets_per_property[p];
    table.first_.push_back(static_cast<std::uint32_t>(table.cuts_.size()));
    if (buckets.empty()) {
      table.groups_.push_back(kInvalidGroup);
      continue;
    }
    if (group_of_bucket[p].size() != buckets.size()) {
      return Status::Internal("entry table: bucket and group tables disagree");
    }
    // A tiling of [0, 1]: the first bucket starts at or below 0, each
    // half-open bucket ends where the next begins, and the last is closed
    // at or above 1. Then a score in [0, 1] lies in bucket b exactly when
    // b cut points are <= it, which is FindBucket's first match.
    bool tiles = buckets.front().lo <= 0.0 && buckets.back().hi_closed &&
                 buckets.back().hi >= 1.0;
    for (std::size_t b = 0; b + 1 < buckets.size(); ++b) {
      tiles = tiles && !buckets[b].hi_closed &&
              buckets[b].hi == buckets[b + 1].lo;
      table.cuts_.push_back(buckets[b + 1].lo);
    }
    if (!tiles) {
      return Status::Internal("entry table: a bucketing does not tile [0, 1]");
    }
    table.groups_.insert(table.groups_.end(), group_of_bucket[p].begin(),
                         group_of_bucket[p].end());
  }
  table.first_.push_back(static_cast<std::uint32_t>(table.cuts_.size()));
  return table;
}

void EntryGroupTable::Renumber(const std::vector<GroupId>& id_of) {
  for (GroupId& g : groups_) {
    if (g != kInvalidGroup) g = id_of[g];
  }
}

Result<GroupSlots> DeriveGroupSlots(const ProfileRepository& repository,
                                    const GroupingOptions& options,
                                    std::string_view phase) {
  Result<std::unique_ptr<bucketing::Bucketizer>> bucketizer =
      bucketing::MakeBucketizer(options.bucket_method);
  if (!bucketizer.ok()) return bucketizer.status();
  if (options.max_buckets < 1) {
    return Status::InvalidArgument("max_buckets must be >= 1");
  }
  const std::string name(phase);
  telemetry::Span span(name + ".slots");
  const PropertyTable& table = repository.properties();
  const std::size_t num_properties = table.size();
  const std::size_t num_users = repository.user_count();

  // Collect observed scores per property: chunked over users into
  // per-chunk slices, then concatenated per property in chunk order, so
  // each property's scores come out in ascending user order.
  std::vector<std::vector<std::vector<double>>> chunk_scores(
      util::PlanChunks(num_users, kUserGrain).num_chunks);
  util::ParallelFor(
      name + ".collect", num_users,
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
      name + ".merge", num_properties,
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

  auto passes_filter = [&options, &table](PropertyId p) {
    if (options.property_filters.empty()) return true;
    const std::string& label = table.Label(p);
    for (const std::string& filter : options.property_filters) {
      if (label.find(filter) != std::string::npos) return true;
    }
    return false;
  };

  // Bucket the properties in parallel. Bucketizers are stateless (k-means
  // seeding is fixed), so a per-chunk instance splits identically to a
  // shared one; errors land in per-property slots and the first one in
  // property order is returned, matching a serial early exit. Each
  // property's scores are moved into its split: nothing reads them after.
  GroupSlots slots;
  slots.buckets_per_property.resize(num_properties);
  std::vector<Status> bucket_errors(num_properties);
  util::ParallelFor(
      name + ".bucketize", num_properties,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        const auto local_bucketizer =
            bucketing::MakeBucketizer(options.bucket_method);
        for (PropertyId p = begin; p < end; ++p) {
          if (scores[p].empty() || !passes_filter(p)) continue;
          if (table.Kind(p) == PropertyKind::kBoolean) {
            slots.buckets_per_property[p] = bucketing::FixedBooleanBuckets();
            continue;
          }
          Result<std::vector<bucketing::Bucket>> split =
              local_bucketizer.value()->Split(std::move(scores[p]),
                                              options.max_buckets);
          if (!split.ok()) {
            bucket_errors[p] = split.status();
            continue;
          }
          slots.buckets_per_property[p] = std::move(split).value();
        }
      },
      4);
  for (PropertyId p = 0; p < num_properties; ++p) {
    if (!bucket_errors[p].ok()) return bucket_errors[p];
  }

  // Slots are numbered serially in (property, bucket) order.
  slots.slot_of.resize(num_properties);
  for (PropertyId p = 0; p < num_properties; ++p) {
    const auto& buckets = slots.buckets_per_property[p];
    slots.slot_of[p].assign(buckets.size(), kInvalidGroup);
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      if (!options.include_boolean_false_groups &&
          table.Kind(p) == PropertyKind::kBoolean &&
          buckets[b].label == "false") {
        continue;
      }
      slots.slot_of[p][b] = static_cast<GroupId>(slots.defs.size());
      slots.defs.push_back(
          GroupDef{p, buckets[b], MakeGroupLabel(table, p, buckets[b])});
    }
  }
  Result<EntryGroupTable> lookup =
      EntryGroupTable::Build(slots.buckets_per_property, slots.slot_of);
  if (!lookup.ok()) return lookup.status();
  slots.table = std::move(lookup).value();
  return slots;
}

Status GroupIndex::FinalizeAdjacency(
    const std::vector<std::vector<UserId>>& members,
    const std::vector<bool>& keep, std::size_t num_users) {
  telemetry::Span span("group_index.finalize");
  std::size_t kept = 0;
  std::size_t links = 0;
  for (std::size_t slot = 0; slot < members.size(); ++slot) {
    if (!keep[slot]) continue;
    ++kept;
    links += members[slot].size();
  }
  if (links > std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument(
        "adjacency exceeds 2^32 links; uint32 CSR offsets overflow");
  }

  // One contiguous 64-byte-aligned block for all four CSR arrays, sized
  // exactly; the arena's guard bytes license the kernels' flag gathers.
  arena_ = std::make_shared<util::Arena>(
      util::Arena::BytesFor<std::uint32_t>(kept + 1) +
      util::Arena::BytesFor<UserId>(links) +
      util::Arena::BytesFor<std::uint32_t>(num_users + 1) +
      util::Arena::BytesFor<GroupId>(links));
  const std::span<std::uint32_t> member_offsets =
      arena_->AllocateSpan<std::uint32_t>(kept + 1);
  const std::span<UserId> member_values = arena_->AllocateSpan<UserId>(links);
  const std::span<std::uint32_t> user_offsets =
      arena_->AllocateSpan<std::uint32_t>(num_users + 1);
  const std::span<GroupId> user_values = arena_->AllocateSpan<GroupId>(links);

  // Member direction: the kept lists in slot order, copied row by row.
  std::vector<const std::vector<UserId>*> rows;
  rows.reserve(kept);
  for (std::size_t slot = 0; slot < members.size(); ++slot) {
    if (!keep[slot]) continue;
    member_offsets[rows.size() + 1] = static_cast<std::uint32_t>(
        member_offsets[rows.size()] + members[slot].size());
    rows.push_back(&members[slot]);
  }
  util::ParallelFor(
      "group_index.flatten", kept,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t g = begin; g < end; ++g) {
          std::copy(rows[g]->begin(), rows[g]->end(),
                    member_values.begin() + member_offsets[g]);
        }
      },
      16);

  // Reverse direction, chunked over user ids. A chunk finds each group's
  // first member >= begin; the links before those positions belong to
  // earlier users, so their count is where the chunk's rows start. It
  // then walks each group's span up to end twice: once counting its users'
  // degrees, once filling their rows. Chunks write disjoint rows, each row
  // ascends by group id, and the arrays are the same at any thread count.
  user_offsets[num_users] = static_cast<std::uint32_t>(links);
  util::ParallelFor(
      "group_index.reverse", num_users,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<std::uint32_t> first(kept);
        std::uint32_t row_start = 0;
        for (std::size_t g = 0; g < kept; ++g) {
          first[g] = static_cast<std::uint32_t>(
              std::lower_bound(member_values.begin() + member_offsets[g],
                               member_values.begin() + member_offsets[g + 1],
                               begin) -
              member_values.begin());
          row_start += first[g] - member_offsets[g];
        }
        const auto for_each_link = [&](const auto& visit) {
          for (std::size_t g = 0; g < kept; ++g) {
            for (std::uint32_t i = first[g];
                 i < member_offsets[g + 1] && member_values[i] < end; ++i) {
              visit(static_cast<GroupId>(g), member_values[i]);
            }
          }
        };
        for_each_link([&](GroupId, UserId u) { ++user_offsets[u]; });
        for (std::size_t u = begin; u < end; ++u) {
          const std::uint32_t degree = user_offsets[u];
          user_offsets[u] = row_start;
          row_start += degree;
        }
        std::vector<std::uint32_t> cursor(user_offsets.begin() + begin,
                                          user_offsets.begin() + end);
        for_each_link([&](GroupId g, UserId u) {
          user_values[cursor[u - begin]++] = g;
        });
      },
      kUserGrain);

  member_offsets_ = member_offsets;
  member_values_ = member_values;
  user_offsets_ = user_offsets;
  user_values_ = user_values;
  return Status::Ok();
}

Result<GroupIndex> GroupIndex::Build(const ProfileRepository& repository,
                                     const GroupingOptions& options) {
  telemetry::Span span("group_index.build");
  Result<GroupSlots> slots =
      DeriveGroupSlots(repository, options, "group_index");
  if (!slots.ok()) return slots.status();
  const std::size_t num_users = repository.user_count();
  const std::size_t num_slots = slots->defs.size();

  std::vector<std::vector<UserId>> provisional_members =
      AssignMembers(repository, *slots);

  // Compact away empty / undersized groups and flatten both directions.
  GroupIndex index;
  index.buckets_per_property_ = std::move(slots->buckets_per_property);
  const std::size_t min_size = std::max<std::size_t>(options.min_group_size, 1);
  std::vector<bool> keep(num_slots, false);
  for (std::size_t slot = 0; slot < num_slots; ++slot) {
    if (provisional_members[slot].size() < min_size) continue;
    keep[slot] = true;
    index.defs_.push_back(std::move(slots->defs[slot]));
  }
  if (Status s = index.FinalizeAdjacency(provisional_members, keep, num_users);
      !s.ok()) {
    return s;
  }

  if (telemetry::Enabled()) {
    auto& registry = telemetry::MetricsRegistry::Global();
    registry.counter("group_index.builds").Add();
    registry.counter("group_index.groups")
        .Add(static_cast<std::uint64_t>(index.defs_.size()));
    registry.counter("group_index.pruned_groups")
        .Add(static_cast<std::uint64_t>(num_slots - index.defs_.size()));
    registry.counter("group_index.links")
        .Add(static_cast<std::uint64_t>(index.link_count()));
  }
  return index;
}

Result<GroupIndex> GroupIndex::FromDefs(const ProfileRepository& repository,
                                        std::vector<GroupDef> defs) {
  for (const GroupDef& def : defs) {
    if (def.property >= repository.property_count()) {
      return Status::OutOfRange("group definition references unknown property");
    }
  }

  // Each definition scans the repository independently.
  std::vector<std::vector<UserId>> members(defs.size());
  util::ParallelFor(
      "group_index.from_defs", defs.size(),
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t d = begin; d < end; ++d) {
          for (UserId u = 0; u < repository.user_count(); ++u) {
            const auto score = repository.user(u).Get(defs[d].property);
            if (score.has_value() && defs[d].bucket.Contains(*score)) {
              members[d].push_back(u);
            }
          }
        }
      },
      1);

  GroupIndex index;
  index.buckets_per_property_.resize(repository.property_count());
  std::vector<bool> keep(defs.size(), false);
  for (std::size_t d = 0; d < defs.size(); ++d) {
    if (members[d].empty()) continue;  // empty groups can never be covered
    keep[d] = true;
    index.defs_.push_back(std::move(defs[d]));
  }
  if (Status s = index.FinalizeAdjacency(members, keep, repository.user_count());
      !s.ok()) {
    return s;
  }
  return index;
}

Result<GroupIndex> GroupIndex::FromMembership(
    std::vector<GroupDef> defs,
    const std::vector<std::vector<UserId>>& members, std::size_t num_users) {
  if (members.size() != defs.size()) {
    return Status::InvalidArgument(
        "FromMembership: defs and member lists disagree in size");
  }
  for (const std::vector<UserId>& list : members) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i] >= num_users || (i > 0 && list[i] <= list[i - 1])) {
        return Status::InvalidArgument(
            "FromMembership: member lists must be strictly ascending, "
            "in-range user ids");
      }
    }
  }
  GroupIndex index;
  index.defs_ = std::move(defs);
  const std::vector<bool> keep(members.size(), true);
  if (Status s = index.FinalizeAdjacency(members, keep, num_users); !s.ok()) {
    return s;
  }
  return index;
}

std::size_t GroupIndex::MaxGroupSize() const {
  std::size_t best = 0;
  for (GroupId g = 0; g < group_count(); ++g) {
    best = std::max(best, group_size(g));
  }
  return best;
}

std::size_t GroupIndex::MaxGroupsPerUser() const {
  std::size_t best = 0;
  for (UserId u = 0; u < user_count(); ++u) {
    best = std::max(best, groups_of(u).size());
  }
  return best;
}

bool GroupIndex::Contains(GroupId g, UserId u) const {
  const std::span<const UserId> m = members(g);
  return std::binary_search(m.begin(), m.end(), u);
}

std::vector<GroupId> GroupIndex::GroupsBySizeDescending() const {
  std::vector<GroupId> order(group_count());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [this](GroupId a, GroupId b) {
    if (group_size(a) != group_size(b)) return group_size(a) > group_size(b);
    return a < b;
  });
  return order;
}

}  // namespace podium
