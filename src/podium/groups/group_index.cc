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

}  // namespace

UserRows AssignUserRows(
    std::string_view loop, std::size_t num_users, std::size_t num_groups,
    const std::function<void(UserId, std::vector<GroupId>&)>& row_of) {
  UserRows rows;
  rows.num_users = num_users;
  const std::size_t num_chunks =
      util::PlanChunks(num_users, kUserGrain).num_chunks;
  rows.ids.resize(num_chunks);
  rows.degrees.resize(num_chunks);
  rows.counts.resize(num_chunks);
  util::ParallelFor(
      loop, num_users,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        std::vector<GroupId>& ids = rows.ids[chunk];
        std::vector<std::uint32_t>& counts = rows.counts[chunk];
        rows.degrees[chunk].resize(end - begin);
        counts.resize(num_groups);
        for (UserId u = begin; u < end; ++u) {
          const std::size_t before = ids.size();
          row_of(u, ids);
          for (std::size_t i = before; i < ids.size(); ++i) ++counts[ids[i]];
          rows.degrees[chunk][u - begin] =
              static_cast<std::uint32_t>(ids.size() - before);
        }
      },
      kUserGrain);
  return rows;
}

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

Result<GroupIndex> GroupIndex::FromUserRows(std::vector<GroupDef> defs,
                                            UserRows rows,
                                            std::size_t min_group_size) {
  telemetry::Span span("group_index.finalize");
  const std::size_t num_slots = defs.size();
  const std::size_t num_users = rows.num_users;
  for (const std::vector<std::uint32_t>& counts : rows.counts) {
    if (counts.size() != num_slots) {
      return Status::InvalidArgument(
          "FromUserRows: rows and defs disagree in group count");
    }
  }

  // Gather: each chunk's count per group becomes the number of the
  // group's members in earlier chunks.
  std::vector<std::uint32_t> sizes(num_slots);
  util::ParallelFor(
      "group_index.gather", num_slots,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t slot = begin; slot < end; ++slot) {
          std::uint32_t total = 0;
          for (std::vector<std::uint32_t>& counts : rows.counts) {
            const std::uint32_t count = counts[slot];
            counts[slot] = total;
            total += count;
          }
          sizes[slot] = total;
        }
      },
      16);

  GroupIndex index;
  std::vector<GroupId> id_of(num_slots, kInvalidGroup);
  std::size_t links = 0;
  for (std::size_t slot = 0; slot < num_slots; ++slot) {
    if (sizes[slot] < min_group_size) continue;
    id_of[slot] = static_cast<GroupId>(index.defs_.size());
    index.defs_.push_back(std::move(defs[slot]));
    links += sizes[slot];
  }
  if (links > std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument(
        "adjacency exceeds 2^32 links; uint32 CSR offsets overflow");
  }
  const std::size_t kept = index.defs_.size();

  // One contiguous 64-byte-aligned block for all four CSR arrays, sized
  // exactly; the arena's guard bytes license the kernels' flag gathers.
  index.arena_ = std::make_shared<util::Arena>(
      util::Arena::BytesFor<std::uint32_t>(kept + 1) +
      util::Arena::BytesFor<UserId>(links) +
      util::Arena::BytesFor<std::uint32_t>(num_users + 1) +
      util::Arena::BytesFor<GroupId>(links));
  util::Arena& arena = *index.arena_;
  const std::span<std::uint32_t> member_offsets =
      arena.AllocateSpan<std::uint32_t>(kept + 1);
  const std::span<UserId> member_values = arena.AllocateSpan<UserId>(links);
  const std::span<std::uint32_t> user_offsets =
      arena.AllocateSpan<std::uint32_t>(num_users + 1);
  const std::span<GroupId> user_values = arena.AllocateSpan<GroupId>(links);
  for (std::size_t slot = 0; slot < num_slots; ++slot) {
    const GroupId g = id_of[slot];
    if (g != kInvalidGroup) {
      member_offsets[g + 1] = member_offsets[g] + sizes[slot];
    }
  }
  user_offsets[num_users] = static_cast<std::uint32_t>(links);

  // Scatter, chunked over users as the rows are: each kept link goes to
  // the end of its user's row and to the chunk's next place in its
  // group's row. A chunk's rows start after the kept links of earlier
  // chunks, which the gathered counts already sum.
  util::ParallelFor(
      "group_index.scatter", num_users,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        std::vector<std::uint32_t>& cursor = rows.counts[chunk];
        std::uint32_t row = 0;
        for (std::size_t slot = 0; slot < num_slots; ++slot) {
          if (id_of[slot] == kInvalidGroup) continue;
          row += cursor[slot];
          cursor[slot] += member_offsets[id_of[slot]];
        }
        const GroupId* slot = rows.ids[chunk].data();
        for (UserId u = begin; u < end; ++u) {
          user_offsets[u] = row;
          for (std::uint32_t k = rows.degrees[chunk][u - begin]; k > 0;
               --k, ++slot) {
            const GroupId g = id_of[*slot];
            if (g == kInvalidGroup) continue;
            user_values[row++] = g;
            member_values[cursor[*slot]++] = u;
          }
        }
      },
      kUserGrain);

  index.member_offsets_ = member_offsets;
  index.member_values_ = member_values;
  index.user_offsets_ = user_offsets;
  index.user_values_ = user_values;
  return index;
}

Result<GroupIndex> GroupIndex::Build(const ProfileRepository& repository,
                                     const GroupingOptions& options) {
  telemetry::Span span("group_index.build");
  Result<GroupSlots> slots =
      DeriveGroupSlots(repository, options, "group_index");
  if (!slots.ok()) return slots.status();
  const std::size_t num_slots = slots->defs.size();

  UserRows rows = [&] {
    telemetry::Span members_span("group_index.members");
    return AssignUserRows(
        "group_index.assign", repository.user_count(), num_slots,
        [&](UserId u, std::vector<GroupId>& row) {
          slots->table.AppendGroups(repository.user(u), row);
        });
  }();
  // Empty groups are always dropped, with the undersized ones.
  Result<GroupIndex> index =
      FromUserRows(std::move(slots->defs), std::move(rows),
                   std::max<std::size_t>(options.min_group_size, 1));
  if (!index.ok()) return index;
  index->buckets_per_property_ = std::move(slots->buckets_per_property);

  if (telemetry::Enabled()) {
    auto& registry = telemetry::MetricsRegistry::Global();
    registry.counter("group_index.builds").Add();
    registry.counter("group_index.groups")
        .Add(static_cast<std::uint64_t>(index->group_count()));
    registry.counter("group_index.pruned_groups")
        .Add(static_cast<std::uint64_t>(num_slots - index->group_count()));
    registry.counter("group_index.links")
        .Add(static_cast<std::uint64_t>(index->link_count()));
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
  UserRows rows = AssignUserRows(
      "group_index.from_defs", repository.user_count(), defs.size(),
      [&](UserId u, std::vector<GroupId>& row) {
        const UserProfile& profile = repository.user(u);
        for (std::size_t d = 0; d < defs.size(); ++d) {
          const auto score = profile.Get(defs[d].property);
          if (score.has_value() && defs[d].bucket.Contains(*score)) {
            row.push_back(static_cast<GroupId>(d));
          }
        }
      });
  // Empty groups can never be covered.
  Result<GroupIndex> index = FromUserRows(std::move(defs), std::move(rows), 1);
  if (index.ok()) {
    index->buckets_per_property_.resize(repository.property_count());
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
  std::vector<std::vector<GroupId>> groups_of(num_users);
  for (GroupId g = 0; g < members.size(); ++g) {
    const std::vector<UserId>& list = members[g];
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i] >= num_users || (i > 0 && list[i] <= list[i - 1])) {
        return Status::InvalidArgument(
            "FromMembership: member lists must be strictly ascending, "
            "in-range user ids");
      }
      groups_of[list[i]].push_back(g);
    }
  }
  UserRows rows = AssignUserRows(
      "group_index.from_membership", num_users, defs.size(),
      [&](UserId u, std::vector<GroupId>& row) {
        row.insert(row.end(), groups_of[u].begin(), groups_of[u].end());
      });
  return FromUserRows(std::move(defs), std::move(rows), 0);
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
