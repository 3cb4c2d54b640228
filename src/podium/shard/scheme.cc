#include "podium/shard/scheme.h"

#include <algorithm>
#include <utility>

#include "podium/telemetry/phase.h"
#include "podium/util/thread_pool.h"

namespace podium::shard {

namespace {

/// Same user-loop grain as GroupIndex::Build's assign pass, which the count
/// below mirrors.
constexpr std::size_t kUserGrain = 256;

}  // namespace

Result<GroupScheme> BuildGroupScheme(const ProfileRepository& repository,
                                     const GroupingOptions& options) {
  telemetry::Span span("shard.scheme");
  Result<GroupSlots> slots =
      DeriveGroupSlots(repository, options, "shard.scheme");
  if (!slots.ok()) return slots.status();
  const std::size_t num_users = repository.user_count();
  const std::size_t num_slots = slots->defs.size();

  // Count members per slot: Build's assign pass with uint64 counters in
  // place of member lists, so memory stays O(groups) per chunk.
  std::vector<std::vector<std::uint64_t>> chunk_counts(
      util::PlanChunks(num_users, kUserGrain).num_chunks);
  util::ParallelFor(
      "shard.scheme.count", num_users,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        auto& local = chunk_counts[chunk];
        local.resize(num_slots);
        for (UserId u = begin; u < end; ++u) {
          for (const PropertyScore& entry : repository.user(u).entries()) {
            const GroupId slot = slots->SlotOf(entry);
            if (slot != kInvalidGroup) ++local[slot];
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
  // survivors compact in slot order) and renumber the slot table through
  // the compaction into the entry → global id table.
  GroupScheme scheme;
  scheme.population = num_users;
  const std::size_t min_size = std::max<std::size_t>(options.min_group_size, 1);
  std::vector<GroupId> final_of_slot(num_slots, kInvalidGroup);
  for (std::size_t slot = 0; slot < num_slots; ++slot) {
    if (slot_sizes[slot] < min_size) continue;
    final_of_slot[slot] = static_cast<GroupId>(scheme.defs.size());
    scheme.defs.push_back(std::move(slots->defs[slot]));
    scheme.global_sizes.push_back(static_cast<std::uint32_t>(slot_sizes[slot]));
  }
  scheme.table = std::move(slots->table);
  scheme.table.Renumber(final_of_slot);
  return scheme;
}

}  // namespace podium::shard
