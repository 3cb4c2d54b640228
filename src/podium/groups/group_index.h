#ifndef PODIUM_GROUPS_GROUP_INDEX_H_
#define PODIUM_GROUPS_GROUP_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "podium/bucketing/bucketizer.h"
#include "podium/groups/group.h"
#include "podium/profile/repository.h"
#include "podium/util/arena.h"
#include "podium/util/result.h"

namespace podium {

/// Options controlling how simple groups are derived from a repository.
struct GroupingOptions {
  /// Bucketizer method name ("equal-width", "quantile", "kmeans-1d",
  /// "jenks", "kde"); see bucketing::MakeBucketizer.
  std::string bucket_method = "quantile";

  /// Maximum buckets per score property (boolean properties always get the
  /// fixed false/true pair).
  int max_buckets = 3;

  /// Drop groups with fewer members than this (empty groups are always
  /// dropped — they can never be covered and would distort LBS/EBS ranks).
  std::size_t min_group_size = 1;

  /// Whether to materialize the "false" bucket of boolean properties as a
  /// group. The paper's examples treat boolean properties via their "true"
  /// side ("lives in Tokyo"); inferred falsehoods can still be grouped by
  /// enabling this.
  bool include_boolean_false_groups = false;

  /// When non-empty, only properties whose label contains at least one of
  /// these substrings produce groups. This is how the prototype's named
  /// configurations scope diversification ("only considers properties
  /// related to a restaurant in that name", Section 7) and how the
  /// opinion experiments restrict 𝒢 to cuisine- and location-related
  /// properties (Section 8.4).
  std::vector<std::string> property_filters;
};

/// Group label per Section 5: "<bucket label> <property label>" for score
/// properties; boolean "true" groups read as just the property label
/// ("lives in Tokyo"), "false" groups as "not <property label>". Shared
/// by GroupIndex::Build and the sharded GroupScheme so the two paths
/// cannot drift.
std::string MakeGroupLabel(const PropertyTable& table, PropertyId property,
                           const bucketing::Bucket& bucket);

/// The entry → group lookup of a bucketing, flattened. β(p) of a score or
/// boolean property tiles [0, 1] (bucketing::PartitionFromBreakpoints,
/// bucketing::FixedBooleanBuckets), so the bucket of a score s in [0, 1] is
/// the number of p's interior cut points (the lo of every bucket but the
/// first) that are <= s, and FindBucket's answer is that count.
/// Per property the table holds a [first, last) range into one array of
/// cut points; the property's group ids follow in one array of group ids,
/// one per bucket, from first + p. An unbucketed property has no cuts and
/// one kInvalidGroup entry.
class EntryGroupTable {
 public:
  EntryGroupTable() = default;

  /// Flattens `buckets_per_property` with `group_of_bucket[p][b]` as the
  /// group of property p's bucket b (kInvalidGroup for no group).
  /// Internal when a non-empty bucketing does not tile [0, 1] or the two
  /// tables disagree in shape.
  static Result<EntryGroupTable> Build(
      const std::vector<std::vector<bucketing::Bucket>>& buckets_per_property,
      const std::vector<std::vector<GroupId>>& group_of_bucket);

  /// The group `entry` falls in, or kInvalidGroup when its property is
  /// unbucketed, its bucket has no group, or its score is outside [0, 1]
  /// (or NaN) — in every case what FindBucket + group_of_bucket answers.
  GroupId GroupOfEntry(const PropertyScore& entry) const {
    const double score = entry.score;
    if (!(score >= 0.0 && score <= 1.0)) return kInvalidGroup;
    const std::uint32_t first = first_[entry.property];
    const std::uint32_t last = first_[entry.property + 1];
    std::uint32_t bucket = 0;
    for (std::uint32_t i = first; i < last; ++i) {
      bucket += cuts_[i] <= score ? 1u : 0u;
    }
    return groups_[first + entry.property + bucket];
  }

  /// Appends the group of each of `profile`'s entries that has one to
  /// `row`, in entry (so property) order.
  void AppendGroups(const UserProfile& profile,
                    std::vector<GroupId>& row) const {
    for (const PropertyScore& entry : profile.entries()) {
      const GroupId g = GroupOfEntry(entry);
      if (g != kInvalidGroup) row.push_back(g);
    }
  }

  /// Replaces every group id g by `id_of[g]` (kInvalidGroup stays).
  void Renumber(const std::vector<GroupId>& id_of);

 private:
  std::vector<std::uint32_t> first_;  // per property + 1
  std::vector<double> cuts_;
  std::vector<GroupId> groups_;
};

/// The candidate groups of a repository before any user is assigned: β(p)
/// per property and one provisional slot per kept (property, bucket) pair,
/// numbered in (property, bucket) order.
struct GroupSlots {
  /// β(p) per property (empty for unbucketed properties).
  std::vector<std::vector<bucketing::Bucket>> buckets_per_property;
  /// slot_of[p][b] = slot of property p's bucket-b group, or kInvalidGroup
  /// when the bucket yields no group (a boolean "false" side left out).
  std::vector<std::vector<GroupId>> slot_of;
  /// Definitions in slot order.
  std::vector<GroupDef> defs;
  /// buckets_per_property + slot_of flattened for the per-entry lookup.
  EntryGroupTable table;

  /// Slot of the group `entry` falls in, or kInvalidGroup.
  GroupId SlotOf(const PropertyScore& entry) const {
    return table.GroupOfEntry(entry);
  }
};

/// The build pipeline GroupIndex::Build and shard::BuildGroupScheme share:
/// collect every property's observed scores (chunked over users, merged in
/// ascending user order), bucketize the properties in parallel, then number
/// the slots. `phase` prefixes the loops' telemetry names
/// ("<phase>.collect", "<phase>.merge", "<phase>.bucketize").
Result<GroupSlots> DeriveGroupSlots(const ProfileRepository& repository,
                                    const GroupingOptions& options,
                                    std::string_view phase);

/// Every user's group ids as an assign pass records them, chunked over
/// users as util::PlanChunks(num_users, 256) cuts them: per chunk, its
/// users' ids back to back, each user's count of them, and the chunk's
/// count per group. GroupIndex::FromUserRows writes both CSR directions
/// from it.
struct UserRows {
  std::size_t num_users = 0;
  std::vector<std::vector<GroupId>> ids;            // per chunk
  std::vector<std::vector<std::uint32_t>> degrees;  // per chunk, per user
  std::vector<std::vector<std::uint32_t>> counts;   // per chunk, per group
};

/// Runs `row_of(u, row)` for every user u < num_users in parallel loop
/// `loop`; row_of appends u's group ids, strictly ascending and each below
/// num_groups, to `row`.
UserRows AssignUserRows(
    std::string_view loop, std::size_t num_users, std::size_t num_groups,
    const std::function<void(UserId, std::vector<GroupId>&)>& row_of);

/// The set of simple groups 𝒢 over a repository plus the bidirectional
/// user ↔ group adjacency that Algorithm 1's data-structure section calls
/// for ("links in both directions between the lists").
///
/// Both directions are stored in CSR (compressed sparse row) form: one
/// contiguous values array per direction plus a uint32 offsets array, so
/// the retirement inner loop walks cache-line-dense spans instead of
/// chasing per-group vector headers. All four CSR arrays live in ONE
/// 64-byte-aligned util::Arena block (offsets, values, both directions),
/// filled by FromUserRows — a whole index is one
/// contiguous allocation, and the arena's guard bytes license the SIMD
/// flag gathers in core/kernels.h over member spans. Accessors hand out
/// spans; call sites that only iterate are unaffected.
///
/// Immutable after Build(); the greedy selector keeps its own mutable
/// per-run state. Copies share the arena block (it never mutates), so
/// copying an index — the serve path builds a per-request instance over
/// the snapshot's prebuilt index — costs the group definitions, not the
/// adjacency.
class GroupIndex {
 public:
  /// An empty index (no groups, no users); assign a Build()/FromDefs()
  /// result over it.
  GroupIndex() = default;

  /// Buckets every property of `repository` and materializes the simple
  /// groups. The repository must outlive the index (member lists refer to
  /// its user ids, not its storage).
  static Result<GroupIndex> Build(const ProfileRepository& repository,
                                  const GroupingOptions& options = {});

  /// Builds an index from explicit group definitions (used for manually
  /// crafted groups, as surveyors define them).
  static Result<GroupIndex> FromDefs(const ProfileRepository& repository,
                                     std::vector<GroupDef> defs);

  /// Builds an index from explicit definitions plus precomputed member
  /// lists (members[d] are the users of defs[d], strictly ascending by
  /// user id). Unlike Build()/FromDefs(), EVERY definition is kept —
  /// including empty ones — so several indexes can share one group-id
  /// space. buckets_per_property() is left empty.
  static Result<GroupIndex> FromMembership(
      std::vector<GroupDef> defs,
      const std::vector<std::vector<UserId>>& members, std::size_t num_users);

  /// Writes both CSR directions from `rows`, whose ids are positions in
  /// `defs`. Keeps the groups with at least `min_group_size` members,
  /// numbered in defs order, and drops the links to the rest; with 0 every
  /// definition is kept, as the sharded engine's per-shard indexes over
  /// the GLOBAL GroupScheme need. Every builder ends here.
  /// buckets_per_property() is left empty. InvalidArgument when `rows`
  /// count a different number of groups than `defs` holds, or when the
  /// kept links overflow the uint32 offsets.
  static Result<GroupIndex> FromUserRows(std::vector<GroupDef> defs,
                                         UserRows rows,
                                         std::size_t min_group_size);

  std::size_t group_count() const { return defs_.size(); }
  std::size_t user_count() const {
    return user_offsets_.empty() ? 0 : user_offsets_.size() - 1;
  }

  const GroupDef& def(GroupId g) const { return defs_[g]; }
  const std::string& label(GroupId g) const { return defs_[g].label; }

  /// Members of group g, ascending by user id.
  std::span<const UserId> members(GroupId g) const {
    return member_values_.subspan(member_offsets_[g],
                                  member_offsets_[g + 1] - member_offsets_[g]);
  }
  std::size_t group_size(GroupId g) const {
    return member_offsets_[g + 1] - member_offsets_[g];
  }

  /// Groups containing user u, ascending by group id.
  std::span<const GroupId> groups_of(UserId u) const {
    return user_values_.subspan(user_offsets_[u],
                                user_offsets_[u + 1] - user_offsets_[u]);
  }

  /// Total number of user↔group links (the CSR values length).
  std::size_t link_count() const { return member_values_.size(); }

  /// The arena block holding all four CSR arrays (null for a
  /// default-constructed index). Exposed for the memory-layout tests and
  /// footprint accounting; shared, unchanged, by every copy of the index.
  const util::Arena* adjacency_arena() const { return arena_.get(); }

  /// max_{G} |G| and max_u |{G : u in G}| (the complexity-bound factors of
  /// Prop. 4.4).
  std::size_t MaxGroupSize() const;
  std::size_t MaxGroupsPerUser() const;

  /// True if user u belongs to group g (binary search over members).
  bool Contains(GroupId g, UserId u) const;

  /// Group ids sorted by decreasing size (ties by id, so deterministic).
  std::vector<GroupId> GroupsBySizeDescending() const;

  /// The buckets β(p) computed per property during Build (empty for
  /// properties absent from the repository). Indexed by PropertyId.
  const std::vector<std::vector<bucketing::Bucket>>& buckets_per_property()
      const {
    return buckets_per_property_;
  }

 private:
  std::vector<GroupDef> defs_;
  // CSR adjacency, both directions, all four arrays inside arena_.
  // offsets have size count + 1; the values of row i live in
  // [offsets[i], offsets[i + 1]).
  std::shared_ptr<util::Arena> arena_;
  std::span<const std::uint32_t> member_offsets_;  // per group
  std::span<const UserId> member_values_;
  std::span<const std::uint32_t> user_offsets_;    // per user
  std::span<const GroupId> user_values_;
  std::vector<std::vector<bucketing::Bucket>> buckets_per_property_;
};

}  // namespace podium

#endif  // PODIUM_GROUPS_GROUP_INDEX_H_
