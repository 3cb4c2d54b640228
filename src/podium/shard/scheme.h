#ifndef PODIUM_SHARD_SCHEME_H_
#define PODIUM_SHARD_SCHEME_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "podium/groups/group_index.h"
#include "podium/profile/repository.h"
#include "podium/util/result.h"

namespace podium::shard {

/// The GLOBAL group structure of a repository — definitions, the flat
/// entry → group-id table, and global group sizes — WITHOUT the global CSR
/// adjacency. This is what every shard shares: each shard materializes
/// only its local slice of the adjacency against this scheme's group-id
/// space, so the 2^32-links-per-arena CSR ceiling applies per shard
/// instead of to the whole population.
///
/// BuildGroupScheme runs the same DeriveGroupSlots pipeline as
/// GroupIndex::Build, then counts members per slot instead of listing them
/// and prunes as Build does, so defs, ordering and pruning are identical to
/// what the single-snapshot engine derives; podium_check's K=1
/// byte-identity sweep guards the two callers against drift.
struct GroupScheme {
  /// Group definitions in global id order (== GroupIndex::Build's order).
  std::vector<GroupDef> defs;
  /// |G| over the whole repository, per global group id.
  std::vector<std::uint32_t> global_sizes;
  /// Entry → global group id: β(p) per property with each bucket's global
  /// group (kInvalidGroup when the bucket produced no kept group).
  EntryGroupTable table;
  /// |𝒰| the scheme was computed over.
  std::size_t population = 0;

  std::size_t group_count() const { return defs.size(); }
};

/// Computes the global scheme for `repository` under `options`. Memory is
/// O(groups + per-property scores), never O(links).
Result<GroupScheme> BuildGroupScheme(const ProfileRepository& repository,
                                     const GroupingOptions& options = {});

}  // namespace podium::shard

#endif  // PODIUM_SHARD_SCHEME_H_
