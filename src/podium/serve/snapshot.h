#ifndef PODIUM_SERVE_SNAPSHOT_H_
#define PODIUM_SERVE_SNAPSHOT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "podium/core/instance.h"
#include "podium/profile/repository.h"
#include "podium/shard/partitioner.h"
#include "podium/shard/sharded_snapshot.h"
#include "podium/util/arena.h"
#include "podium/util/result.h"

namespace podium::serve {

/// Snapshot construction options: the grouping and default instance
/// parameters every request shares. Requests may override weight kind,
/// coverage kind and budget per call; the grouping (and therefore the
/// bucketized score groups) is fixed per snapshot — regrouping requires a
/// reload.
struct SnapshotOptions {
  InstanceOptions instance;
  /// num_shards > 1 builds the partitioned engine (DESIGN.md §13) behind
  /// the same Snapshot/SnapshotHolder surface: requests, cache keys, and
  /// the reload swap are unchanged.
  shard::ShardOptions shard;
};

/// An immutable bundle of everything a selection request reads: the
/// profile repository, the prebuilt CSR GroupIndex with its bucketized
/// score groups (inside the default DiversificationInstance), and a
/// label → group id index for resolving customization feedback.
///
/// Built once at startup (or on reload) and shared across concurrent
/// requests via shared_ptr — request threads hold a reference for the
/// duration of a request, so a snapshot swapped out mid-flight stays
/// alive until its last request completes. Nothing in here mutates after
/// Build(), so no per-request locking is needed.
class Snapshot {
 public:
  /// Builds a snapshot over `repository` (taking ownership). The group
  /// index and the default instance (weights + coverage evaluated) are
  /// built eagerly so no request pays for them. `generation`
  /// distinguishes reloads; it is part of every cache key.
  [[nodiscard]] static Result<std::shared_ptr<const Snapshot>> Build(
      ProfileRepository repository, const SnapshotOptions& options,
      std::uint64_t generation);

  /// Only meaningful for unsharded snapshots (empty under sharding — the
  /// shards keep only their CSR adjacency, and names live in the
  /// ShardedSnapshot).
  const ProfileRepository& repository() const { return repository_; }
  const SnapshotOptions& options() const { return options_; }
  std::uint64_t generation() const { return generation_; }

  /// The sharded engine, or nullptr when this snapshot is unsharded.
  const shard::ShardedSnapshot* sharded() const { return sharded_.get(); }
  bool is_sharded() const { return sharded_ != nullptr; }

  /// Population / group count, valid in both modes.
  std::size_t user_count() const {
    return sharded_ ? sharded_->user_count() : repository_.user_count();
  }
  std::size_t group_count() const {
    return sharded_ ? sharded_->group_count()
                    : default_instance_.groups().group_count();
  }

  /// Total arena-backed bytes behind this snapshot: CSR adjacency (summed
  /// over shards when sharded) plus the label table. Surfaced by /healthz
  /// and /metrics so the serve-time memory footprint is visible.
  std::size_t MemoryBytes() const;

  /// Seconds since this snapshot was built — /healthz reports it as
  /// snapshot_age_seconds so operators can spot a stale reload loop.
  double AgeSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         created_at_)
        .count();
  }

  /// The instance built with the snapshot's default weight/coverage/budget.
  const DiversificationInstance& default_instance() const {
    return default_instance_;
  }

  /// True when (weight_kind, coverage_kind, budget) can be served by
  /// default_instance() without building a per-request instance. Budget
  /// only matters to the instance itself under Prop coverage or EBS
  /// weights (both read B); otherwise it is just the selector's stop
  /// condition.
  bool MatchesDefaultInstance(WeightKind weight_kind,
                              CoverageKind coverage_kind,
                              std::size_t budget) const;

  /// Builds an instance with request-specific weight/coverage/budget over
  /// the shared repository and a copy of the prebuilt group index (the
  /// grouping itself is never recomputed). The instance references this
  /// snapshot's repository; callers must keep their shared_ptr alive for
  /// the instance's lifetime.
  [[nodiscard]] Result<DiversificationInstance> MakeInstance(WeightKind weight_kind,
                                               CoverageKind coverage_kind,
                                               std::size_t budget) const;

  /// Resolves a group label to its id in O(1), or NotFound.
  [[nodiscard]] Result<GroupId> ResolveLabel(const std::string& label) const;

 private:
  Snapshot() = default;

  /// Slot index where `label` lives or would be inserted: the first slot
  /// in the linear probe chain that is empty or already holds a group
  /// with that exact label.
  std::size_t LabelSlot(std::string_view label) const;

  ProfileRepository repository_;
  SnapshotOptions options_;
  std::shared_ptr<const shard::ShardedSnapshot> sharded_;
  std::uint64_t generation_ = 0;
  std::chrono::steady_clock::time_point created_at_{};
  DiversificationInstance default_instance_;
  // Label → group id as a flat open-addressing table in one arena block
  // instead of an unordered_map: slots hold g + 1 (0 = empty), the slot
  // count is a power of two at least twice the group count, collisions
  // probe linearly, and lookups compare against the group's own label —
  // the table stores no strings of its own. Duplicate labels keep the
  // first (lowest) group id, matching the map's emplace semantics.
  util::Arena label_arena_;
  std::span<GroupId> label_slots_;
  std::size_t label_mask_ = 0;  // slot count - 1
};

/// The service's current snapshot, swappable atomically while requests
/// are in flight (the reload path). Readers pay one atomic shared_ptr
/// load; they never block a swap and a swap never blocks them.
class SnapshotHolder {
 public:
  explicit SnapshotHolder(std::shared_ptr<const Snapshot> snapshot = nullptr)
      : snapshot_(std::move(snapshot)) {}

  std::shared_ptr<const Snapshot> Current() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  void Swap(std::shared_ptr<const Snapshot> next) {
    snapshot_.store(std::move(next), std::memory_order_release);
  }

 private:
  std::atomic<std::shared_ptr<const Snapshot>> snapshot_;
};

}  // namespace podium::serve

#endif  // PODIUM_SERVE_SNAPSHOT_H_
