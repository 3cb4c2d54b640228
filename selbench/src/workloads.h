// The benchmark's workloads: which population each serves, how the server
// is configured, how load is offered, and the seeded request bodies.

#ifndef SELBENCH_WORKLOADS_H_
#define SELBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "podium/datagen/config.h"
#include "podium/serve/snapshot.h"

namespace selbench {

enum class Population { kYelpLike, kTripAdvisorLike, kShardShape };

struct WorkloadSpec {
  std::string_view name;
  Population population = Population::kYelpLike;
  std::size_t users = 0;
  /// 1 serves an unsharded snapshot; more builds the hash-partitioned one.
  std::size_t shards = 1;
  /// Client connections, one thread each, in every load phase.
  std::size_t connections = 4;
  /// The service's result-cache capacity (0 turns the cache off).
  std::size_t cache_entries = 1024;
  /// Percentile reported as the latency tail, closed and open loop. Fixed
  /// per workload so that a run completes at least SamplesNeededFor(pct)
  /// requests in each phase.
  double tail_pct = 99.0;
  /// Open loop: limit on the tail latency from the scheduled send, the
  /// rate ladder searched for the highest rate meeting it, and the fixed
  /// reference rate at which open-loop latency is reported.
  double open_limit_ms = 0.0;
  std::vector<double> ladder;
  double reference_rps = 0.0;
  /// Each connection owns the keys with `client == connection`, so no two
  /// requests for one key are ever in flight together (single-flight never
  /// coalesces them).
  bool partition_keys = false;
  /// Send every key once before timing (fills the result cache).
  bool warm_all_keys = false;
  /// Shares of --seconds given to the closed loop and to the reference
  /// rate; the open-loop ladder gets the rest.
  double closed_share = 0.4;
  double reference_share = 0.3;
  /// The traced replay stops after this many requests.
  std::size_t traced_requests = 0;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// The datagen configuration of a workload's population under `seed`.
podium::datagen::DatasetConfig PopulationConfig(const WorkloadSpec& spec,
                                                std::uint64_t seed);

/// The server configuration every workload shares with podium_serve's flag
/// defaults (quantile bucketing into 3 buckets, LBS weights, Single
/// coverage, default budget 8), plus the workload's shard count.
podium::serve::SnapshotOptions ServeSnapshotOptions(const WorkloadSpec& spec);

struct PlannedRequest {
  std::string body;  // the POST /v1/select JSON body
  std::size_t budget = 0;
  bool heap = false;       // "selector":"greedy-heap"
  bool explain = false;
  /// Resolves to a non-default instance, served through the service's
  /// instance pool (weights/coverage other than the snapshot's LBS/Single).
  bool own_instance = false;
  std::size_t client = 0;  // owning connection when keys are partitioned
};

struct RequestPlan {
  /// Distinct request bodies.
  std::vector<PlannedRequest> keys;
  /// The seeded request sequence, as indices into keys.
  std::vector<std::uint32_t> order;
  /// Every entry of order is a different key and the sequence must not be
  /// replayed from the start once used up.
  bool distinct = false;
};

/// The workload's seeded request sequence against `snapshot` (labels are
/// drawn from its groups). Deterministic in (spec, seed, snapshot).
RequestPlan PlanRequests(const WorkloadSpec& spec, std::uint64_t seed,
                         const podium::serve::Snapshot& snapshot);

}  // namespace selbench

#endif  // SELBENCH_WORKLOADS_H_
