// The traced run: the workload's seeded request sequence replayed in
// process through each layer's public functions, in serving order,
//
//   json::Parse -> SelectionRequestFromJson + CanonicalRequestKey ->
//   ResultCache::Get -> Snapshot::MakeInstance -> GreedySelector::Select |
//   SelectCustomized | ShardedSelector::Select -> ExplainUser ->
//   SerializeOutcome -> ResultCache::Put
//
// with one span per call. Setup calls (GroupIndex::Build,
// DiversificationInstance::Build, ShardedSnapshot::Build) are timed
// separately. Nothing inside the library is instrumented; spans are
// recorded around the calls, from outside.

#ifndef SELBENCH_TRACED_H_
#define SELBENCH_TRACED_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "loadgen.h"
#include "model.h"
#include "podium/profile/repository.h"
#include "podium/serve/snapshot.h"
#include "spans.h"
#include "workloads.h"

namespace selbench {

struct TracedRun {
  Tracer tracer;

  double groups_build_s = 0.0;
  double instance_build_s = 0.0;
  double shard_build_s = 0.0;

  std::size_t requests = 0;
  std::size_t cache_hits = 0;
  double hit_get_seconds = 0.0;  // ResultCache::Get calls that hit
  /// Traced bodies that differ from what the HTTP run served for the key.
  std::size_t body_mismatches = 0;
  std::vector<double> request_ms;  // per traced request, root span

  std::vector<CostSample> cost_samples;  // plain-scan misses only

  double pool_users_sum = 0.0;  // refined pools of customized requests
  std::size_t pool_count = 0;

  double shard_round1_ms_sum = 0.0;  // slowest shard of round 1
  double shard_skew_sum = 0.0;       // slowest shard over mean shard
  double shard_merge_ms_sum = 0.0;
  double shard_candidates_sum = 0.0;
  std::size_t shard_count = 0;
};

/// Times the setup layers once over `repository`.
void TraceSetup(const podium::ProfileRepository& repository,
                const podium::serve::SnapshotOptions& options, TracedRun& run);

/// Replays the plan from its start until spec.traced_requests requests or
/// `max_seconds` have passed. The local result cache has the workload's
/// capacity; with `prefill` it first receives every body `ledger` holds,
/// as the HTTP run's warm-up filled the service's cache.
void TraceRequests(const WorkloadSpec& spec, const RequestPlan& plan,
                   const std::shared_ptr<const podium::serve::Snapshot>& snapshot,
                   const BodyLedger& ledger, bool prefill, double max_seconds,
                   TracedRun& run);

}  // namespace selbench

#endif  // SELBENCH_TRACED_H_
