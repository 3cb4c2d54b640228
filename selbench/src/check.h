// Output checks for the selection benchmark: every served body is parsed
// and checked against the snapshot it came from.
//
//   - the response carries the requested budget and B distinct users;
//   - unsharded: the reported score equals check::OracleScore of the
//     returned users under the request's weights and coverage;
//   - a seeded sample of keys is replayed through a second SelectionService
//     with the result cache off over the same snapshot, and must come back
//     byte for byte as served.
//
// Byte identity of repeated responses for one key is checked as they
// arrive (BodyLedger).

#ifndef SELBENCH_CHECK_H_
#define SELBENCH_CHECK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "loadgen.h"
#include "podium/profile/user_profile.h"
#include "podium/serve/snapshot.h"
#include "workloads.h"

namespace selbench {

/// The fields of a POST /v1/select response the checks read.
struct ServedSelection {
  bool parsed = false;
  std::size_t budget = 0;
  std::string weights;
  std::string coverage;
  double score = 0.0;
  std::vector<podium::UserId> users;
  std::size_t refined_pool = 0;  // 0 when the request was not customized
};

ServedSelection ParseServedBody(const std::string& body);

struct CheckReport {
  std::size_t keys_checked = 0;
  /// Keys whose served body failed a check.
  std::vector<std::uint32_t> bad_keys;
  /// Human-readable descriptions of the first few failures.
  std::vector<std::string> problems;
  /// Mean over checked keys of score / the whole population's score under
  /// the same weights and coverage.
  double score_frac = 0.0;
  std::size_t replayed = 0;  // keys compared against the uncached service

  void Fail(std::uint32_t key, std::string problem);
};

/// Checks the first served body of every key in `ledger`.
CheckReport CheckServedBodies(const RequestPlan& plan, const BodyLedger& ledger,
                              const podium::serve::Snapshot& snapshot);

/// Replays `sample` seeded keys that were served through a second service
/// with cache_entries = 0 over `snapshot`, adding mismatches to `report`.
void CompareWithUncachedService(
    const RequestPlan& plan, const BodyLedger& ledger,
    const std::shared_ptr<const podium::serve::Snapshot>& snapshot,
    std::uint64_t seed, std::size_t sample, CheckReport& report);

}  // namespace selbench

#endif  // SELBENCH_CHECK_H_
