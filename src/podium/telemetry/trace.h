#ifndef PODIUM_TELEMETRY_TRACE_H_
#define PODIUM_TELEMETRY_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace podium::telemetry {

/// One round of Algorithm 1 as the GreedySelector executed it: which user
/// won the argmax, at what marginal gain, and what the selection cost in
/// data-structure work. Recorded only while telemetry is enabled.
struct GreedyRoundEvent {
  /// Distinguishes Select() invocations within one process (monotonically
  /// increasing across all GreedySelector runs).
  std::uint32_t run = 0;
  /// 0-based round within the run; equals the user's index in the returned
  /// Selection::users.
  std::uint32_t round = 0;
  /// The chosen user's id.
  std::uint32_t user = 0;
  /// Marginal gain of the chosen user at selection time. For scalar weights
  /// this is the tier-0 ("priority") gain; for EBS runs it is the number of
  /// alive groups still covered by the user (EBS gains are rank sets, not
  /// scalars).
  double gain = 0.0;
  /// Tier-1 ("standard") gain of the customized score; 0 for base runs.
  double gain_secondary = 0.0;
  /// user↔group links retired because this choice killed their group
  /// (remaining coverage hit zero).
  std::uint32_t retired_links = 0;
  /// Groups whose remaining coverage hit zero this round.
  std::uint32_t retired_groups = 0;
};

/// Process-wide sink for greedy selection traces, bounded: it keeps the
/// newest kCapacity events (2.5 MiB), counts evictions in the
/// "telemetry.greedy_trace.dropped" counter and exports its size as the
/// "telemetry.greedy_trace.retained" gauge.
class GreedyTrace {
 public:
  static constexpr std::size_t kCapacity = 65536;

  /// Reserves a fresh run id (callers stamp it into their events).
  static std::uint32_t NextRunId();

  static void Record(const GreedyRoundEvent& event);
  static void Record(const std::vector<GreedyRoundEvent>& events);

  /// The newest `limit` retained events (all of them by default), oldest
  /// first.
  static std::vector<GreedyRoundEvent> Snapshot(std::size_t limit = kCapacity);
  static void Clear();
};

}  // namespace podium::telemetry

#endif  // PODIUM_TELEMETRY_TRACE_H_
