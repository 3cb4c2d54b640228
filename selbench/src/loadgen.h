// Load generation against POST /v1/select over serve::HttpClient: a closed
// loop (each connection sends its next request when the previous one
// returns) and an open loop (requests are due on a fixed schedule and are
// timed from when they were due).

#ifndef SELBENCH_LOADGEN_H_
#define SELBENCH_LOADGEN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "podium/serve/http.h"
#include "workloads.h"

namespace selbench {

/// One request as the client saw it.
struct Sample {
  std::uint32_t key = 0;
  int status = 0;         // HTTP status, 0 on a transport error
  bool ok = false;        // 2xx and the body matched the key's first body
  bool cache_hit = false;
  bool coalesced = false;
  double latency_ms = 0.0;  // closed loop: send to last byte; open loop:
                            // scheduled send to last byte
  double late_ms = 0.0;     // open loop: actual send minus scheduled send
  double queue_ms = 0.0;    // X-Podium-Queue-Ms
  double run_ms = 0.0;      // X-Podium-Run-Ms
  std::size_t bytes = 0;    // response body size
  double due = 0.0;         // open loop: scheduled send, seconds into probe
  double done = 0.0;        // completion, seconds into the phase
};

/// The first body served for every key, and how many later responses for
/// the same key differed from it. Thread-safe.
class BodyLedger {
 public:
  explicit BodyLedger(std::size_t keys);

  /// Records a 2xx body for `key`; false when it differs from the first one.
  bool Record(std::uint32_t key, const std::string& body);

  const std::optional<std::string>& first(std::uint32_t key) const {
    return slots_[key].body;
  }
  std::size_t size() const { return slots_.size(); }
  std::size_t mismatches() const { return mismatches_.load(); }
  /// Bytes held by the recorded bodies.
  std::size_t bytes();

 private:
  struct Slot {
    std::mutex mutex;
    std::optional<std::string> body;
  };
  std::vector<Slot> slots_;
  std::atomic<std::size_t> mismatches_{0};
};

/// Hands out the plan's request sequence to connections: one shared cursor,
/// or, with partitioned keys, each connection walking the entries it owns.
class KeyStreams {
 public:
  KeyStreams(const RequestPlan& plan, std::size_t connections,
             bool partitioned);

  /// The next key for `connection`; nullopt once a distinct plan is used
  /// up. Non-distinct plans start over from the beginning.
  std::optional<std::uint32_t> Next(std::size_t connection);

 private:
  bool wrap_;
  bool partitioned_;
  std::vector<std::uint32_t> shared_;
  std::atomic<std::size_t> shared_cursor_{0};
  std::vector<std::vector<std::uint32_t>> own_;
  std::vector<std::size_t> own_cursor_;  // each touched by one thread only
};

class LoadGenerator {
 public:
  LoadGenerator(int port, const RequestPlan& plan, const WorkloadSpec& spec,
                BodyLedger& ledger);

  /// Opens the workload's connections; false on failure.
  bool Connect();

  /// Sends every key once, split across connections by owner.
  std::vector<Sample> SendEachKey();

  /// Closed loop for `seconds` on every connection.
  std::vector<Sample> ClosedLoop(double seconds);

  /// Open loop at `rate` requests per second for `seconds`: slot i is due
  /// at i / rate and is sent by the first free connection. Samples are
  /// returned in schedule order.
  std::vector<Sample> OpenLoop(double rate, double seconds);

  std::size_t attempted() const { return attempted_.load(); }

 private:
  Sample Send(std::size_t connection, std::uint32_t key);

  const RequestPlan& plan_;
  const WorkloadSpec& spec_;
  BodyLedger& ledger_;
  int port_;
  KeyStreams streams_;
  std::vector<std::unique_ptr<podium::serve::HttpClient>> clients_;
  std::atomic<std::size_t> attempted_{0};
};

}  // namespace selbench

#endif  // SELBENCH_LOADGEN_H_
