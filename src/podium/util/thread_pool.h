#ifndef PODIUM_UTIL_THREAD_POOL_H_
#define PODIUM_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string_view>
#include <thread>
#include <vector>

#include "podium/util/mutex.h"
#include "podium/util/thread_annotations.h"

namespace podium::util {

/// How a [0, n) range is cut into chunks. The decomposition is a pure
/// function of (n, grain) — it never depends on the thread count — so
/// per-chunk state (forked RNG streams, partial floating-point sums
/// combined in chunk order) is reproducible at any --threads setting.
/// This is the library's determinism contract; see DESIGN.md §7.
struct ChunkPlan {
  std::size_t chunk_size = 0;
  std::size_t num_chunks = 0;

  std::size_t ChunkBegin(std::size_t chunk) const { return chunk * chunk_size; }
  std::size_t ChunkEnd(std::size_t chunk, std::size_t n) const {
    const std::size_t end = (chunk + 1) * chunk_size;
    return end < n ? end : n;
  }
};

/// Plans chunks of at least `grain` items each, capped at kMaxChunks
/// chunks total so per-chunk bookkeeping stays bounded.
ChunkPlan PlanChunks(std::size_t n, std::size_t grain);

/// The chunk-count cap used by PlanChunks (enough slack to keep 64
/// hardware threads busy without work stealing).
inline constexpr std::size_t kMaxChunks = 64;

/// True while the calling thread is executing a ParallelFor body; nested
/// parallel loops detect this and run serially inline.
bool InParallelRegion();

/// True while the calling thread runs any ParallelFor body, dispatched or
/// inline; telemetry::Span keeps spans opened here out of the request trace.
bool InParallelForBody();

/// Fixed pool of worker threads executing chunked parallel-for loops.
/// There is no work stealing and no task queue: each ParallelFor cuts its
/// range with PlanChunks and the workers (plus the calling thread) claim
/// chunks off a shared atomic cursor. Which thread runs a chunk is
/// scheduling noise; chunk boundaries — and therefore anything derived
/// from the chunk index — are deterministic.
///
/// Library code should not use this class directly; call the free
/// ParallelFor() below, which short-circuits to an inline serial loop for
/// single-chunk ranges, single-thread pools and nested regions, and
/// records telemetry when enabled.
class ThreadPool {
 public:
  /// Spawns `thread_count - 1` workers (the calling thread participates
  /// in every loop, so a pool of 1 spawns nothing and runs serially).
  explicit ThreadPool(std::size_t thread_count);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  /// Workers plus the participating caller.
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Runs body(chunk_begin, chunk_end, chunk_index) for every chunk of
  /// PlanChunks(n, grain), blocking until all chunks finish. If any body
  /// throws, the exception of the lowest-indexed failing chunk is
  /// rethrown after the loop completes (remaining chunks still run).
  void ParallelFor(std::size_t n, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t,
                                            std::size_t)>& body);

  /// The process-wide pool, sized by SetGlobalThreadCount / the
  /// PODIUM_THREADS environment variable / hardware_concurrency, in that
  /// precedence order. Built lazily on first use.
  static ThreadPool& Global();

  /// Overrides the global pool size (0 restores the automatic default).
  /// Takes effect immediately: an existing global pool is torn down and
  /// rebuilt. Not safe to call while a ParallelFor is in flight.
  static void SetGlobalThreadCount(std::size_t count);

  /// The size the global pool has (or would be built with).
  static std::size_t GlobalThreadCount();

 private:
  struct Job;

  void WorkerLoop();
  static void RunChunks(Job& job);

  std::vector<std::thread> workers_;
  Mutex mutex_{"threadpool.pool"};
  CondVar work_ready_;
  CondVar work_done_;
  Job* job_ PODIUM_GUARDED_BY(mutex_) = nullptr;
  // Bumped per job; successive stack-allocated jobs can share an address,
  // so workers key off this, not the pointer.
  std::uint64_t generation_ PODIUM_GUARDED_BY(mutex_) = 0;
  bool stopping_ PODIUM_GUARDED_BY(mutex_) = false;
};

namespace internal {
extern thread_local bool t_in_inline_body;

/// Flags an inline ParallelFor body for InParallelForBody.
struct InlineBodyScope {
  InlineBodyScope() : previous(t_in_inline_body) { t_in_inline_body = true; }
  ~InlineBodyScope() { t_in_inline_body = previous; }
  const bool previous;
};

/// Telemetry + dispatch behind the ParallelFor template: records the
/// per-phase utilization gauges and runs the loop on the global pool.
void DispatchParallelFor(
    std::string_view name, std::size_t n, std::size_t grain,
    const ChunkPlan& plan,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);
}  // namespace internal

/// Chunked parallel loop over [0, n) on the global pool.
/// body(begin, end, chunk) must not touch state written by other chunks;
/// results keyed by chunk index (or by element index) are deterministic.
/// `name` labels the loop in telemetry ("parallel.<name>.*" gauges and a
/// "parallel.<name>" span). Single-chunk ranges, 1-thread pools and
/// nested calls run inline on the caller with zero dispatch cost.
template <typename Body>
void ParallelFor(std::string_view name, std::size_t n, Body&& body,
                 std::size_t grain = 1) {
  if (n == 0) return;
  const ChunkPlan plan = PlanChunks(n, grain);
  if (plan.num_chunks == 1 || InParallelRegion() ||
      ThreadPool::GlobalThreadCount() == 1) {
    const internal::InlineBodyScope inline_body;
    for (std::size_t chunk = 0; chunk < plan.num_chunks; ++chunk) {
      body(plan.ChunkBegin(chunk), plan.ChunkEnd(chunk, n), chunk);
    }
    return;
  }
  internal::DispatchParallelFor(name, n, grain, plan,
                                std::function<void(std::size_t, std::size_t,
                                                   std::size_t)>(body));
}

}  // namespace podium::util

#endif  // PODIUM_UTIL_THREAD_POOL_H_
