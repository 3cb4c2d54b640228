#include "podium/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>

// Known layering wart: the pool instruments itself (phase timers, the
// thread-count gauge), which points util/ up at telemetry/. Inverting it
// means an observer-callback seam nothing else needs yet; tolerated here,
// and only here, until a second util/ client wants telemetry.
// podium-lint: allow(layer-violation)
#include "podium/telemetry/phase.h"
// podium-lint: allow(layer-violation)
#include "podium/telemetry/telemetry.h"
#include "podium/util/mutex.h"
#include "podium/util/parse.h"
#include "podium/util/thread_annotations.h"

namespace podium::util {

namespace {

/// Set while the thread executes chunks of some loop; nested ParallelFor
/// calls observe it and run inline.
thread_local bool t_in_parallel = false;

}  // namespace

thread_local bool internal::t_in_inline_body = false;

bool InParallelRegion() { return t_in_parallel; }

bool InParallelForBody() {
  return t_in_parallel || internal::t_in_inline_body;
}

ChunkPlan PlanChunks(std::size_t n, std::size_t grain) {
  ChunkPlan plan;
  if (n == 0) return plan;
  const std::size_t min_chunk = std::max<std::size_t>(grain, 1);
  // At most kMaxChunks chunks, each at least `grain` items; ceil divisions
  // keep the last chunk the short one.
  plan.chunk_size = std::max(min_chunk, (n + kMaxChunks - 1) / kMaxChunks);
  plan.num_chunks = (n + plan.chunk_size - 1) / plan.chunk_size;
  return plan;
}

/// One ParallelFor in flight: the chunk cursor the executing threads pop
/// from, the per-chunk error slots, and the completion accounting the
/// caller blocks on. Lives on the caller's stack; workers are counted in
/// and out under the pool mutex so it cannot be freed while in use.
struct ThreadPool::Job {
  std::size_t n = 0;
  ChunkPlan plan;
  const std::function<void(std::size_t, std::size_t, std::size_t)>* body =
      nullptr;
  std::atomic<std::size_t> next_chunk{0};
  std::atomic<std::size_t> chunks_left{0};
  std::size_t active_workers = 0;  // guarded by the pool mutex
  std::vector<std::exception_ptr> errors;
};

ThreadPool::ThreadPool(std::size_t thread_count) {
  const std::size_t workers =
      thread_count > 0 ? thread_count - 1 : static_cast<std::size_t>(0);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_ready_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::RunChunks(Job& job) {
  const bool was_parallel = t_in_parallel;
  t_in_parallel = true;
  for (;;) {
    const std::size_t chunk =
        job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job.plan.num_chunks) break;
    try {
      (*job.body)(job.plan.ChunkBegin(chunk), job.plan.ChunkEnd(chunk, job.n),
                  chunk);
    } catch (...) {
      job.errors[chunk] = std::current_exception();
    }
    job.chunks_left.fetch_sub(1, std::memory_order_acq_rel);
  }
  t_in_parallel = was_parallel;
}

void ThreadPool::WorkerLoop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lock(mutex_);
      while (!stopping_ &&
             (job_ == nullptr || generation_ == seen_generation)) {
        work_ready_.Wait(lock);
      }
      if (stopping_) return;
      job = job_;
      seen_generation = generation_;
      ++job->active_workers;
    }
    RunChunks(*job);
    {
      MutexLock lock(mutex_);
      --job->active_workers;
    }
    work_done_.NotifyAll();
  }
}

void ThreadPool::ParallelFor(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  Job job;
  job.n = n;
  job.plan = PlanChunks(n, grain);
  job.body = &body;
  job.chunks_left.store(job.plan.num_chunks, std::memory_order_relaxed);
  job.errors.assign(job.plan.num_chunks, nullptr);

  const bool serial =
      workers_.empty() || t_in_parallel || job.plan.num_chunks == 1;
  if (!serial) {
    {
      MutexLock lock(mutex_);
      job_ = &job;
      ++generation_;
    }
    work_ready_.NotifyAll();
  }
  RunChunks(job);
  if (!serial) {
    MutexLock lock(mutex_);
    while (job.chunks_left.load(std::memory_order_acquire) != 0 ||
           job.active_workers != 0) {
      work_done_.Wait(lock);
    }
    job_ = nullptr;
  }
  for (std::exception_ptr& error : job.errors) {
    if (error) std::rethrow_exception(error);
  }
}

namespace {

Mutex g_global_mutex{"threadpool.global"};
std::size_t g_configured_threads PODIUM_GUARDED_BY(g_global_mutex) =
    0;  // 0 = automatic
std::unique_ptr<ThreadPool> g_global_pool PODIUM_GUARDED_BY(g_global_mutex);

std::size_t ResolveThreadCount() PODIUM_REQUIRES(g_global_mutex) {
  if (g_configured_threads > 0) return g_configured_threads;
  if (const char* env = std::getenv("PODIUM_THREADS")) {
    // Checked parse: PODIUM_THREADS=8abc or an overflowing value used to
    // be strtol-salvaged into a thread count; now anything but a whole
    // positive integer is ignored and the hardware default applies.
    const Result<std::size_t> parsed = ParseSize(env);
    if (parsed.ok() && parsed.value() > 0) return parsed.value();
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<std::size_t>(hardware);
}

}  // namespace

ThreadPool& ThreadPool::Global() {
  MutexLock lock(g_global_mutex);
  if (!g_global_pool) {
    g_global_pool = std::make_unique<ThreadPool>(ResolveThreadCount());
    if (telemetry::Enabled()) {
      telemetry::MetricsRegistry::Global().gauge("parallel.threads").Set(
          static_cast<double>(g_global_pool->thread_count()));
    }
  }
  return *g_global_pool;
}

void ThreadPool::SetGlobalThreadCount(std::size_t count) {
  MutexLock lock(g_global_mutex);
  g_configured_threads = count;
  g_global_pool.reset();  // rebuilt at the new size on next use
}

std::size_t ThreadPool::GlobalThreadCount() {
  MutexLock lock(g_global_mutex);
  return g_global_pool ? g_global_pool->thread_count() : ResolveThreadCount();
}

namespace internal {

void DispatchParallelFor(
    std::string_view name, std::size_t n, std::size_t grain,
    const ChunkPlan& plan,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  ThreadPool& pool = ThreadPool::Global();
  if (!telemetry::Enabled()) {
    pool.ParallelFor(n, grain, body);
    return;
  }
  const std::string prefix = "parallel." + std::string(name);
  auto& registry = telemetry::MetricsRegistry::Global();
  registry.counter(prefix + ".invocations").Add();
  registry.gauge(prefix + ".threads")
      .Set(static_cast<double>(std::min(pool.thread_count(), plan.num_chunks)));
  registry.gauge(prefix + ".chunks").Set(static_cast<double>(plan.num_chunks));
  telemetry::Span span(prefix);
  pool.ParallelFor(n, grain, body);
}

}  // namespace internal

}  // namespace podium::util
