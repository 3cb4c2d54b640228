#ifndef PODIUM_SERVE_HTTP_SERVER_H_
#define PODIUM_SERVE_HTTP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "podium/serve/event_loop.h"
#include "podium/serve/http.h"
#include "podium/util/mutex.h"
#include "podium/util/status.h"
#include "podium/util/thread_annotations.h"

namespace podium::serve {

struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back via port() after Start().
  int port = 0;
  /// Threads running the handler. Unlike the old blocking design they are
  /// busy only while a request is being handled — idle keep-alive
  /// connections are parked in the event loop, not on a thread — so this
  /// bounds concurrent handling, not concurrent clients.
  std::size_t worker_threads = 8;
  HttpLimits limits;
  /// When > 0, every Nth request's access-log line also carries its span
  /// tree (a sampled trace), so production logs show where time went
  /// without logging every request's spans.
  std::size_t trace_log_every = 0;
  /// Pause before retrying accept() after fd exhaustion (EventLoopOptions
  /// passthrough).
  int accept_backoff_ms = 50;
  /// Test-only accept override (EventLoopOptions passthrough).
  std::function<int(int listen_fd)> accept_fn;
};

/// HTTP/1.1 server over an epoll event loop (EventLoop): one loop thread
/// accepts and parses requests incrementally as bytes arrive and writes
/// responses without blocking, a bounded worker pool runs the handler for
/// complete requests. The handler must be thread-safe; it is invoked
/// concurrently from every worker.
///
/// Every request runs under a request-scoped trace (podium::obs): the
/// X-Podium-Trace-Id request header is adopted when it parses as 32 hex
/// chars, minted otherwise, always echoed on the response, and the
/// finished span tree — including an "http.queue" span for the time the
/// parsed request waited for a worker — is recorded into
/// obs::TraceRing::Global() (served by GET /v1/traces). Each request also
/// emits an info-level structured access-log line stamped with the trace
/// id.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpServer(HttpServerOptions options, Handler handler);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens and spawns the event loop + workers. port() is valid
  /// after an OK return.
  [[nodiscard]] Status Start();

  /// Shuts down: stops accepting, closes every connection, joins the loop
  /// thread and every worker. Idempotent AND safe under concurrent
  /// callers: exactly one performs the shutdown, every other caller
  /// blocks until it has finished (nobody double-joins).
  void Stop() PODIUM_EXCLUDES(mutex_);

  int port() const { return port_; }

  /// Blocks until Stop() is called from another thread (or a signal
  /// handler); the serve tool's main loop.
  void Wait() PODIUM_EXCLUDES(mutex_);

 private:
  enum class State { kIdle, kRunning, kStopping, kStopped };

  /// Runs handler_ under a fresh TraceContext, records the finished trace
  /// (with the worker-pool queue delay as an "http.queue" span) and the
  /// access-log line, and stamps the trace id on the response. An
  /// exception escaping handler_ becomes a 500 JSON error (counted in
  /// serve.worker.exceptions) instead of terminating the process.
  HttpResponse DispatchTraced(const HttpRequest& request,
                              double queue_seconds);

  HttpServerOptions options_;
  Handler handler_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<std::uint64_t> request_count_{0};
  std::unique_ptr<EventLoop> loop_;

  util::Mutex mutex_{"serve.http_server.lifecycle"};
  util::CondVar stopped_;
  State state_ PODIUM_GUARDED_BY(mutex_) = State::kIdle;
};

}  // namespace podium::serve

#endif  // PODIUM_SERVE_HTTP_SERVER_H_
