// End-to-end tests of the HTTP front end: a real HttpServer on an
// ephemeral port, driven through HttpClient over loopback.

#include "podium/serve/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "podium/datagen/generator.h"
#include "podium/json/parser.h"
#include "podium/obs/trace.h"
#include "podium/serve/handlers.h"
#include "podium/serve/service.h"
#include "podium/telemetry/export.h"
#include "podium/telemetry/telemetry.h"
#include "podium/telemetry/trace.h"
#include "tests/testing/table2.h"

namespace podium::serve {
namespace {

class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::SetEnabled(true);
    telemetry::ResetAllTelemetry();

    SnapshotOptions snapshot_options;
    snapshot_options.instance.budget = 3;
    Result<std::shared_ptr<const Snapshot>> snapshot = Snapshot::Build(
        podium::testing::MakeTable2Repository(), snapshot_options,
        /*generation=*/1);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    service_ = std::make_unique<SelectionService>(std::move(snapshot).value(),
                                                  ServiceOptions{});

    HttpServerOptions http_options;
    http_options.port = 0;  // ephemeral
    http_options.worker_threads = 4;
    server_ = std::make_unique<HttpServer>(http_options,
                                           MakeServiceHandler(*service_));
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  void TearDown() override {
    server_->Stop();
    telemetry::SetEnabled(false);
    telemetry::ResetAllTelemetry();
  }

  HttpResponse RoundTrip(HttpClient& client, const std::string& method,
                         const std::string& target, std::string body = "") {
    if (!client.connected()) {
      const Status connected = client.Connect("127.0.0.1", server_->port());
      EXPECT_TRUE(connected.ok()) << connected;
    }
    HttpRequest request;
    request.method = method;
    request.target = target;
    request.body = std::move(body);
    Result<HttpResponse> response = client.RoundTrip(request);
    EXPECT_TRUE(response.ok()) << response.status();
    return response.ok() ? std::move(response).value() : HttpResponse{};
  }

  /// A second server over the same service, with caller-chosen options —
  /// for tests that need a specific worker count or an injected accept.
  std::unique_ptr<HttpServer> MakeServer(HttpServerOptions options) {
    options.port = 0;
    auto server = std::make_unique<HttpServer>(std::move(options),
                                               MakeServiceHandler(*service_));
    EXPECT_TRUE(server->Start().ok());
    EXPECT_GT(server->port(), 0);
    return server;
  }

  /// A raw loopback TCP connection, for driving the server with exact
  /// bytes (partial requests, HTTP/1.0) that HttpClient cannot produce.
  static int ConnectRaw(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<uint16_t>(port));
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr), 1);
    // podium-lint: allow(intrinsics-scope)
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                        sizeof(address)),
              0);
    return fd;
  }

  std::unique_ptr<SelectionService> service_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpServerTest, HealthzReportsSnapshot) {
  HttpClient client;
  const HttpResponse response = RoundTrip(client, "GET", "/healthz");
  EXPECT_EQ(response.status, 200);
  Result<json::Value> body = json::Parse(response.body);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(body->AsObject().Find("status")->AsString(), "ok");
  EXPECT_EQ(body->AsObject().Find("users")->AsNumber(), 5.0);
  EXPECT_EQ(body->AsObject().Find("snapshot_generation")->AsNumber(), 1.0);
  // The snapshot was built moments ago; its age is tiny but non-negative.
  const json::Value* age = body->AsObject().Find("snapshot_age_seconds");
  ASSERT_NE(age, nullptr);
  EXPECT_GE(age->AsNumber(), 0.0);
  EXPECT_LT(age->AsNumber(), 300.0);
}

TEST_F(HttpServerTest, SelectMissThenByteIdenticalCachedHit) {
  HttpClient client;
  const HttpResponse first =
      RoundTrip(client, "POST", "/v1/select", R"({"budget": 2})");
  ASSERT_EQ(first.status, 200) << first.body;
  ASSERT_NE(first.FindHeader("X-Podium-Cache"), nullptr);
  EXPECT_EQ(*first.FindHeader("X-Podium-Cache"), "miss");
  EXPECT_EQ(*first.FindHeader("X-Podium-Snapshot"), "1");
  Result<json::Value> body = json::Parse(first.body);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(body->AsObject().Find("users")->AsArray().size(), 2u);

  const HttpResponse second =
      RoundTrip(client, "POST", "/v1/select", R"({"budget": 2})");
  ASSERT_EQ(second.status, 200);
  EXPECT_EQ(*second.FindHeader("X-Podium-Cache"), "hit");
  // The cached body is byte-identical; timings travel only in headers.
  EXPECT_EQ(second.body, first.body);
  EXPECT_NE(second.FindHeader("X-Podium-Run-Ms"), nullptr);
  EXPECT_NE(second.FindHeader("X-Podium-Queue-Ms"), nullptr);
}

/// Sends a budget far beyond the population (and far beyond what could
/// ever be allocated per round) to `port`, expects every user back
/// exactly once, then checks the server still answers.
void ExpectHugeBudgetServesEveryone(int port, std::size_t users) {
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  HttpRequest huge;
  huge.method = "POST";
  huge.target = "/v1/select";
  huge.body = R"({"budget":10000000000})";
  Result<HttpResponse> response = client.RoundTrip(huge);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->status, 200) << response->body;
  Result<json::Value> body = json::Parse(response->body);
  ASSERT_TRUE(body.ok()) << body.status();
  std::vector<double> ids;
  for (const json::Value& user : body->AsObject().Find("users")->AsArray()) {
    ids.push_back(user.AsObject().Find("id")->AsNumber());
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids.size(), users);  // min(B, |U|)
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());

  HttpRequest small = huge;
  small.body = R"({"budget":2})";
  Result<HttpResponse> after = client.RoundTrip(small);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->status, 200) << after->body;
}

TEST_F(HttpServerTest, HugeBudgetIsServedAndServerKeepsServing) {
  ASSERT_TRUE(telemetry::Enabled());  // the per-round trace buffer is live
  ExpectHugeBudgetServesEveryone(server_->port(), 5);
}

TEST_F(HttpServerTest, HugeBudgetIsServedWithTwoShards) {
  SnapshotOptions snapshot_options;
  snapshot_options.instance.budget = 3;
  snapshot_options.shard.num_shards = 2;
  Result<std::shared_ptr<const Snapshot>> snapshot = Snapshot::Build(
      podium::testing::MakeTable2Repository(), snapshot_options,
      /*generation=*/2);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ASSERT_TRUE(snapshot.value()->is_sharded());
  SelectionService sharded(std::move(snapshot).value(), ServiceOptions{});
  HttpServerOptions http_options;
  http_options.port = 0;
  http_options.worker_threads = 2;
  HttpServer server(http_options, MakeServiceHandler(sharded));
  ASSERT_TRUE(server.Start().ok());
  ExpectHugeBudgetServesEveryone(server.port(), 5);
  server.Stop();
}

TEST_F(HttpServerTest, MalformedJsonIs400) {
  HttpClient client;
  const HttpResponse response =
      RoundTrip(client, "POST", "/v1/select", "{\"budget\": ");
  EXPECT_EQ(response.status, 400);
  Result<json::Value> body = json::Parse(response.body);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(body->AsObject().Find("error")->AsString(), "ParseError");
}

TEST_F(HttpServerTest, UnknownFieldIs400) {
  HttpClient client;
  const HttpResponse response =
      RoundTrip(client, "POST", "/v1/select", R"({"budgetz": 2})");
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("budgetz"), std::string::npos);
}

TEST_F(HttpServerTest, UnknownLabelIs404) {
  HttpClient client;
  const HttpResponse response = RoundTrip(
      client, "POST", "/v1/select", R"({"must_have": ["livesIn Atlantis"]})");
  EXPECT_EQ(response.status, 404);
  EXPECT_NE(response.body.find("livesIn Atlantis"), std::string::npos);
}

TEST_F(HttpServerTest, UnknownRouteIs404AndWrongMethodIs400) {
  HttpClient client;
  EXPECT_EQ(RoundTrip(client, "GET", "/v2/select").status, 404);
  EXPECT_EQ(RoundTrip(client, "GET", "/v1/select").status, 400);
  // Reload was not configured for this server.
  EXPECT_EQ(RoundTrip(client, "POST", "/v1/reload").status, 404);
}

TEST_F(HttpServerTest, MetricsExposeServeCountersAndHistograms) {
  HttpClient client;
  ASSERT_EQ(RoundTrip(client, "POST", "/v1/select", R"({"budget": 2})").status,
            200);
  ASSERT_EQ(RoundTrip(client, "POST", "/v1/select", R"({"budget": 2})").status,
            200);

  const HttpResponse response = RoundTrip(client, "GET", "/metrics");
  EXPECT_EQ(response.status, 200);
  Result<json::Value> body = json::Parse(response.body);
  ASSERT_TRUE(body.ok()) << body.status();
  const json::Object& root = body->AsObject();
  const json::Value* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->AsObject().Find("serve.cache.hits")->AsNumber(), 1.0);
  EXPECT_EQ(counters->AsObject().Find("serve.cache.misses")->AsNumber(), 1.0);
  EXPECT_EQ(counters->AsObject().Find("serve.requests")->AsNumber(), 2.0);
  const json::Value* histograms = root.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const json::Value* latency =
      histograms->AsObject().Find("serve.latency_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->AsObject().Find("count")->AsNumber(), 2.0);
}

TEST_F(HttpServerTest, MintsAWellFormedTraceIdWhenNoneIsSupplied) {
  HttpClient client;
  const HttpResponse response = RoundTrip(client, "GET", "/healthz");
  const std::string* trace_id = response.FindHeader("X-Podium-Trace-Id");
  ASSERT_NE(trace_id, nullptr);
  EXPECT_EQ(trace_id->size(), 32u);
  EXPECT_TRUE(obs::TraceId::FromHex(*trace_id).has_value()) << *trace_id;

  // A second request gets a different id.
  const HttpResponse again = RoundTrip(client, "GET", "/healthz");
  ASSERT_NE(again.FindHeader("X-Podium-Trace-Id"), nullptr);
  EXPECT_NE(*again.FindHeader("X-Podium-Trace-Id"), *trace_id);
}

TEST_F(HttpServerTest, AdoptsAClientSuppliedTraceId) {
  const std::string supplied = "4bf92f3577b34da6a3ce929d0e0e4736";
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/select";
  request.body = R"({"budget": 2})";
  request.headers.emplace_back("X-Podium-Trace-Id", supplied);
  Result<HttpResponse> response = client.RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_NE(response->FindHeader("X-Podium-Trace-Id"), nullptr);
  EXPECT_EQ(*response->FindHeader("X-Podium-Trace-Id"), supplied);

  // A malformed id is not adopted; the server mints a fresh one.
  HttpRequest bad;
  bad.method = "GET";
  bad.target = "/healthz";
  bad.headers.emplace_back("X-Podium-Trace-Id", "not-a-trace-id");
  Result<HttpResponse> bad_response = client.RoundTrip(bad);
  ASSERT_TRUE(bad_response.ok()) << bad_response.status();
  const std::string* minted = bad_response->FindHeader("X-Podium-Trace-Id");
  ASSERT_NE(minted, nullptr);
  EXPECT_NE(*minted, "not-a-trace-id");
  EXPECT_TRUE(obs::TraceId::FromHex(*minted).has_value()) << *minted;
}

TEST_F(HttpServerTest, TracesEndpointReturnsRecordedSpanTrees) {
  obs::TraceRing::Global().Clear();
  const std::string supplied = "0123456789abcdef0123456789abcdef";
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/select";
  request.body = R"({"budget": 2})";
  request.headers.emplace_back("X-Podium-Trace-Id", supplied);
  ASSERT_TRUE(client.RoundTrip(request).ok());

  const HttpResponse response =
      RoundTrip(client, "GET", "/v1/traces?limit=10");
  ASSERT_EQ(response.status, 200) << response.body;
  Result<json::Value> body = json::Parse(response.body);
  ASSERT_TRUE(body.ok()) << body.status();
  const json::Object& root = body->AsObject();
  EXPECT_EQ(root.Find("capacity")->AsNumber(), 256.0);
  const json::Value* traces = root.Find("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_TRUE(traces->is_array());
  ASSERT_FALSE(traces->AsArray().empty());

  // Most recent first: the select request is behind whatever the
  // /v1/traces request itself recorded, so search by id.
  const json::Object* select_trace = nullptr;
  for (const json::Value& entry : traces->AsArray()) {
    if (entry.AsObject().Find("trace_id")->AsString() == supplied) {
      select_trace = &entry.AsObject();
    }
  }
  ASSERT_NE(select_trace, nullptr);
  EXPECT_EQ(select_trace->Find("method")->AsString(), "POST");
  EXPECT_EQ(select_trace->Find("path")->AsString(), "/v1/select");
  EXPECT_EQ(select_trace->Find("status")->AsNumber(), 200.0);
  EXPECT_GE(select_trace->Find("duration_seconds")->AsNumber(), 0.0);

  // The span tree nests select -> admission/run under the handler.
  const json::Value* spans = select_trace->Find("spans");
  ASSERT_NE(spans, nullptr);
  std::vector<std::string> names;
  for (const json::Value& span : spans->AsArray()) {
    names.push_back(span.AsObject().Find("name")->AsString());
    EXPECT_GE(span.AsObject().Find("duration_seconds")->AsNumber(), 0.0);
    EXPECT_NE(span.AsObject().Find("parent"), nullptr);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "select"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "run"), names.end());

  // An unsharded miss runs Algorithm 1 inside "run": its greedy phases are
  // spans of the request trace, each with "run" as an ancestor.
  const json::Array& span_list = spans->AsArray();
  const auto has_run_ancestor = [&](std::size_t index) {
    int parent = static_cast<int>(
        span_list[index].AsObject().Find("parent")->AsNumber());
    while (parent >= 0) {
      const json::Object& span =
          span_list[static_cast<std::size_t>(parent)].AsObject();
      if (span.Find("name")->AsString() == "run") return true;
      parent = static_cast<int>(span.Find("parent")->AsNumber());
    }
    return false;
  };
  for (const char* phase : {"greedy.init", "greedy.rounds", "greedy.score"}) {
    const auto it = std::find(names.begin(), names.end(), phase);
    ASSERT_NE(it, names.end()) << phase;
    EXPECT_TRUE(has_run_ancestor(
        static_cast<std::size_t>(std::distance(names.begin(), it))))
        << phase;
  }
}

TEST_F(HttpServerTest, TracesEndpointRejectsBadLimit) {
  HttpClient client;
  EXPECT_EQ(RoundTrip(client, "GET", "/v1/traces?limit=banana").status, 400);
}

TEST_F(HttpServerTest, PrometheusFormatRendersTextExposition) {
  HttpClient client;
  ASSERT_EQ(RoundTrip(client, "POST", "/v1/select", R"({"budget": 2})").status,
            200);

  const HttpResponse response =
      RoundTrip(client, "GET", "/metrics?format=prometheus");
  ASSERT_EQ(response.status, 200) << response.body;
  ASSERT_NE(response.FindHeader("Content-Type"), nullptr);
  EXPECT_EQ(*response.FindHeader("Content-Type"),
            "text/plain; version=0.0.4");
  EXPECT_NE(response.body.find("# TYPE serve_requests counter\n"),
            std::string::npos);
  EXPECT_NE(response.body.find("serve_requests 1\n"), std::string::npos);
  // Labeled per-endpoint series and cumulative histogram suffixes.
  EXPECT_NE(response.body.find(
                "serve_http_responses{code=\"200\"}"),
            std::string::npos);
  EXPECT_NE(response.body.find(
                "serve_http_request_seconds_bucket{path=\"/v1/select\","
                "le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(response.body.find("serve_latency_seconds_sum"),
            std::string::npos);
  EXPECT_NE(response.body.find("serve_latency_seconds_count 1\n"),
            std::string::npos);

  // JSON stays the default; unknown formats are rejected.
  const HttpResponse json_response =
      RoundTrip(client, "GET", "/metrics?format=json");
  EXPECT_EQ(json_response.status, 200);
  EXPECT_TRUE(json::Parse(json_response.body).ok());
  EXPECT_EQ(RoundTrip(client, "GET", "/metrics?format=xml").status, 400);
}

TEST_F(HttpServerTest, ConnectionCloseIsHonored) {
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  HttpRequest request;
  request.method = "GET";
  request.target = "/healthz";
  request.headers.emplace_back("Connection", "close");
  Result<HttpResponse> response = client.RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_NE(response->FindHeader("Connection"), nullptr);
  EXPECT_EQ(*response->FindHeader("Connection"), "close");
  // The server hangs up; the next round trip on this connection fails.
  HttpRequest again;
  again.method = "GET";
  again.target = "/healthz";
  EXPECT_FALSE(client.RoundTrip(again).ok());
}

TEST_F(HttpServerTest, ConcurrentClientsAllSucceed) {
  constexpr int kClients = 6;
  constexpr int kRequestsEach = 30;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([this, t] {
      HttpClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
      std::string expected_body;
      for (int i = 0; i < kRequestsEach; ++i) {
        HttpRequest request;
        request.method = "POST";
        request.target = "/v1/select";
        request.body = "{\"budget\": " + std::to_string(2 + t % 3) + "}";
        Result<HttpResponse> response = client.RoundTrip(request);
        ASSERT_TRUE(response.ok()) << response.status();
        ASSERT_EQ(response->status, 200) << response->body;
        if (expected_body.empty()) {
          expected_body = response->body;
        } else {
          EXPECT_EQ(response->body, expected_body);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(telemetry::MetricsRegistry::Global()
                .counter("serve.requests")
                .Value(),
            static_cast<std::uint64_t>(kClients) * kRequestsEach);
  EXPECT_EQ(
      telemetry::MetricsRegistry::Global().counter("serve.errors").Value(),
      0u);
}

TEST_F(HttpServerTest, StopUnblocksIdleConnections) {
  // A connected but idle client must not wedge Stop(): the server shuts
  // the socket down and joins its workers.
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_EQ(RoundTrip(client, "GET", "/healthz").status, 200);
  server_->Stop();  // TearDown's second Stop() is a no-op
}

TEST_F(HttpServerTest, ConnectionCloseTokenIsCaseInsensitive) {
  for (const char* value : {"CLOSE", "cLoSe", "Close"}) {
    HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    HttpRequest request;
    request.method = "GET";
    request.target = "/healthz";
    request.headers.emplace_back("Connection", value);
    Result<HttpResponse> response = client.RoundTrip(request);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->status, 200);
    // The server hangs up after the response.
    HttpRequest again;
    again.method = "GET";
    again.target = "/healthz";
    EXPECT_FALSE(client.RoundTrip(again).ok()) << "token: " << value;
  }
}

TEST_F(HttpServerTest, ConnectionCloseIsFoundInCommaList) {
  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  HttpRequest request;
  request.method = "GET";
  request.target = "/healthz";
  request.headers.emplace_back("Connection", "keep-alive, Close");
  Result<HttpResponse> response = client.RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 200);
  HttpRequest again;
  again.method = "GET";
  again.target = "/healthz";
  EXPECT_FALSE(client.RoundTrip(again).ok());
}

TEST_F(HttpServerTest, Http10DefaultsToCloseUnlessKeepAlive) {
  // Plain HTTP/1.0: implicit close after the response.
  {
    HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    HttpRequest request;
    request.method = "GET";
    request.target = "/healthz";
    request.version = "HTTP/1.0";
    Result<HttpResponse> response = client.RoundTrip(request);
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->status, 200);
    HttpRequest again;
    again.method = "GET";
    again.target = "/healthz";
    EXPECT_FALSE(client.RoundTrip(again).ok());
  }
  // HTTP/1.0 with an explicit keep-alive token: the connection survives.
  {
    HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    for (int i = 0; i < 2; ++i) {
      HttpRequest request;
      request.method = "GET";
      request.target = "/healthz";
      request.version = "HTTP/1.0";
      request.headers.emplace_back("Connection", "keep-alive");
      Result<HttpResponse> response = client.RoundTrip(request);
      ASSERT_TRUE(response.ok()) << response.status() << " round " << i;
      EXPECT_EQ(response->status, 200);
    }
  }
}

TEST_F(HttpServerTest, AcceptFailuresBackOffAndRecover) {
  // The first two accepts fail with EMFILE (injected); the server must
  // count them, pause, and still serve the connection afterwards — the
  // old design's accept loop exited permanently on this.
  auto failures_left = std::make_shared<std::atomic<int>>(2);
  HttpServerOptions options;
  options.worker_threads = 2;
  options.accept_backoff_ms = 5;
  options.accept_fn = [failures_left](int listen_fd) {
    if (failures_left->fetch_sub(1, std::memory_order_relaxed) > 0) {
      errno = EMFILE;
      return -1;
    }
    return ::accept4(listen_fd, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
  };
  std::unique_ptr<HttpServer> server = MakeServer(std::move(options));

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  HttpRequest request;
  request.method = "GET";
  request.target = "/healthz";
  Result<HttpResponse> response = client.RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 200);
  EXPECT_GE(telemetry::MetricsRegistry::Global()
                .counter("serve.http.accept_failures")
                .Value(),
            2u);
  server->Stop();
}

TEST_F(HttpServerTest, ConcurrentStopsAllWaitForShutdown) {
  // Racing Stop() calls: exactly one shuts down, the others must block
  // until it has finished (the old design double-joined the same threads).
  constexpr int kStoppers = 4;
  std::vector<std::thread> stoppers;
  stoppers.reserve(kStoppers);
  for (int i = 0; i < kStoppers; ++i) {
    stoppers.emplace_back([this] { server_->Stop(); });
  }
  for (std::thread& stopper : stoppers) stopper.join();
  // After every Stop() returned the server is gone for real.
  HttpClient client;
  EXPECT_FALSE(client.Connect("127.0.0.1", server_->port()).ok());
}

TEST_F(HttpServerTest, SlowLorisDoesNotStarveOtherClients) {
  // A connection trickling a never-completing request head must cost a
  // buffer, not a worker: with 2 workers and one loris, full requests
  // keep flowing.
  HttpServerOptions options;
  options.worker_threads = 2;
  std::unique_ptr<HttpServer> server = MakeServer(std::move(options));

  const int loris = ConnectRaw(server->port());
  ASSERT_GE(loris, 0);
  const std::string partial = "POST /v1/select HTTP/1.1\r\nContent-Le";
  ASSERT_EQ(::send(loris, partial.data(), partial.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(partial.size()));

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  std::atomic<int> ok_count{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&ok_count, port = server->port()] {
      HttpClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
      for (int i = 0; i < 5; ++i) {
        HttpRequest request;
        request.method = "GET";
        request.target = "/healthz";
        Result<HttpResponse> response = client.RoundTrip(request);
        ASSERT_TRUE(response.ok()) << response.status();
        ASSERT_EQ(response->status, 200);
        ++ok_count;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(ok_count.load(), kClients * 5);

  // Trickle one more byte, then finish the request: the loris still gets
  // served once its request finally completes.
  const std::string rest = "ngth: 2\r\n\r\n{}";
  ASSERT_EQ(::send(loris, rest.data(), rest.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(rest.size()));
  char byte = 0;
  EXPECT_GT(::recv(loris, &byte, 1, 0), 0);  // response bytes arrive
  ::close(loris);
  server->Stop();
}

TEST_F(HttpServerTest, IdleKeepAliveConnectionsDoNotHoldWorkers) {
  // One worker thread, several parked keep-alive connections: under the
  // old thread-per-connection design the second client would wait
  // forever; under the event loop idle connections cost no worker.
  HttpServerOptions options;
  options.worker_threads = 1;
  std::unique_ptr<HttpServer> server = MakeServer(std::move(options));

  constexpr int kClients = 4;
  std::vector<std::unique_ptr<HttpClient>> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<HttpClient>());
    ASSERT_TRUE(clients.back()->Connect("127.0.0.1", server->port()).ok());
  }
  // All connections stay open; requests round-robin across them twice,
  // including in reverse order, and every one is served.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kClients; ++i) {
      const int pick = round == 0 ? i : kClients - 1 - i;
      HttpRequest request;
      request.method = "GET";
      request.target = "/healthz";
      Result<HttpResponse> response = clients[pick]->RoundTrip(request);
      ASSERT_TRUE(response.ok()) << response.status();
      EXPECT_EQ(response->status, 200);
    }
  }
  server->Stop();
}

TEST_F(HttpServerTest, HandlerExceptionIs500AndServerKeepsServing) {
  obs::TraceRing::Global().Clear();
  HttpServerOptions options;
  options.port = 0;
  options.worker_threads = 1;  // the worker that caught must serve again
  HttpServer server(options, [](const HttpRequest& request) {
    if (request.target == "/throw") throw std::runtime_error("boom");
    HttpResponse response;
    response.status = 200;
    response.reason = "OK";
    response.body = "ok";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  HttpClient first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server.port()).ok());
  HttpRequest request;
  request.method = "GET";
  request.target = "/throw";
  Result<HttpResponse> failed = first.RoundTrip(request);
  ASSERT_TRUE(failed.ok()) << failed.status();
  EXPECT_EQ(failed->status, 500);
  Result<json::Value> body = json::Parse(failed->body);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(body->AsObject().Find("error")->AsString(), "Internal");
  EXPECT_EQ(telemetry::MetricsRegistry::Global()
                .counter("serve.worker.exceptions")
                .Value(),
            1u);
  const std::vector<obs::FinishedTrace> traces =
      obs::TraceRing::Global().Snapshot(1);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].path, "/throw");
  EXPECT_EQ(traces[0].http_status, 500);

  HttpClient second;
  ASSERT_TRUE(second.Connect("127.0.0.1", server.port()).ok());
  request.target = "/fine";
  Result<HttpResponse> served = second.RoundTrip(request);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(served->status, 200);
  server.Stop();
}

TEST_F(HttpServerTest, GreedyTraceStaysBoundedUnderManyMisses) {
  // Enough uncached full-budget selections that their rounds overflow the
  // greedy trace's capacity.
  constexpr std::size_t kUsers = 1200;
  datagen::DatasetConfig config = datagen::DatasetConfig::TripAdvisorLike();
  config.num_users = kUsers;
  config.seed = 7;
  Result<datagen::Dataset> dataset = datagen::GenerateDataset(config);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  Result<std::shared_ptr<const Snapshot>> snapshot = Snapshot::Build(
      std::move(dataset->repository), SnapshotOptions{}, /*generation=*/1);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ServiceOptions service_options;
  service_options.cache_entries = 0;
  SelectionService service(std::move(snapshot).value(), service_options);
  HttpServerOptions http_options;
  http_options.port = 0;
  http_options.worker_threads = 2;
  HttpServer server(http_options, MakeServiceHandler(service));
  ASSERT_TRUE(server.Start().ok());

  HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  HttpRequest select;
  select.method = "POST";
  select.target = "/v1/select";
  select.body = "{\"budget\": " + std::to_string(kUsers) + "}";
  const std::size_t misses = telemetry::GreedyTrace::kCapacity / kUsers + 2;
  for (std::size_t i = 0; i < misses; ++i) {
    Result<HttpResponse> response = client.RoundTrip(select);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->status, 200) << response->body;
    ASSERT_EQ(*response->FindHeader("X-Podium-Cache"), "miss");
  }

  // The whole ring (?greedy_trace=all) outgrows HttpClient's 4 MiB body
  // limit; read it over a raw connection with a larger one.
  const int fd = ConnectRaw(server.port());
  HttpRequest scrape;
  scrape.method = "GET";
  scrape.target = "/metrics?greedy_trace=all";
  scrape.headers.emplace_back("Connection", "close");
  ASSERT_TRUE(WriteAll(fd, SerializeRequest(scrape)).ok());
  BufferedReader reader(fd);
  HttpLimits limits;
  limits.max_body_bytes = 256u << 20;
  Result<HttpResponse> metrics = ReadHttpResponse(reader, limits);
  ::close(fd);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  ASSERT_EQ(metrics->status, 200);
  Result<json::Value> body = json::Parse(metrics->body);
  ASSERT_TRUE(body.ok()) << body.status();
  const json::Object& root = body->AsObject();

  const double rounds = root.Find("counters")
                            ->AsObject()
                            .Find("greedy.rounds")
                            ->AsNumber();
  ASSERT_EQ(rounds, static_cast<double>(misses * kUsers));
  const std::size_t retained = root.Find("greedy_trace")->AsArray().size();
  EXPECT_EQ(retained, telemetry::GreedyTrace::kCapacity);
  EXPECT_EQ(root.Find("greedy_trace_dropped")->AsNumber(),
            rounds - static_cast<double>(retained));
  const json::Object& gauges = root.Find("gauges")->AsObject();
  EXPECT_EQ(gauges.Find("telemetry.greedy_trace.retained")->AsNumber(),
            static_cast<double>(retained));
  ASSERT_NE(gauges.Find("obs.trace_ring.retained"), nullptr);
  EXPECT_GE(gauges.Find("obs.trace_ring.retained")->AsNumber(), 1.0);

  // A default scrape carries only the newest events, and the same count
  // of evictions.
  HttpRequest bounded;
  bounded.method = "GET";
  bounded.target = "/metrics";
  Result<HttpResponse> small = client.RoundTrip(bounded);
  ASSERT_TRUE(small.ok()) << small.status();
  ASSERT_EQ(small->status, 200);
  EXPECT_LT(small->body.size(), metrics->body.size() / 100);
  Result<json::Value> small_body = json::Parse(small->body);
  ASSERT_TRUE(small_body.ok()) << small_body.status();
  const json::Array& newest =
      small_body->AsObject().Find("greedy_trace")->AsArray();
  ASSERT_EQ(newest.size(), 256u);
  EXPECT_EQ(newest.back().AsObject().Find("round")->AsNumber(),
            static_cast<double>(kUsers - 1));
  EXPECT_EQ(small_body->AsObject().Find("greedy_trace_dropped")->AsNumber(),
            rounds - static_cast<double>(retained));
  bounded.target = "/metrics?greedy_trace=some";
  Result<HttpResponse> rejected = client.RoundTrip(bounded);
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  EXPECT_EQ(rejected->status, 400);
  server.Stop();
}

TEST_F(HttpServerTest, MetricsReportResidentBytes) {
#ifndef __linux__
  GTEST_SKIP() << "process.resident_bytes is read from /proc/self/statm";
#endif
  HttpClient client;
  const HttpResponse response = RoundTrip(client, "GET", "/metrics");
  ASSERT_EQ(response.status, 200);
  Result<json::Value> body = json::Parse(response.body);
  ASSERT_TRUE(body.ok()) << body.status();
  const json::Value* resident =
      body->AsObject().Find("gauges")->AsObject().Find(
          "process.resident_bytes");
  ASSERT_NE(resident, nullptr);
  EXPECT_GT(resident->AsNumber(), 0.0);

  const HttpResponse text =
      RoundTrip(client, "GET", "/metrics?format=prometheus");
  ASSERT_EQ(text.status, 200);
  EXPECT_NE(text.body.find("\nprocess_resident_bytes "), std::string::npos)
      << text.body;
}

}  // namespace
}  // namespace podium::serve
