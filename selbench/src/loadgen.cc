#include "loadgen.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <thread>
#include <utility>

namespace selbench {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double HeaderMs(const podium::serve::HttpResponse& response,
                std::string_view name) {
  const std::string* value = response.FindHeader(name);
  return value == nullptr ? 0.0 : std::strtod(value->c_str(), nullptr);
}

/// Runs body(c) on one thread per connection and concatenates their
/// samples in connection order.
/// Samples are kept in a deque while a phase runs: growing a vector of
/// hundreds of thousands would stall the sending thread on a copy.
using SampleLog = std::deque<Sample>;

template <typename Body>
std::vector<Sample> OnEveryConnection(std::size_t connections, Body body) {
  std::vector<SampleLog> per(connections);
  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&per, &body, c] {
      // Wake from sleep_until within 1 us instead of the default 50 us
      // timer slack, so the open-loop schedule holds at high rates.
      prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
      per[c] = body(c);
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<Sample> all;
  for (SampleLog& samples : per) {
    all.insert(all.end(), samples.begin(), samples.end());
  }
  return all;
}

}  // namespace

BodyLedger::BodyLedger(std::size_t keys) : slots_(keys) {}

bool BodyLedger::Record(std::uint32_t key, const std::string& body) {
  Slot& slot = slots_[key];
  std::lock_guard<std::mutex> lock(slot.mutex);
  if (!slot.body.has_value()) {
    slot.body = body;
    return true;
  }
  if (*slot.body == body) return true;
  mismatches_.fetch_add(1);
  return false;
}

std::size_t BodyLedger::bytes() {
  std::size_t total = 0;
  for (Slot& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.body.has_value()) total += slot.body->capacity();
  }
  return total;
}

KeyStreams::KeyStreams(const RequestPlan& plan, std::size_t connections,
                       bool partitioned)
    : wrap_(!plan.distinct), partitioned_(partitioned) {
  if (!partitioned_) {
    shared_ = plan.order;
    return;
  }
  own_.resize(connections);
  own_cursor_.assign(connections, 0);
  for (std::uint32_t key : plan.order) {
    own_[plan.keys[key].client % connections].push_back(key);
  }
}

std::optional<std::uint32_t> KeyStreams::Next(std::size_t connection) {
  const std::vector<std::uint32_t>& stream =
      partitioned_ ? own_[connection] : shared_;
  if (stream.empty()) return std::nullopt;
  const std::size_t i = partitioned_ ? own_cursor_[connection]++
                                     : shared_cursor_.fetch_add(1);
  if (i >= stream.size() && !wrap_) return std::nullopt;
  return stream[i % stream.size()];
}

LoadGenerator::LoadGenerator(int port, const RequestPlan& plan,
                             const WorkloadSpec& spec, BodyLedger& ledger)
    : plan_(plan),
      spec_(spec),
      ledger_(ledger),
      port_(port),
      streams_(plan, spec.connections, spec.partition_keys) {}

bool LoadGenerator::Connect() {
  for (std::size_t c = 0; c < spec_.connections; ++c) {
    auto client = std::make_unique<podium::serve::HttpClient>();
    if (!client->Connect("127.0.0.1", port_).ok()) return false;
    clients_.push_back(std::move(client));
  }
  return true;
}

Sample LoadGenerator::Send(std::size_t connection, std::uint32_t key) {
  podium::serve::HttpRequest request;
  request.method = "POST";
  request.target = "/v1/select";
  request.headers.emplace_back("Content-Type", "application/json");
  request.body = plan_.keys[key].body;

  Sample sample;
  sample.key = key;
  attempted_.fetch_add(1);
  podium::serve::HttpClient& client = *clients_[connection];
  const Clock::time_point start = Clock::now();
  podium::Result<podium::serve::HttpResponse> response =
      client.RoundTrip(request);
  sample.latency_ms = MsBetween(start, Clock::now());
  if (!response.ok()) {
    // Reconnect so one broken connection does not fail the rest of the run.
    client.Close();
    (void)client.Connect("127.0.0.1", port_);
    return sample;
  }
  sample.status = response->status;
  sample.bytes = response->body.size();
  sample.queue_ms = HeaderMs(*response, "X-Podium-Queue-Ms");
  sample.run_ms = HeaderMs(*response, "X-Podium-Run-Ms");
  const std::string* cache = response->FindHeader("X-Podium-Cache");
  sample.cache_hit = cache != nullptr && *cache == "hit";
  sample.coalesced = response->FindHeader("X-Podium-Coalesced") != nullptr;
  sample.ok = sample.status / 100 == 2 && ledger_.Record(key, response->body);
  return sample;
}

std::vector<Sample> LoadGenerator::SendEachKey() {
  return OnEveryConnection(spec_.connections, [this](std::size_t c) {
    SampleLog samples;
    for (std::uint32_t key = 0; key < plan_.keys.size(); ++key) {
      const std::size_t owner = spec_.partition_keys
                                    ? plan_.keys[key].client
                                    : key;
      if (owner % spec_.connections == c) samples.push_back(Send(c, key));
    }
    return samples;
  });
}

std::vector<Sample> LoadGenerator::ClosedLoop(double seconds) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  return OnEveryConnection(spec_.connections, [&](std::size_t c) {
    SampleLog samples;
    while (Clock::now() < end) {
      const std::optional<std::uint32_t> key = streams_.Next(c);
      if (!key.has_value()) break;
      samples.push_back(Send(c, *key));
      samples.back().done = MsBetween(start, Clock::now()) / 1e3;
    }
    return samples;
  });
}

std::vector<Sample> LoadGenerator::OpenLoop(double rate, double seconds) {
  const auto slots = static_cast<std::size_t>(rate * seconds);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  // Slots are claimed in schedule order by whichever connection is free
  // first, so one slow response delays only the slots no other connection
  // can take. Each connection still sends keys from its own stream.
  std::atomic<std::size_t> next_slot{0};
  std::vector<Sample> samples =
      OnEveryConnection(spec_.connections, [&](std::size_t c) {
        SampleLog mine;
        for (std::size_t i = next_slot.fetch_add(1); i < slots;
             i = next_slot.fetch_add(1)) {
          const double due = static_cast<double>(i) / rate;
          const Clock::time_point due_at =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(due));
          std::this_thread::sleep_until(due_at);
          const std::optional<std::uint32_t> key = streams_.Next(c);
          if (!key.has_value()) break;
          const Clock::time_point sent = Clock::now();
          Sample sample = Send(c, *key);
          sample.due = due;
          sample.late_ms = MsBetween(due_at, sent);
          sample.latency_ms += sample.late_ms;
          mine.push_back(sample);
        }
        return mine;
      });
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.due < b.due; });
  return samples;
}

}  // namespace selbench
