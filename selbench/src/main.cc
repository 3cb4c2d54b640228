// selbench — the Podium selection benchmark: POST /v1/select served by an
// in-process serve::HttpServer wired as tools/podium_serve.cc wires it,
// driven over loopback by serve::HttpClient connections.
//
//   selbench --workload miss|hot|custom|shard --seed N --seconds S
//            --trace 0|1 [--spans-out FILE]
//
// One run: generate the workload's population (datagen, not timed), build
// the snapshot several times (setup_s is the median), serve, warm up, then
// measure a closed loop, an open-loop rate ladder and an open loop at a
// fixed reference rate, splitting --seconds between them. Every response
// is checked (check.h). With --trace 1 the run then replays the request
// sequence in process with one span per layer call (traced.h) and reports
// per-layer metrics instead of end-to-end ones.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {"<name>": {"value": x, "unit": "<unit>"}, ...}}

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check.h"
#include "loadgen.h"
#include "model.h"
#include "podium/datagen/generator.h"
#include "podium/json/value.h"
#include "podium/json/writer.h"
#include "podium/serve/handlers.h"
#include "podium/serve/http_server.h"
#include "podium/serve/service.h"
#include "podium/telemetry/phase.h"
#include "podium/telemetry/telemetry.h"
#include "podium/telemetry/trace.h"
#include "podium/util/stopwatch.h"
#include "podium/util/thread_pool.h"
#include "spans.h"
#include "stats.h"
#include "traced.h"
#include "workloads.h"

namespace selbench {
namespace {

/// Snapshot builds per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Keys replayed through the uncached second service.
constexpr std::size_t kReplayKeys = 8;
constexpr std::size_t kReplayKeysSharded = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "selbench: %s\nusage: selbench --workload miss|hot|custom|shard "
               "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n",
               problem.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Usage("unexpected argument " + arg);
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      values[arg] = argv[++i];
    } else {
      Usage("missing value for --" + arg);
    }
  }
  Args args;
  for (const auto& [key, value] : values) {
    char* end = nullptr;
    if (key == "workload") {
      args.workload = value;
    } else if (key == "seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
    } else if (key == "spans-out") {
      args.spans_out = value;
    } else {
      Usage("unknown flag --" + key);
    }
    if (end != nullptr && *end != '\0') Usage("bad value for --" + key);
  }
  if (args.workload.empty() || !values.count("seed") || !(args.seconds > 0.0)) {
    Usage("--workload, --seed and a positive --seconds are required");
  }
  return args;
}

double RssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

template <typename T>
T Unwrap(podium::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "selbench: %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

std::map<std::string, std::uint64_t> Counters() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] :
       podium::telemetry::MetricsRegistry::Global().Snapshot().counters) {
    out[name] = value;
  }
  return out;
}

std::uint64_t Delta(const std::map<std::string, std::uint64_t>& before,
                    const std::map<std::string, std::uint64_t>& after,
                    const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }

  void PrintTable(const char* title) const {
    std::printf("\n%s\n", title);
    for (const Metric& m : metrics_) {
      std::printf("  %-24s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  std::string Json(bool correct, std::size_t attempted,
                   std::size_t failed) const {
    podium::json::Object metrics;
    for (const Metric& m : metrics_) {
      podium::json::Object item;
      item.Set("value", podium::json::Value(m.value));
      item.Set("unit", podium::json::Value(m.unit));
      metrics.Set(m.name, podium::json::Value(std::move(item)));
    }
    podium::json::Object root;
    root.Set("correct", podium::json::Value(correct));
    root.Set("attempted", podium::json::Value(attempted));
    root.Set("failed", podium::json::Value(failed));
    root.Set("metrics", podium::json::Value(std::move(metrics)));
    return podium::json::Write(podium::json::Value(std::move(root)));
  }

 private:
  std::vector<Metric> metrics_;
};

std::vector<double> Field(const std::vector<Sample>& samples,
                          double Sample::*field, bool ok_only = true) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) {
    if (!ok_only || s.ok) out.push_back(s.*field);
  }
  return out;
}

std::size_t CountFailed(const std::vector<Sample>& samples) {
  return static_cast<std::size_t>(std::count_if(
      samples.begin(), samples.end(), [](const Sample& s) { return !s.ok; }));
}

/// One open-loop probe, judged against the workload's latency limit.
ProbeResult RunProbe(LoadGenerator& load, const WorkloadSpec& spec,
                     double rate, double seconds,
                     std::vector<Sample>& all_samples) {
  std::vector<Sample> samples = load.OpenLoop(rate, seconds);
  ProbeResult probe;
  probe.rate = rate;
  probe.sent = samples.size();
  probe.failed = CountFailed(samples);
  // Failed requests miss the limit whatever their latency.
  std::vector<double> latency;
  for (const Sample& s : samples) {
    latency.push_back(s.ok ? s.latency_ms : HUGE_VAL);
  }
  probe.tail_ms =
      Windowed(Field(samples, &Sample::due, false), latency, seconds,
               HighestSupportedPercentile(latency.size(), spec.tail_pct))
          .tail;
  probe.backlog_growing =
      BacklogGrowing(Field(samples, &Sample::late_ms, false), spec.open_limit_ms);
  probe.passed = ProbePasses(probe, spec.open_limit_ms);
  all_samples.insert(all_samples.end(), samples.begin(), samples.end());
  return probe;
}

int Run(const Args& args) {
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) Usage("unknown workload " + args.workload);
  const WorkloadSpec& spec = *found;

  // As podium_serve: global pool sized to the machine, telemetry on.
  podium::util::ThreadPool::SetGlobalThreadCount(0);
  podium::telemetry::SetEnabled(true);

  // Input generation (not timed). Everything datagen made besides the
  // repository is dropped and the heap trimmed before setup.
  std::fprintf(stderr, "selbench: generating %zu users for %s (seed %llu)\n",
               spec.users, std::string(spec.name).c_str(),
               static_cast<unsigned long long>(args.seed));
  podium::ProfileRepository repository = [&] {
    podium::datagen::Dataset dataset = Unwrap(
        podium::datagen::GenerateDataset(PopulationConfig(spec, args.seed)),
        "datagen");
    return std::move(dataset.repository);
  }();
  malloc_trim(0);

  // Setup: Snapshot::Build kSetupRepeats times (the earlier builds over
  // clones), reporting the median.
  const podium::serve::SnapshotOptions snapshot_options =
      ServeSnapshotOptions(spec);
  TracedRun traced;
  if (args.trace) TraceSetup(repository, snapshot_options, traced);
  podium::telemetry::ResetPhaseTree();
  std::vector<double> setup_seconds;
  std::shared_ptr<const podium::serve::Snapshot> snapshot;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const bool last = i + 1 == kSetupRepeats;
    podium::ProfileRepository input =
        last ? std::move(repository) : repository.Clone();
    snapshot.reset();
    malloc_trim(0);
    podium::util::Stopwatch watch;
    snapshot = Unwrap(podium::serve::Snapshot::Build(std::move(input),
                                                     snapshot_options, 1),
                      "snapshot build");
    setup_seconds.push_back(watch.ElapsedSeconds());
  }
  const podium::telemetry::PhaseStats setup_phases =
      podium::telemetry::PhaseTreeSnapshot();
  malloc_trim(0);

  const RequestPlan plan = PlanRequests(spec, args.seed, *snapshot);

  // The server, wired as podium_serve wires it with its flag defaults;
  // only the cache size and the shard count are the workload's.
  podium::serve::ServiceOptions service_options;
  service_options.max_concurrency = 4;
  service_options.max_queue_depth = 64;
  service_options.default_deadline_ms = 5000;
  service_options.cache_entries = spec.cache_entries;
  podium::serve::SelectionService service(snapshot, service_options);
  podium::serve::HttpServerOptions http_options;
  http_options.bind_address = "127.0.0.1";
  http_options.port = 0;
  http_options.worker_threads = 8;
  http_options.trace_log_every = 100;
  podium::serve::HttpServer server(http_options,
                                   podium::serve::MakeServiceHandler(service));
  if (!server.Start().ok()) {
    std::fprintf(stderr, "selbench: cannot start the server\n");
    return 1;
  }

  BodyLedger ledger(plan.keys.size());
  LoadGenerator load(server.port(), plan, spec, ledger);
  if (!load.Connect()) {
    std::fprintf(stderr, "selbench: cannot connect to the server\n");
    server.Stop();
    return 1;
  }

  std::vector<Sample> all;  // every request of every phase
  std::vector<Sample> warm = spec.warm_all_keys ? load.SendEachKey()
                                                : load.ClosedLoop(0.5);
  all.insert(all.end(), warm.begin(), warm.end());

  // Timed phases: closed loop, then the ladder, then the reference rate.
  const double closed_seconds = spec.closed_share * args.seconds;
  const double reference_seconds = spec.reference_share * args.seconds;
  const double ladder_seconds =
      args.seconds - closed_seconds - reference_seconds;
  const auto counters_before = Counters();
  podium::telemetry::ResetPhaseTree();
  podium::util::Stopwatch closed_watch;
  const std::vector<Sample> closed = load.ClosedLoop(closed_seconds);
  const double closed_elapsed = closed_watch.ElapsedSeconds();
  const auto counters_after = Counters();
  const podium::telemetry::PhaseStats serve_phases =
      podium::telemetry::PhaseTreeSnapshot();
  all.insert(all.end(), closed.begin(), closed.end());

  // An open loop cannot sustain more than the closed loop completes on the
  // same connections, so the search covers the ladder's rungs between 0.6x
  // and 1x the closed-loop rate: fewer, longer probes.
  std::size_t closed_ok = 0;
  for (const Sample& sample : closed) closed_ok += sample.ok ? 1 : 0;
  const double closed_rate = static_cast<double>(closed_ok) / closed_elapsed;
  std::vector<double> rungs;
  for (double rung : spec.ladder) {
    if (rung >= 0.6 * closed_rate && rung <= closed_rate) {
      rungs.push_back(rung);
    }
  }
  if (rungs.empty()) rungs = spec.ladder;
  const std::size_t probes = static_cast<std::size_t>(
      std::ceil(std::log2(static_cast<double>(rungs.size() + 1))));
  const double probe_seconds = ladder_seconds / static_cast<double>(probes);
  const LadderOutcome ladder = SearchLadder(rungs, [&](double rate) {
    return RunProbe(load, spec, rate, probe_seconds, all);
  });
  std::vector<Sample> reference;
  RunProbe(load, spec, spec.reference_rps, reference_seconds, reference);
  all.insert(all.end(), reference.begin(), reference.end());
  // Freed-but-cached heap pages vary with thread timing; trim them so
  // mem_mb tracks live memory (telemetry buffers included). The load
  // generator's own buffers, every sample and the first body of every key,
  // grow with the requests a run completes and are not the server's, so
  // they are left out.
  malloc_trim(0);
  const std::size_t sample_bytes =
      (warm.capacity() + closed.capacity() + reference.capacity() +
       all.capacity()) *
      sizeof(Sample);
  const double mem_mb =
      RssMiB() - static_cast<double>(sample_bytes + ledger.bytes()) /
                     (1024.0 * 1024.0);
  const std::size_t events_retained =
      podium::telemetry::GreedyTrace::Snapshot().size();
  server.Stop();

  // Output checks.
  CheckReport check = CheckServedBodies(plan, ledger, *snapshot);
  CompareWithUncachedService(
      plan, ledger, snapshot, args.seed,
      snapshot->is_sharded() ? kReplayKeysSharded : kReplayKeys, check);
  const std::set<std::uint32_t> bad_keys(check.bad_keys.begin(),
                                         check.bad_keys.end());
  std::size_t failed = 0;
  std::size_t refused = 0;
  std::size_t coalesced = 0;
  for (const Sample& s : all) {
    if (!s.ok || bad_keys.count(s.key)) ++failed;
    if (s.status == 429 || s.status == 504) ++refused;
    if (s.coalesced) ++coalesced;
  }
  std::size_t attempted = load.attempted() + check.replayed;
  for (const std::string& problem : check.problems) {
    std::fprintf(stderr, "selbench: check failed: %.300s\n", problem.c_str());
  }

  // Closed-loop figures.
  std::vector<double> latency = Field(closed, &Sample::latency_ms);
  const WindowedFigures closed_figures =
      Windowed(Field(closed, &Sample::done), latency, closed_elapsed,
               spec.tail_pct);
  const double tail_pct = spec.tail_pct;
  if (latency.size() < SamplesNeededFor(tail_pct)) {
    std::fprintf(stderr,
                 "selbench: warning: %zu closed-loop samples, p%g needs %zu\n",
                 latency.size(), tail_pct, SamplesNeededFor(tail_pct));
  }
  std::vector<double> open_latency = Field(reference, &Sample::latency_ms, false);
  const double open_pct =
      HighestSupportedPercentile(open_latency.size(), spec.tail_pct);
  const WindowedFigures open_figures =
      Windowed(Field(reference, &Sample::due, false), open_latency,
               reference_seconds, open_pct);

  std::printf("selbench %s: seed %llu, %zu users, %zu groups, %zu connections, "
              "cache %zu\n",
              std::string(spec.name).c_str(),
              static_cast<unsigned long long>(args.seed), snapshot->user_count(),
              snapshot->group_count(), spec.connections, spec.cache_entries);
  std::printf("closed loop: %zu ok of %zu in %.2f s; tail is p%g; "
              "median of %zu windows\n",
              closed_ok, closed.size(), closed_elapsed, tail_pct,
              closed_figures.windows);
  std::printf("ladder (limit %.1f ms on the tail from the scheduled send):",
              spec.open_limit_ms);
  for (const ProbeResult& p : ladder.probes) {
    std::printf(" %.0f/s:%s(%.1fms,%zu)", p.rate, p.passed ? "ok" : "FAIL",
                p.tail_ms, p.sent);
  }
  std::printf("\nreference %.1f/s: %zu requests, tail is p%g; median of %zu "
              "windows;",
              spec.reference_rps, open_latency.size(), open_pct,
              open_figures.windows);
  for (double pct : {90.0, 95.0, 99.0}) {
    if (SamplesBeyond(open_latency.size(), pct) < kMinSamplesBeyond) continue;
    std::printf(" p%g %.3f ms", pct,
                Windowed(Field(reference, &Sample::due, false), open_latency,
                         reference_seconds, pct)
                    .tail);
  }
  std::printf("\n");
  std::printf("checks: %zu keys checked, %zu replayed uncached, %zu bad keys, "
              "%zu byte mismatches, %zu coalesced, %zu refused\n",
              check.keys_checked, check.replayed, check.bad_keys.size(),
              ledger.mismatches(), coalesced, refused);
  if (ladder.sustained_rps == 0.0) {
    std::fprintf(stderr, "selbench: warning: no ladder rung met the limit\n");
  }

  // Input properties of what the closed loop sent.
  double heap = 0.0, budget_sum = 0.0, hits = 0.0;
  for (const Sample& s : closed) {
    heap += plan.keys[s.key].heap ? 1.0 : 0.0;
    budget_sum += static_cast<double>(plan.keys[s.key].budget);
    hits += s.cache_hit ? 1.0 : 0.0;
  }
  const double closed_n = std::max<double>(1.0, static_cast<double>(closed.size()));
  std::printf("inputs: hit ratio %.4f, greedy-heap share %.4f, mean budget "
              "%.2f\n",
              hits / closed_n, heap / closed_n, budget_sum / closed_n);

  Report report;
  if (!args.trace) {
    report.Add("setup_s", Median(setup_seconds), "s");
    report.Add("throughput_rps", closed_figures.rate, "req/s");
    report.Add("latency_p50_ms", closed_figures.p50, "ms");
    report.Add("latency_tail_ms", closed_figures.tail, "ms");
    report.Add("sustained_rps", ladder.sustained_rps, "req/s");
    report.Add("mem_mb", mem_mb, "MiB");
    report.Add("score_frac", check.score_frac, "ratio");
    report.PrintTable("end-to-end metrics:");
  } else {
    // The traced replay, after the untraced run so it cannot disturb it.
    TraceRequests(spec, plan, snapshot, ledger, spec.warm_all_keys,
                  0.25 * args.seconds, traced);
    attempted += traced.requests;
    failed += traced.body_mismatches;
    if (!args.spans_out.empty() && !traced.tracer.WriteJson(args.spans_out)) {
      std::fprintf(stderr, "selbench: cannot write %s\n",
                   args.spans_out.c_str());
    }
    const std::map<std::string, LayerTime> layers =
        AggregateByName(traced.tracer.spans());
    auto mean_ms = [&](const char* name) {
      const auto it = layers.find(name);
      return it == layers.end() || it->second.count == 0
                 ? 0.0
                 : it->second.total_seconds * 1e3 /
                       static_cast<double>(it->second.count);
    };
    double all_self = 0.0;
    std::printf("\ntraced self time per layer (%zu requests):\n",
                traced.requests);
    for (const auto& [name, layer] : layers) {
      std::printf("  %-20s %8zu calls %12.3f ms self %12.3f ms total\n",
                  name.c_str(), layer.count, layer.self_seconds * 1e3,
                  layer.total_seconds * 1e3);
      if (name.find(".build") == std::string::npos) {
        all_self += layer.self_seconds;
      }
    }
    const auto self_of = [&](const char* name) {
      const auto it = layers.find(name);
      return it == layers.end() ? 0.0 : it->second.self_seconds;
    };
    const double greedy_self = self_of("greedy.select") +
                               self_of("custom.select") +
                               self_of("shard.select");
    const double traced_p50 = Median(traced.request_ms);
    std::printf("traced request p50 %.3f ms beside untraced latency_p50 "
                "%.3f ms\n",
                traced_p50, closed_figures.p50);

    // Header-derived layers of the untraced closed loop.
    std::vector<double> overhead, run_ms, queue_ms, bytes;
    for (const Sample& s : closed) {
      if (!s.ok) continue;
      overhead.push_back(s.latency_ms - s.queue_ms - s.run_ms);
      if (!s.cache_hit) run_ms.push_back(s.run_ms);
      queue_ms.push_back(s.queue_ms);
      bytes.push_back(static_cast<double>(s.bytes));
    }
    const double greedy_runs = static_cast<double>(
        Delta(counters_before, counters_after, "greedy.runs"));
    const double per_run = greedy_runs > 0.0 ? 1.0 / greedy_runs : 0.0;
    const double retired = static_cast<double>(
        Delta(counters_before, counters_after, "greedy.retired_links"));
    const double pops = static_cast<double>(
        Delta(counters_before, counters_after, "greedy.heap_pops"));
    const double stale = static_cast<double>(
        Delta(counters_before, counters_after, "greedy.stale_reinserts"));
    const double rounds_s =
        podium::telemetry::SumPhaseSeconds(serve_phases, "greedy.rounds");
    double override_misses = 0.0;
    for (const Sample& s : closed) {
      if (plan.keys[s.key].own_instance && !s.cache_hit) override_misses += 1.0;
    }
    const double reuse = static_cast<double>(
        Delta(counters_before, counters_after, "serve.batch.instance_reuse"));

    std::size_t group_count = 0, links = 0;
    if (snapshot->is_sharded()) {
      group_count = snapshot->group_count();
      for (std::size_t s = 0; s < snapshot->sharded()->shard_count(); ++s) {
        links += snapshot->sharded()->shard(s).instance.groups().link_count();
      }
    } else {
      group_count = snapshot->default_instance().groups().group_count();
      links = snapshot->default_instance().groups().link_count();
    }
    const double builds = static_cast<double>(kSetupRepeats);
    const CostModel model = FitCostModel(traced.cost_samples);
    if (model.fitted && model.outliers > 0) {
      std::fprintf(stderr,
                   "selbench: warning: cost model off by more than 2x on %zu "
                   "of %zu requests\n",
                   model.outliers, traced.cost_samples.size());
    }
    const auto avg = [](double sum, std::size_t n) {
      return n == 0 ? 0.0 : sum / static_cast<double>(n);
    };

    report.Add("http.overhead_ms", Median(overhead), "ms");
    report.Add("http.response_kb", Mean(bytes) / 1024.0, "KiB");
    // Open-loop latency at the reference rate. Per-layer rather than
    // end-to-end: on a 4-vCPU virtual machine hot's microsecond-scale
    // open-loop latencies spread by 0.3 to 0.8 of their median across
    // runs, more than any end-to-end bound may allow.
    report.Add("open_p50_ms", open_figures.p50, "ms");
    report.Add("open_tail_ms", open_figures.tail, "ms");
    report.Add("loadgen.late_ms",
               Percentile(Field(reference, &Sample::late_ms, false), open_pct),
               "ms");
    report.Add("service.queue_ms", Percentile(queue_ms, tail_pct), "ms");
    report.Add("service.run_ms", Median(run_ms), "ms");
    report.Add("service.refused", static_cast<double>(refused), "count");
    report.Add("cache.hit_ratio", hits / closed_n, "ratio");
    report.Add("cache.get_us",
               avg(traced.hit_get_seconds, traced.cache_hits) * 1e6, "us");
    report.Add("json.parse_us", mean_ms("json.parse") * 1e3, "us");
    report.Add("request.decode_us", mean_ms("request.decode") * 1e3, "us");
    report.Add("request.serialize_us", mean_ms("request.serialize") * 1e3, "us");
    report.Add("groups.build_s", traced.groups_build_s, "s");
    report.Add("instance.build_s", traced.instance_build_s, "s");
    report.Add("groups.collect_s",
               podium::telemetry::SumPhaseSeconds(setup_phases,
                                                  "parallel.group_index.collect") /
                   builds,
               "s");
    report.Add("groups.bucketize_s",
               podium::telemetry::SumPhaseSeconds(setup_phases,
                                                  "parallel.group_index.bucketize") /
                   builds,
               "s");
    report.Add("groups.assign_s",
               podium::telemetry::SumPhaseSeconds(setup_phases,
                                                  "parallel.group_index.assign") /
                   builds,
               "s");
    report.Add("groups.count", static_cast<double>(group_count), "count");
    report.Add("groups.links", static_cast<double>(links), "count");
    report.Add("snapshot.memory_mb",
               static_cast<double>(snapshot->MemoryBytes()) / (1024.0 * 1024.0),
               "MiB");
    report.Add("instance.make_ms", mean_ms("instance.make"), "ms");
    report.Add("instance.reuse_ratio",
               override_misses > 0.0 ? reuse / override_misses : 0.0, "ratio");
    report.Add("greedy.select_ms", mean_ms("greedy.select"), "ms");
    report.Add("greedy.init_ms",
               podium::telemetry::SumPhaseSeconds(serve_phases, "greedy.init") *
                   1e3 * per_run,
               "ms");
    report.Add("greedy.rounds_ms", rounds_s * 1e3 * per_run, "ms");
    report.Add("greedy.score_ms",
               podium::telemetry::SumPhaseSeconds(serve_phases, "greedy.score") *
                   1e3 * per_run,
               "ms");
    report.Add("greedy.retired_links", retired * per_run, "count");
    report.Add("greedy.ns_per_link", retired > 0.0 ? rounds_s * 1e9 / retired : 0.0,
               "ns");
    report.Add("greedy.stale_ratio", pops > 0.0 ? stale / pops : 0.0, "ratio");
    report.Add("greedy.events_retained", static_cast<double>(events_retained),
               "count");
    report.Add("custom.select_ms", mean_ms("custom.select"), "ms");
    report.Add("custom.pool_users", avg(traced.pool_users_sum, traced.pool_count),
               "count");
    report.Add("explain.ms", mean_ms("explain"), "ms");
    report.Add("shard.build_s", traced.shard_build_s, "s");
    report.Add("shard.select_ms", mean_ms("shard.select"), "ms");
    report.Add("shard.round1_ms",
               avg(traced.shard_round1_ms_sum, traced.shard_count), "ms");
    report.Add("shard.skew", avg(traced.shard_skew_sum, traced.shard_count),
               "ratio");
    report.Add("shard.merge_ms",
               avg(traced.shard_merge_ms_sum, traced.shard_count), "ms");
    report.Add("shard.candidates",
               avg(traced.shard_candidates_sum, traced.shard_count), "count");
    report.Add("model.retire_ns", model.retire_seconds * 1e9, "ns");
    report.Add("model.scan_ns", model.scan_seconds * 1e9, "ns");
    report.Add("model.ser_us", model.ser_seconds * 1e6, "us");
    report.Add("model.residual", model.residual, "ratio");
    report.Add("trace.request_ms", traced_p50, "ms");
    report.Add("trace.greedy_share", all_self > 0.0 ? greedy_self / all_self : 0.0,
               "ratio");
    report.Add("input.heap_share", heap / closed_n, "ratio");
    report.Add("input.mean_budget", budget_sum / closed_n, "count");
    report.PrintTable("per-layer metrics:");
  }

  const bool correct = failed == 0 && check.bad_keys.empty() &&
                       ledger.mismatches() == 0;
  std::printf("%s\n", report.Json(correct, attempted, failed).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace selbench

int main(int argc, char** argv) {
  return selbench::Run(selbench::ParseArgs(argc, argv));
}
