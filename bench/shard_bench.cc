// Sharded-engine scalability: partitioned snapshot build + two-round
// distributed selection (podium::shard, DESIGN.md §13) over a synthetic
// population of --users, swept across shard counts.
//
//   shard_bench [--users=200000] [--shards=1,2,4,8] [--budget=16]
//               [--strategy=hash|group-affine] [--repeats=3] [--seed=7]
//               [--threads=N] [--bench-out=BENCH_shard.json]
//               [--telemetry-out=PATH]
//
// Per shard count the table reports the parallel snapshot build (scheme +
// partition + K arena-backed shard instances), the two-round selection
// (median of --repeats), the merge-round candidate count, the first-round
// skew (slowest shard / mean shard seconds), and the merged score's ratio
// to the K=1 score — the observed counterpart of the proven
// (1−1/e)²/min(K,B) floor. --bench-out writes the canonical BENCH_*.json
// artifact (bench/common/bench_report.h) for tools/podium_benchdiff; per
// K it also carries one row per build layer (seconds from the phase tree,
// per-shard layers summed over shards) and the resident bytes per user
// that releasing the built snapshot returns.
//
// K=1 is the single-snapshot engine reproduced byte for byte, so the
// K=1 column doubles as the unsharded baseline.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/common/bench_report.h"
#include "bench/common/flags.h"
#include "bench/common/harness.h"
#include "podium/datagen/generator.h"
#include "podium/shard/sharded_selector.h"
#include "podium/shard/sharded_snapshot.h"
#include "podium/telemetry/phase.h"
#include "podium/util/parse.h"
#include "podium/util/stopwatch.h"
#include "podium/util/string_util.h"

namespace {

template <typename T>
T Unwrap(podium::Result<T> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Build layers reported per K, by phase-tree span name. Spans a build
/// does not open are left out of the report.
constexpr const char* kBuildLayers[] = {
    "shard.scheme",
    "parallel.shard.scheme.collect",
    "parallel.shard.scheme.bucketize",
    "parallel.shard.scheme.count",
    "shard.partition",
    "parallel.shard.snapshot.names",
    "parallel.shard.snapshot.shards",
    "shard.build.assign",
    "shard.build.finalize",
};

/// Resident bytes of this process (/proc/self/statm), after returning
/// freed heap pages to the system; 0 where statm is absent.
double ResidentBytes() {
  malloc_trim(0);
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0.0;
  double resident_pages = 0.0;
  if (!(statm >> size_pages >> resident_pages)) return 0.0;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE));
}

std::vector<std::size_t> ParseShardList(const std::string& spec) {
  std::vector<std::size_t> counts;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string token = spec.substr(pos, comma - pos);
    if (!token.empty()) {
      const podium::Result<std::size_t> value =
          podium::util::ParseSize(token);
      if (!value.ok() || value.value() == 0) {
        std::fprintf(stderr, "--shards: bad shard count '%s'\n",
                     token.c_str());
        std::exit(2);
      }
      counts.push_back(value.value());
    }
    pos = comma + 1;
  }
  if (counts.empty()) {
    std::fprintf(stderr, "--shards: at least one shard count required\n");
    std::exit(2);
  }
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  podium::bench::Flags flags(argc, argv);
  const auto users = static_cast<std::size_t>(flags.Int("users", 200000));
  const std::vector<std::size_t> shard_counts =
      ParseShardList(flags.String("shards", "1,2,4,8"));
  const auto budget = static_cast<std::size_t>(flags.Int("budget", 16));
  const auto seed = static_cast<std::uint64_t>(flags.Int("seed", 7));
  const auto repeats =
      std::max<std::size_t>(1, static_cast<std::size_t>(flags.Int("repeats", 3)));
  const podium::shard::PartitionStrategy strategy = Unwrap(
      podium::shard::ParsePartitionStrategy(flags.String("strategy", "hash")));
  const std::string bench_out = flags.String("bench-out", "");
  const std::string telemetry_out = podium::bench::InitTelemetry(flags);
  const std::size_t threads = podium::bench::InitThreads(flags);
  flags.CheckConsumed();

  podium::bench::PrintBanner(
      "podium::shard — partitioned build + two-round selection",
      podium::util::StringPrintf(
          "%zu users, budget %zu, %s partition, %zu threads", users, budget,
          std::string(podium::shard::PartitionStrategyName(strategy)).c_str(),
          threads));

  podium::datagen::DatasetConfig config;
  config.num_users = users;
  config.num_restaurants = std::max<std::size_t>(users / 8, 64);
  config.leaf_categories = 60;
  config.num_cities = 30;
  config.min_reviews_per_user = 3;
  config.max_reviews_per_user = 12;
  config.derive_enthusiasm = false;
  config.holdout_destinations = 0;
  config.seed = seed;
  podium::util::Stopwatch datagen_watch;
  const podium::datagen::Dataset data =
      Unwrap(podium::datagen::GenerateDataset(config));
  std::printf("dataset: %zu users / %.0f mean props (generated in %.2fs)\n\n",
              data.repository.user_count(),
              data.repository.MeanProfileSize(),
              datagen_watch.ElapsedSeconds());

  podium::InstanceOptions instance_options;
  instance_options.budget = budget;

  podium::bench::BenchReport report = podium::bench::NewBenchReport("shard");
  report.threads = threads;
  report.repeats = repeats;
  report.notes["users"] = static_cast<double>(users);
  report.notes["budget"] = static_cast<double>(budget);

  std::vector<std::string> row_labels;
  std::vector<std::vector<double>> cells;
  double k1_score = 0.0;
  for (const std::size_t num_shards : shard_counts) {
    podium::shard::ShardOptions shard_options;
    shard_options.num_shards = num_shards;
    shard_options.strategy = strategy;

    podium::telemetry::ResetPhaseTree();
    podium::util::Stopwatch build_watch;
    std::shared_ptr<const podium::shard::ShardedSnapshot> snapshot =
        Unwrap(podium::shard::ShardedSnapshot::Build(
            data.repository, instance_options, shard_options));
    const double build_seconds = build_watch.ElapsedSeconds();
    const podium::telemetry::PhaseStats phases =
        podium::telemetry::PhaseTreeSnapshot();
    const double resident_with_snapshot = ResidentBytes();

    podium::shard::ShardedSelector selector;
    std::vector<double> select_ms;
    select_ms.reserve(repeats);
    podium::shard::ShardedSelection last;
    for (std::size_t r = 0; r < repeats; ++r) {
      podium::util::Stopwatch select_watch;
      last = Unwrap(selector.Select(*snapshot, budget));
      select_ms.push_back(select_watch.ElapsedMillis());
    }

    // Round-1 skew: slowest shard over the mean — the quantity that caps
    // the fan-out speedup.
    double slowest = 0.0;
    double total = 0.0;
    for (const double s : last.shard_seconds) {
      slowest = std::max(slowest, s);
      total += s;
    }
    const double mean = last.shard_seconds.empty()
                            ? 0.0
                            : total / static_cast<double>(
                                          last.shard_seconds.size());
    const double skew = mean > 0.0 ? slowest / mean : 1.0;
    if (num_shards == 1) k1_score = last.merged.score;
    const double score_ratio =
        k1_score > 0.0 ? last.merged.score / k1_score : 1.0;

    std::sort(select_ms.begin(), select_ms.end());
    const std::string suffix = std::to_string(num_shards);
    report.metrics["shard_build_s/" + suffix] = podium::bench::BenchMetric{
        "s", "lower", build_seconds, build_seconds};
    report.metrics["shard_select_ms/" + suffix] =
        podium::bench::MakeBenchMetric("ms", "lower", select_ms);
    for (const char* layer : kBuildLayers) {
      if (podium::telemetry::FindPhase(phases, layer) == nullptr) continue;
      const double seconds = podium::telemetry::SumPhaseSeconds(phases, layer);
      report.metrics["build_layer_s/" + std::string(layer) + "/" + suffix] =
          podium::bench::BenchMetric{"s", "lower", seconds, seconds};
    }
    report.notes["candidates/" + suffix] =
        static_cast<double>(last.candidate_count);
    report.notes["memory_bytes/" + suffix] =
        static_cast<double>(snapshot->MemoryBytes());
    report.notes["score_ratio/" + suffix] = score_ratio;
    row_labels.push_back(podium::util::StringPrintf(
        "K=%zu (%zu groups)", num_shards, snapshot->group_count()));

    // Resident bytes the snapshot holds: what releasing it gives back.
    // Both readings follow the build, so its freed temporaries count in
    // neither.
    snapshot.reset();
    const double resident_per_user =
        (resident_with_snapshot - ResidentBytes()) /
        static_cast<double>(data.repository.user_count());
    report.metrics["resident_bytes_per_user/" + suffix] =
        podium::bench::BenchMetric{"B", "lower", resident_per_user,
                                   resident_per_user};

    cells.push_back({build_seconds,
                     podium::bench::Percentile(select_ms, 0.50),
                     static_cast<double>(last.candidate_count), skew,
                     score_ratio, resident_per_user});
  }

  podium::bench::PrintAbsoluteTable(
      "shards",
      {"build s", "select ms", "candidates", "r1 skew", "score vs K=1",
       "B/user"},
      row_labels, cells, 4);
  std::printf(
      "\nExpected shape: build and select drop with K while score vs K=1 "
      "stays near 1.0 (the proven floor is (1-1/e)^2/min(K,B)); r1 skew "
      "near 1.0 means balanced shards.\n");

  if (!bench_out.empty()) {
    const podium::Status written =
        podium::bench::WriteBenchReport(report, bench_out);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", bench_out.c_str(),
                   written.ToString().c_str());
      return 2;
    }
    std::printf("shard_bench: wrote %s\n", bench_out.c_str());
  }
  podium::bench::FinishTelemetry(telemetry_out);
  return 0;
}
