#include "check.h"

#include <algorithm>
#include <map>
#include <thread>
#include <tuple>
#include <utility>

#include "podium/check/oracle.h"
#include "podium/json/parser.h"
#include "podium/serve/handlers.h"
#include "podium/serve/request.h"
#include "podium/serve/service.h"
#include "sampler.h"

namespace selbench {

namespace {

using podium::CoverageKind;
using podium::DiversificationInstance;
using podium::GroupId;
using podium::WeightKind;

/// The whole population's score: every group covered as far as its size
/// allows.
double PopulationScore(const DiversificationInstance& instance) {
  double score = 0.0;
  const podium::GroupIndex& groups = instance.groups();
  for (GroupId g = 0; g < groups.group_count(); ++g) {
    score += instance.weight(g) *
             std::min<double>(static_cast<double>(groups.group_size(g)),
                              instance.coverage(g));
  }
  return score;
}

double PopulationScore(const podium::shard::ShardedSnapshot& sharded) {
  double score = 0.0;
  const std::vector<std::uint32_t>& sizes = sharded.scheme().global_sizes;
  for (std::size_t g = 0; g < sizes.size(); ++g) {
    score += sharded.weights()[g] *
             std::min(sizes[g], sharded.coverage()[g]);
  }
  return score;
}

bool DistinctUsers(std::vector<podium::UserId> users) {
  std::sort(users.begin(), users.end());
  return std::adjacent_find(users.begin(), users.end()) == users.end();
}

}  // namespace

ServedSelection ParseServedBody(const std::string& body) {
  ServedSelection out;
  podium::Result<podium::json::Value> doc = podium::json::Parse(body);
  if (!doc.ok() || !doc->is_object()) return out;
  const podium::json::Object& root = doc->AsObject();
  const podium::json::Value* budget = root.Find("budget");
  const podium::json::Value* weights = root.Find("weights");
  const podium::json::Value* coverage = root.Find("coverage");
  const podium::json::Value* score = root.Find("score");
  const podium::json::Value* users = root.Find("users");
  if (budget == nullptr || !budget->is_number() || weights == nullptr ||
      !weights->is_string() || coverage == nullptr || !coverage->is_string() ||
      score == nullptr || !score->is_number() || users == nullptr ||
      !users->is_array()) {
    return out;
  }
  out.budget = static_cast<std::size_t>(budget->AsNumber());
  out.weights = weights->AsString();
  out.coverage = coverage->AsString();
  out.score = score->AsNumber();
  for (const podium::json::Value& user : users->AsArray()) {
    const podium::json::Value* id =
        user.is_object() ? user.AsObject().Find("id") : nullptr;
    if (id == nullptr || !id->is_number()) return out;
    out.users.push_back(static_cast<podium::UserId>(id->AsNumber()));
  }
  if (const podium::json::Value* custom = root.Find("custom");
      custom != nullptr && custom->is_object()) {
    const podium::json::Value* pool = custom->AsObject().Find("refined_pool");
    if (pool != nullptr && pool->is_number()) {
      out.refined_pool = static_cast<std::size_t>(pool->AsNumber());
    }
  }
  out.parsed = true;
  return out;
}

void CheckReport::Fail(std::uint32_t key, std::string problem) {
  if (std::find(bad_keys.begin(), bad_keys.end(), key) == bad_keys.end()) {
    bad_keys.push_back(key);
  }
  if (problems.size() < 8) problems.push_back(std::move(problem));
}

CheckReport CheckServedBodies(const RequestPlan& plan, const BodyLedger& ledger,
                              const podium::serve::Snapshot& snapshot) {
  CheckReport report;
  std::vector<ServedSelection> served(ledger.size());
  // Keys grouped by the instance that serves them (weights, coverage, and
  // the budget when Prop coverage makes cov(G) depend on it), so each
  // per-request instance is built once and dropped before the next.
  using InstanceKey = std::tuple<WeightKind, CoverageKind, std::size_t>;
  std::map<InstanceKey, std::vector<std::uint32_t>> by_instance;
  std::vector<std::uint32_t> sharded_keys;
  for (std::uint32_t key = 0; key < ledger.size(); ++key) {
    if (!ledger.first(key).has_value()) continue;
    ++report.keys_checked;
    ServedSelection& selection = served[key];
    selection = ParseServedBody(*ledger.first(key));
    if (!selection.parsed) {
      report.Fail(key, "unparseable body for " + plan.keys[key].body);
      continue;
    }
    if (selection.budget != plan.keys[key].budget ||
        selection.users.size() != plan.keys[key].budget ||
        !DistinctUsers(selection.users)) {
      report.Fail(key, "wrong budget or users for " + plan.keys[key].body);
      continue;
    }
    if (snapshot.is_sharded()) {
      sharded_keys.push_back(key);
      continue;
    }
    podium::Result<WeightKind> weights =
        podium::ParseWeightKind(selection.weights);
    podium::Result<CoverageKind> coverage =
        podium::ParseCoverageKind(selection.coverage);
    if (!weights.ok() || !coverage.ok()) {
      report.Fail(key, "bad weights/coverage for " + plan.keys[key].body);
      continue;
    }
    const std::size_t budget =
        coverage.value() == CoverageKind::kProp ? selection.budget : 0;
    by_instance[{weights.value(), coverage.value(), budget}].push_back(key);
  }

  double frac_sum = 0.0;
  std::size_t frac_count = 0;
  if (snapshot.is_sharded()) {
    const double population = PopulationScore(*snapshot.sharded());
    for (std::uint32_t key : sharded_keys) {
      frac_sum += served[key].score / population;
      ++frac_count;
    }
  }
  for (const auto& [instance_key, keys] : by_instance) {
    const auto& [weights, coverage, budget] = instance_key;
    std::optional<DiversificationInstance> built;
    const DiversificationInstance* instance = &snapshot.default_instance();
    if (!snapshot.MatchesDefaultInstance(weights, coverage,
                                         served[keys.front()].budget)) {
      podium::Result<DiversificationInstance> made = snapshot.MakeInstance(
          weights, coverage, served[keys.front()].budget);
      if (!made.ok()) {
        for (std::uint32_t key : keys) {
          report.Fail(key, "cannot build instance: " +
                               made.status().ToString());
        }
        continue;
      }
      built.emplace(std::move(made).value());
      instance = &*built;
    }
    const double population = PopulationScore(*instance);
    // The oracle scans every group per key: spread keys over 4 threads.
    constexpr std::size_t kThreads = 4;
    std::vector<double> oracle(keys.size());
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = t; i < keys.size(); i += kThreads) {
          oracle[i] =
              podium::check::OracleScore(*instance, served[keys[i]].users);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const ServedSelection& selection = served[keys[i]];
      if (oracle[i] != selection.score) {
        report.Fail(keys[i], "score " + std::to_string(selection.score) +
                                 " != oracle " + std::to_string(oracle[i]) +
                                 " for " + plan.keys[keys[i]].body);
        continue;
      }
      frac_sum += selection.score / population;
      ++frac_count;
    }
  }
  report.score_frac =
      frac_count == 0 ? 0.0 : frac_sum / static_cast<double>(frac_count);
  return report;
}

void CompareWithUncachedService(
    const RequestPlan& plan, const BodyLedger& ledger,
    const std::shared_ptr<const podium::serve::Snapshot>& snapshot,
    std::uint64_t seed, std::size_t sample, CheckReport& report) {
  std::vector<std::uint32_t> served;
  for (std::uint32_t key = 0; key < ledger.size(); ++key) {
    if (ledger.first(key).has_value()) served.push_back(key);
  }
  Rng rng(seed ^ 0x5bd1e995ULL);
  rng.Shuffle(served);
  served.resize(std::min(sample, served.size()));

  podium::serve::ServiceOptions options;
  options.cache_entries = 0;
  podium::serve::SelectionService uncached(snapshot, options);
  for (std::uint32_t key : served) {
    ++report.replayed;
    podium::Result<podium::json::Value> doc = podium::json::Parse(
        plan.keys[key].body, podium::serve::UntrustedParseOptions());
    if (!doc.ok()) {
      report.Fail(key, "replay: cannot parse " + plan.keys[key].body);
      continue;
    }
    podium::Result<podium::serve::SelectionRequest> request =
        podium::serve::SelectionRequestFromJson(doc.value());
    if (!request.ok()) {
      report.Fail(key, "replay: cannot decode " + plan.keys[key].body);
      continue;
    }
    podium::Result<podium::serve::ServiceReply> reply =
        uncached.Select(request.value());
    if (!reply.ok() || reply->body != *ledger.first(key)) {
      report.Fail(key, "replay: uncached body differs for " +
                           plan.keys[key].body);
    }
  }
}

}  // namespace selbench
