#include "traced.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <tuple>
#include <utility>

#include "podium/core/customization.h"
#include "podium/core/explanation.h"
#include "podium/core/greedy.h"
#include "podium/groups/group_index.h"
#include "podium/json/parser.h"
#include "podium/serve/handlers.h"
#include "podium/serve/request.h"
#include "podium/serve/result_cache.h"
#include "podium/shard/sharded_selector.h"
#include "podium/shard/sharded_snapshot.h"
#include "podium/telemetry/trace.h"

namespace selbench {

namespace {

using podium::CoverageKind;
using podium::DiversificationInstance;
using podium::WeightKind;
using podium::serve::SelectionOutcome;
using podium::serve::SelectionRequest;
using podium::serve::Snapshot;

/// The service's per-request instance pool, mirrored: up to 8 instances
/// keyed by (weights, coverage, budget), the budget normalized out when it
/// cannot change the instance, least recently used evicted first.
class InstancePool {
 public:
  /// The pooled instance, or nullptr when the caller must build it.
  std::shared_ptr<const DiversificationInstance> Find(WeightKind weights,
                                                      CoverageKind coverage,
                                                      std::size_t budget) {
    const Key key = MakeKey(weights, coverage, budget);
    for (Entry& entry : entries_) {
      if (entry.key == key) {
        entry.last_used = ++clock_;
        return entry.instance;
      }
    }
    return nullptr;
  }

  void Add(WeightKind weights, CoverageKind coverage, std::size_t budget,
           std::shared_ptr<const DiversificationInstance> instance) {
    constexpr std::size_t kMaxPooled = 8;
    if (entries_.size() >= kMaxPooled) {
      auto oldest = std::min_element(
          entries_.begin(), entries_.end(),
          [](const Entry& a, const Entry& b) {
            return a.last_used < b.last_used;
          });
      entries_.erase(oldest);
    }
    entries_.push_back(
        Entry{MakeKey(weights, coverage, budget), ++clock_, std::move(instance)});
  }

 private:
  using Key = std::tuple<WeightKind, CoverageKind, std::size_t>;
  struct Entry {
    Key key;
    std::uint64_t last_used = 0;
    std::shared_ptr<const DiversificationInstance> instance;
  };

  static Key MakeKey(WeightKind weights, CoverageKind coverage,
                     std::size_t budget) {
    const bool budget_matters =
        coverage != CoverageKind::kSingle || weights == WeightKind::kEbs;
    return {weights, coverage, budget_matters ? budget : 0};
  }

  std::vector<Entry> entries_;
  std::uint64_t clock_ = 0;
};

/// The explanation block the service attaches when a request asks for one.
podium::json::Value Explanations(const DiversificationInstance& instance,
                                 const std::vector<podium::UserId>& users) {
  podium::json::Array out;
  out.reserve(users.size());
  for (podium::UserId u : users) {
    const podium::UserExplanation explanation =
        podium::ExplainUser(instance, u);
    podium::json::Object user;
    user.Set("name", podium::json::Value(explanation.name));
    podium::json::Array groups;
    groups.reserve(explanation.groups.size());
    for (const podium::GroupExplanation& g : explanation.groups) {
      podium::json::Object group;
      group.Set("label", podium::json::Value(g.label));
      group.Set("weight", podium::json::Value(g.weight));
      group.Set("cov", podium::json::Value(
                           static_cast<double>(g.required_coverage)));
      groups.emplace_back(std::move(group));
    }
    user.Set("groups", podium::json::Value(std::move(groups)));
    out.emplace_back(std::move(user));
  }
  return podium::json::Value(std::move(out));
}

podium::Result<std::vector<podium::GroupId>> Resolve(
    const Snapshot& snapshot, const std::vector<std::string>& labels) {
  std::vector<podium::GroupId> groups;
  for (const std::string& label : labels) {
    podium::Result<podium::GroupId> group = snapshot.ResolveLabel(label);
    if (!group.ok()) return group.status();
    groups.push_back(group.value());
  }
  return groups;
}

struct GreedyWork {
  double retired_links = 0.0;
  double rounds = 0.0;
};

/// Link retirements and rounds of every greedy run since the last
/// GreedyTrace::Clear().
GreedyWork ReadGreedyTrace() {
  GreedyWork work;
  for (const podium::telemetry::GreedyRoundEvent& event :
       podium::telemetry::GreedyTrace::Snapshot()) {
    work.retired_links += event.retired_links;
    work.rounds += 1.0;
  }
  return work;
}

}  // namespace

void TraceSetup(const podium::ProfileRepository& repository,
                const podium::serve::SnapshotOptions& options, TracedRun& run) {
  if (options.shard.num_shards > 1) {
    Tracer::Scope span(run.tracer, "shard.build", 0);
    auto built = podium::shard::ShardedSnapshot::Build(
        repository, options.instance, options.shard, 1);
    run.shard_build_s = span.Seconds();
    (void)built;
    return;
  }
  {
    Tracer::Scope span(run.tracer, "groups.build", 0);
    auto groups =
        podium::GroupIndex::Build(repository, options.instance.grouping);
    run.groups_build_s = span.Seconds();
  }
  {
    Tracer::Scope span(run.tracer, "instance.build", 0);
    auto instance =
        DiversificationInstance::Build(repository, options.instance);
    run.instance_build_s = span.Seconds();
  }
}

void TraceRequests(const WorkloadSpec& spec, const RequestPlan& plan,
                   const std::shared_ptr<const Snapshot>& snapshot_ptr,
                   const BodyLedger& ledger, bool prefill, double max_seconds,
                   TracedRun& run) {
  const Snapshot& snapshot = *snapshot_ptr;
  const std::uint64_t generation = snapshot.generation();
  const podium::json::ParseOptions parse_options =
      podium::serve::UntrustedParseOptions();
  podium::serve::ResultCache cache(spec.cache_entries);
  if (prefill) {
    for (std::uint32_t key = 0; key < ledger.size(); ++key) {
      if (!ledger.first(key).has_value()) continue;
      auto doc = podium::json::Parse(plan.keys[key].body, parse_options);
      if (!doc.ok()) continue;
      auto request = podium::serve::SelectionRequestFromJson(doc.value());
      if (!request.ok()) continue;
      cache.Put(podium::serve::CanonicalRequestKey(generation, request.value()),
                *ledger.first(key));
    }
  }

  InstancePool pool;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(max_seconds));
  const std::size_t limit = plan.distinct
                                ? std::min(spec.traced_requests, plan.order.size())
                                : spec.traced_requests;
  for (std::size_t i = 0;
       i < limit && std::chrono::steady_clock::now() < deadline; ++i) {
    const std::uint32_t key_index = plan.order[i % plan.order.size()];
    const PlannedRequest& planned = plan.keys[key_index];
    const std::uint64_t id = i + 1;
    std::string body;
    std::optional<CostSample> cost;
    {
      Tracer::Scope request_span(run.tracer, "request", id);
      podium::Result<podium::json::Value> doc = [&] {
        Tracer::Scope span(run.tracer, "json.parse", id);
        return podium::json::Parse(planned.body, parse_options);
      }();
      if (!doc.ok()) continue;
      std::optional<SelectionRequest> request;
      std::string key;
      {
        Tracer::Scope span(run.tracer, "request.decode", id);
        auto decoded = podium::serve::SelectionRequestFromJson(doc.value());
        if (decoded.ok()) {
          request = std::move(decoded).value();
          key = podium::serve::CanonicalRequestKey(generation, *request);
        }
      }
      if (!request.has_value()) continue;
      std::optional<std::string> cached;
      double get_seconds = 0.0;
      {
        Tracer::Scope span(run.tracer, "cache.get", id);
        cached = cache.Get(key);
        get_seconds = span.Seconds();
      }
      ++run.requests;
      if (cached.has_value()) {
        ++run.cache_hits;
        run.hit_get_seconds += get_seconds;
        body = std::move(*cached);
      } else {
        podium::telemetry::GreedyTrace::Clear();
        SelectionOutcome outcome;
        outcome.snapshot_generation = generation;
        outcome.request = *request;
        outcome.mode = request->mode;
        const podium::InstanceOptions& defaults = snapshot.options().instance;
        outcome.budget = request->budget > 0 ? request->budget : defaults.budget;
        outcome.weight_kind = request->weight_kind.value_or(defaults.weight_kind);
        outcome.coverage_kind =
            request->coverage_kind.value_or(defaults.coverage_kind);
        double select_seconds = 0.0;
        double scan_pool = 0.0;
        if (snapshot.is_sharded()) {
          const podium::shard::ShardedSnapshot& sharded = *snapshot.sharded();
          podium::Result<podium::shard::ShardedSelection> selection = [&] {
            Tracer::Scope span(run.tracer, "shard.select", id);
            auto result = podium::shard::ShardedSelector(request->mode)
                              .Select(sharded, outcome.budget);
            select_seconds = span.Seconds();
            return result;
          }();
          if (!selection.ok()) continue;
          outcome.users = std::move(selection->merged.users);
          outcome.score = selection->merged.score;
          for (podium::UserId u : outcome.users) {
            outcome.names.push_back(sharded.UserName(u).value());
          }
          const std::vector<double>& seconds = selection->shard_seconds;
          double slowest = 0.0;
          double total = 0.0;
          for (double s : seconds) {
            slowest = std::max(slowest, s);
            total += s;
          }
          run.shard_round1_ms_sum += slowest * 1e3;
          run.shard_skew_sum +=
              total > 0.0 ? slowest / (total / static_cast<double>(seconds.size()))
                          : 0.0;
          run.shard_merge_ms_sum += selection->merge_seconds * 1e3;
          run.shard_candidates_sum +=
              static_cast<double>(selection->candidate_count);
          ++run.shard_count;
          // Round-1 runs each scan one shard; hash partitions are near
          // equal, so each is charged the mean shard size.
          scan_pool = static_cast<double>(sharded.user_count()) /
                      static_cast<double>(sharded.shard_count());
        } else {
          std::shared_ptr<const DiversificationInstance> pooled;
          const DiversificationInstance* instance = &snapshot.default_instance();
          if (!snapshot.MatchesDefaultInstance(
                  outcome.weight_kind, outcome.coverage_kind, outcome.budget)) {
            pooled = pool.Find(outcome.weight_kind, outcome.coverage_kind,
                               outcome.budget);
            if (pooled == nullptr) {
              Tracer::Scope span(run.tracer, "instance.make", id);
              auto made = snapshot.MakeInstance(
                  outcome.weight_kind, outcome.coverage_kind, outcome.budget);
              if (!made.ok()) continue;
              pooled = std::make_shared<const DiversificationInstance>(
                  std::move(made).value());
              pool.Add(outcome.weight_kind, outcome.coverage_kind,
                       outcome.budget, pooled);
            }
            instance = pooled.get();
          }
          if (request->customized()) {
            Tracer::Scope span(run.tracer, "custom.select", id);
            podium::CustomizationFeedback feedback;
            auto must_have = Resolve(snapshot, request->must_have);
            auto must_not = Resolve(snapshot, request->must_not);
            auto priority = Resolve(snapshot, request->priority);
            if (!must_have.ok() || !must_not.ok() || !priority.ok()) continue;
            feedback.must_have = std::move(must_have).value();
            feedback.must_not = std::move(must_not).value();
            feedback.priority = std::move(priority).value();
            auto custom = podium::SelectCustomized(*instance, feedback,
                                                   outcome.budget, request->mode);
            if (!custom.ok()) continue;
            outcome.users = std::move(custom->selection.users);
            outcome.score = custom->selection.score;
            outcome.custom_score = custom->score;
            outcome.refined_pool_size = custom->refined_pool_size;
            run.pool_users_sum += static_cast<double>(custom->refined_pool_size);
            ++run.pool_count;
          } else {
            Tracer::Scope span(run.tracer, "greedy.select", id);
            podium::GreedyOptions options;
            options.mode = request->mode;
            auto selection =
                podium::GreedySelector(options).Select(*instance, outcome.budget);
            select_seconds = span.Seconds();
            if (!selection.ok()) continue;
            outcome.users = std::move(selection->users);
            outcome.score = selection->score;
            scan_pool = static_cast<double>(snapshot.user_count());
          }
          for (podium::UserId u : outcome.users) {
            outcome.names.push_back(snapshot.repository().user(u).name());
          }
          if (request->explain) {
            Tracer::Scope span(run.tracer, "explain", id);
            outcome.explanations = Explanations(*instance, outcome.users);
          }
        }
        double serialize_seconds = 0.0;
        {
          Tracer::Scope span(run.tracer, "request.serialize", id);
          body = podium::serve::SerializeOutcome(outcome);
          serialize_seconds = span.Seconds();
        }
        {
          Tracer::Scope span(run.tracer, "cache.put", id);
          cache.Put(key, body);
        }
        if (request->mode == podium::GreedyMode::kPlainScan &&
            !request->customized() && !request->explain) {
          const GreedyWork work = ReadGreedyTrace();
          CostSample sample;
          sample.retired_links = work.retired_links;
          sample.scan_work = work.rounds * scan_pool;
          sample.budget = static_cast<double>(outcome.budget);
          sample.select_seconds = select_seconds;
          sample.serialize_seconds = serialize_seconds;
          cost = sample;
        }
      }
      run.request_ms.push_back(request_span.Seconds() * 1e3);
    }
    if (cost.has_value()) run.cost_samples.push_back(*cost);
    const std::optional<std::string>& served = ledger.first(key_index);
    if (served.has_value() && *served != body) ++run.body_mismatches;
  }
  podium::telemetry::GreedyTrace::Clear();
}

}  // namespace selbench
