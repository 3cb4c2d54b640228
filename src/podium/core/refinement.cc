#include "podium/core/refinement.h"

#include <algorithm>

#include "podium/core/score.h"
#include "podium/util/string_util.h"

namespace podium {

std::string_view RefinementKindName(RefinementKind kind) {
  switch (kind) {
    case RefinementKind::kPrioritize:
      return "prioritize";
    case RefinementKind::kIgnore:
      return "ignore";
    case RefinementKind::kExclude:
      return "exclude";
  }
  return "unknown";
}

std::vector<RefinementSuggestion> SuggestRefinements(
    const DiversificationInstance& instance, const Selection& selection,
    const RefinementOptions& options) {
  const GroupIndex& groups = instance.groups();
  const std::size_t population = groups.user_count();
  const std::size_t selected = selection.users.size();
  if (population == 0 || selected == 0) return {};

  const std::vector<std::uint32_t> actual =
      MembersSelectedPerGroup(instance, selection.users);
  // Weight scale for normalizing priority strengths.
  double max_weight = 0.0;
  for (GroupId g = 0; g < groups.group_count(); ++g) {
    max_weight = std::max(max_weight, instance.weight(g));
  }
  if (max_weight <= 0.0) max_weight = 1.0;

  std::vector<RefinementSuggestion> suggestions;
  for (GroupId g = 0; g < groups.group_count(); ++g) {
    const double population_share =
        static_cast<double>(groups.group_size(g)) /
        static_cast<double>(population);
    const double selection_share =
        static_cast<double>(actual[g]) / static_cast<double>(selected);

    if (population_share >= options.universal_fraction) {
      // Near-universal: candidates for "do not diversify on this".
      suggestions.push_back(RefinementSuggestion{
          RefinementKind::kIgnore, g, groups.label(g),
          util::StringPrintf(
              "holds for %.0f%% of the population; covering it constrains "
              "nothing and its weight crowds out rarer groups",
              100.0 * population_share),
          population_share});
      continue;
    }
    if (actual[g] < std::min<std::uint32_t>(
                        instance.coverage(g),
                        static_cast<std::uint32_t>(groups.group_size(g)))) {
      // Uncovered (or under-covered): prioritize, weighted by importance.
      suggestions.push_back(RefinementSuggestion{
          RefinementKind::kPrioritize, g, groups.label(g),
          util::StringPrintf(
              "covered by %u of the required %u representatives despite "
              "weight %s",
              actual[g], instance.coverage(g),
              util::FormatDouble(instance.weight(g)).c_str()),
          instance.weight(g) / max_weight});
      continue;
    }
    if (population_share > 0.0 &&
        selection_share >=
            options.over_representation_factor * population_share &&
        actual[g] >= 2) {
      suggestions.push_back(RefinementSuggestion{
          RefinementKind::kExclude, g, groups.label(g),
          util::StringPrintf(
              "%.0f%% of the selection but only %.0f%% of the population",
              100.0 * selection_share, 100.0 * population_share),
          selection_share / population_share /
              options.over_representation_factor});
    }
  }

  std::stable_sort(suggestions.begin(), suggestions.end(),
                   [](const RefinementSuggestion& a,
                      const RefinementSuggestion& b) {
                     return a.strength > b.strength;
                   });
  if (suggestions.size() > options.max_suggestions) {
    suggestions.resize(options.max_suggestions);
  }
  return suggestions;
}

void ApplySuggestions(const std::vector<RefinementSuggestion>& suggestions,
                      CustomizationFeedback& feedback) {
  for (const RefinementSuggestion& suggestion : suggestions) {
    switch (suggestion.kind) {
      case RefinementKind::kPrioritize:
        feedback.priority.push_back(suggestion.group);
        break;
      case RefinementKind::kExclude:
        feedback.must_not.push_back(suggestion.group);
        break;
      case RefinementKind::kIgnore:
        if (!feedback.standard_is_rest) {
          // Removing from an explicit standard set expresses "do not
          // diversify"; with standard_is_rest the group stays implicit.
          auto& standard = feedback.standard;
          standard.erase(
              std::remove(standard.begin(), standard.end(),
                          suggestion.group),
              standard.end());
        }
        break;
    }
  }
}

}  // namespace podium
