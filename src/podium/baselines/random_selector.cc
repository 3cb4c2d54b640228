#include "podium/baselines/random_selector.h"

#include "podium/core/score.h"
#include "podium/util/rng.h"

namespace podium::baselines {

Result<Selection> RandomSelector::Select(
    const DiversificationInstance& instance, std::size_t budget) const {
  if (budget == 0) {
    return Status::InvalidArgument("budget must be positive");
  }
  util::Rng rng(seed_);
  Selection selection;
  for (std::size_t index : rng.SampleWithoutReplacement(
           instance.groups().user_count(), budget)) {
    selection.users.push_back(static_cast<UserId>(index));
  }
  selection.score = TotalScore(instance, selection.users);
  return selection;
}

}  // namespace podium::baselines
