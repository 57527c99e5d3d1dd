#include "core/root_selection.hpp"

#include "support/error.hpp"

namespace lbs::core {

const RootCandidate& RootSelectionResult::best() const {
  LBS_CHECK_MSG(best_index >= 0 && best_index < static_cast<int>(candidates.size()),
                "root selection has no best candidate");
  return candidates[static_cast<std::size_t>(best_index)];
}

RootSelectionResult select_root(const model::Grid& grid, long long items,
                                OrderingPolicy policy, Algorithm algorithm) {
  LBS_CHECK_MSG(grid.data_home() >= 0, "grid has no data_home");
  RootSelectionResult result;

  const int machines = static_cast<int>(grid.machines().size());
  for (const auto& candidate : grid.all_processors()) {
    bool linked = true;
    for (int m = 0; m < machines && linked; ++m) {
      linked = grid.has_link(candidate.machine, m);
    }
    if (!linked) continue;

    RootCandidate entry;
    entry.root = candidate;
    entry.label = grid.processor_label(candidate);
    entry.staging_time = candidate.machine == grid.data_home()
                             ? 0.0
                             : grid.link(grid.data_home(), candidate.machine)(items);
    model::Platform platform = ordered_platform(grid, candidate, policy);
    entry.scatter_makespan = plan_scatter(platform, items, algorithm).predicted_makespan;
    entry.total_time = entry.staging_time + entry.scatter_makespan;

    if (result.best_index < 0 ||
        entry.total_time < result.candidates[static_cast<std::size_t>(result.best_index)].total_time) {
      result.best_index = static_cast<int>(result.candidates.size());
    }
    result.candidates.push_back(std::move(entry));
  }
  LBS_CHECK_MSG(!result.candidates.empty(),
                "root selection: no processor has a link to every machine");
  return result;
}

}  // namespace lbs::core
