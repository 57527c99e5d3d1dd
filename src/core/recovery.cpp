#include "core/recovery.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "support/error.hpp"

namespace lbs::core {

model::Platform reduce_platform(const model::Platform& platform,
                                const std::vector<int>& positions) {
  LBS_CHECK_MSG(!positions.empty(), "reduced platform needs processors");
  std::vector<char> seen(static_cast<std::size_t>(platform.size()), 0);
  model::Platform reduced;
  reduced.processors.reserve(positions.size());
  for (int position : positions) {
    LBS_CHECK_MSG(position >= 0 && position < platform.size(),
                  "reduced platform references unknown processor");
    auto& flag = seen[static_cast<std::size_t>(position)];
    LBS_CHECK_MSG(!flag, "reduced platform repeats a processor");
    flag = 1;
    reduced.processors.push_back(platform[position]);
  }
  return reduced;
}

std::function<std::vector<long long>(const std::vector<int>&, long long)>
make_ft_replanner(model::Platform platform, Algorithm algorithm) {
  LBS_CHECK_MSG(platform.size() >= 1, "empty platform");
  return make_ft_replanner(
      [platform = std::move(platform)] { return platform; }, algorithm);
}

std::function<std::vector<long long>(const std::vector<int>&, long long)>
make_ft_replanner(PlatformProvider provider, Algorithm algorithm,
                  std::shared_ptr<ShardedPlanCache> cache) {
  LBS_CHECK_MSG(provider != nullptr, "null platform provider");
  // Recovery traffic repeats itself: every scatter under the same fault
  // pattern re-plans the same survivor sets for the same remainders, so
  // each replanner carries a small plan cache keyed on the reduced
  // platform's cost structure. Because the key is the cost fingerprints,
  // a provider that hands back refreshed costs misses cleanly instead of
  // being served a plan for the old model.
  if (cache == nullptr) cache = std::make_shared<ShardedPlanCache>(1, 64);
  return [provider = std::move(provider), algorithm, cache](
             const std::vector<int>& alive, long long items) {
    auto platform = provider();
    LBS_CHECK_MSG(platform.size() >= 1, "empty platform");
    auto reduced = reduce_platform(platform, alive);
    auto plan = cache->plan(reduced, items, algorithm);
    return plan.distribution.counts;
  };
}

}  // namespace lbs::core
