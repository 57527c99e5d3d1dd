// Structural keys for caching scatter plans.
//
// plan_scatter is a pure function of (platform costs, n, algorithm), and
// production traffic repeats it: recovery replanning re-plans the same
// survivor sets on every scatter, root-selection sweeps re-plan the same
// platform rotated p ways, and hierarchical scatter re-plans each site.
// core::ShardedPlanCache (sharded_plan_cache.hpp) memoizes those calls
// behind the exact structural key defined here — the per-processor cost
// fingerprints (model::Cost::fingerprint) plus the item count and the
// requested algorithm — so a repeat plan is a mutex acquisition and a
// hash lookup instead of an O(p n) (or worse) DP.
//
// Processor labels and machine refs are deliberately *not* part of the
// key: two platforms with identical cost structure get identical plans.
#pragma once

#include <cstdint>
#include <vector>

#include "core/planner.hpp"
#include "model/platform.hpp"

namespace lbs::core {

// Structural identity of one plan request. Shared by the plan cache and
// by the planning service's request-coalescing map, so "same key" means
// the same thing at every layer. `algorithm` is the *requested* algorithm
// (Auto resolves deterministically from the costs, so it is a sound key
// component).
struct PlanKey {
  std::vector<std::uint64_t> costs;  // per-processor folded cost fingerprints
  long long items = 0;
  Algorithm algorithm = Algorithm::Auto;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& key) const;
};

// Structural identity of a platform as the planner sees it: one
// fingerprint per processor folding Tcomm and Tcomp.
std::vector<std::uint64_t> cost_fingerprints(const model::Platform& platform);

// Builds the key for (platform, items, algorithm).
PlanKey make_plan_key(const model::Platform& platform, long long items,
                      Algorithm algorithm);

}  // namespace lbs::core
