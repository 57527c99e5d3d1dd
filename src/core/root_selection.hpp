// Root-processor selection (paper Section 3.4).
//
// The n data items initially live on computer C (the grid's data_home).
// If the chosen root is not on C, the whole execution pays the C→root
// transfer of all n items *before* the scatter even starts. The best root
// minimizes (transfer from C) + (planned scatter+compute makespan); this
// is a plain minimization over the p candidates.
#pragma once

#include <vector>

#include "core/ordering.hpp"
#include "core/planner.hpp"
#include "model/platform.hpp"

namespace lbs::core {

struct RootCandidate {
  model::ProcessorRef root;
  std::string label;
  double staging_time = 0.0;    // C -> root transfer of all n items
  double scatter_makespan = 0.0;
  double total_time = 0.0;
};

struct RootSelectionResult {
  std::vector<RootCandidate> candidates;  // eligible processors, grid order
  int best_index = -1;

  [[nodiscard]] const RootCandidate& best() const;
};

// Evaluates every eligible processor as a candidate root. A processor is
// eligible when the grid defines a link from its machine to every
// machine: the staging link from the data home and the scatter links to
// each processor. A config may omit links it never measured (the paper's
// testbed only has dinadan's); such candidates are skipped, not
// evaluated. The platform for each candidate is ordered with `policy`
// (descending bandwidth by default, per Section 4.4), and distributions
// are planned with `algorithm`. Requires grid.data_home() >= 0; throws
// lbs::Error when no processor is eligible.
RootSelectionResult select_root(const model::Grid& grid, long long items,
                                OrderingPolicy policy = OrderingPolicy::DescendingBandwidth,
                                Algorithm algorithm = Algorithm::Auto);

}  // namespace lbs::core
