#include "core/planner.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "core/closed_form.hpp"
#include "core/dp.hpp"
#include "core/heuristic.hpp"
#include "core/rounding.hpp"
#include "core/sharded_plan_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace lbs::core {

std::string to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::Auto: return "auto";
    case Algorithm::ExactDp: return "exact-dp (Algorithm 1)";
    case Algorithm::OptimizedDp: return "optimized-dp (Algorithm 2)";
    case Algorithm::LpHeuristic: return "lp-heuristic (Section 3.3)";
    case Algorithm::LinearClosedForm: return "linear-closed-form (Section 4)";
    case Algorithm::Uniform: return "uniform (original program)";
  }
  return "?";
}

namespace {

// Linear costs with a positive compute slope everywhere: Theorem 1's chain
// is defined. Other linear platforms (a free root, say) take the LP route,
// whose Eq. 4 gap equals the linear one when every fixed term is zero.
bool closed_form_applies(const model::Platform& platform) {
  for (int i = 0; i < platform.size(); ++i) {
    auto comm = platform[i].comm.affine();
    auto comp = platform[i].comp.affine();
    if (!comm || !comp || comm->fixed != 0.0 || comp->fixed != 0.0) return false;
    if (!(comp->per_item > 0.0)) return false;
  }
  return true;
}

Algorithm resolve(const model::Platform& platform, Algorithm requested) {
  if (requested != Algorithm::Auto) return requested;
  if (closed_form_applies(platform)) return Algorithm::LinearClosedForm;
  if (platform.all_costs_affine()) return Algorithm::LpHeuristic;
  if (platform.all_costs_increasing()) return Algorithm::OptimizedDp;
  return Algorithm::ExactDp;
}

// One 64-bit digest of the platform's per-processor cost fingerprints,
// carried in scatter.plan spans so traces from different platforms are
// distinguishable without storing the full vector.
long long folded_fingerprint(const model::Platform& platform) {
  std::uint64_t folded = 0xcbf29ce484222325ULL;
  for (std::uint64_t print : cost_fingerprints(platform)) {
    folded ^= print;
    folded *= 0x100000001b3ULL;
  }
  return static_cast<long long>(folded);
}

std::vector<int> narrow_to_int(const std::vector<long long>& values,
                               const char* what) {
  std::vector<int> narrowed;
  narrowed.reserve(values.size());
  for (long long value : values) {
    LBS_CHECK_MSG(value >= 0 && value <= std::numeric_limits<int>::max(),
                  std::string(what) + " overflows the 32-bit MPI boundary");
    narrowed.push_back(static_cast<int>(value));
  }
  return narrowed;
}

}  // namespace

std::vector<int> ScatterPlan::counts_as_int() const {
  return narrow_to_int(distribution.counts, "scatter count");
}

std::vector<int> ScatterPlan::displacements_as_int() const {
  return narrow_to_int(displacements, "scatter displacement");
}

ScatterPlan plan_scatter(const model::Platform& platform, long long items,
                         Algorithm algorithm) {
  PlannerOptions options;
  options.algorithm = algorithm;
  return plan_scatter(platform, items, options);
}

ScatterPlan plan_scatter(const model::Platform& platform, long long items,
                         const PlannerOptions& options) {
  LBS_CHECK_MSG(platform.size() >= 1, "empty platform");
  LBS_CHECK_MSG(items >= 0, "negative item count");

  obs::Tracer* tracer =
      options.tracer != nullptr ? options.tracer : obs::global_tracer();
  const double begin = tracer != nullptr ? obs::wall_now() : 0.0;
  auto trace_plan = [&](const ScatterPlan& plan) {
    if (tracer != nullptr) {
      obs::TraceEvent event;
      event.type = obs::EventType::ScatterPlan;
      event.clock = obs::Clock::Wall;
      event.peer = platform.size();
      event.start = begin;
      event.duration = obs::wall_now() - begin;
      event.arg0 = items;
      event.arg1 = static_cast<long long>(plan.algorithm_used);
      event.arg2 = folded_fingerprint(platform);
      tracer->record(event);
    }
    if (options.metrics != nullptr) {
      options.metrics->counter("planner.plans").add();
      options.metrics->histogram("planner.plan_seconds")
          .observe(obs::wall_now() - begin);
    }
  };

  const Algorithm algorithm = options.algorithm;
  std::optional<PlanKey> key;
  if (options.cache != nullptr) {
    key = make_plan_key(platform, items, algorithm);
    if (auto cached = options.cache->lookup(*key)) {
      trace_plan(*cached);
      return *std::move(cached);
    }
  }

  // DP runs inherit the planner's hooks unless the caller already set
  // DP-specific ones.
  DpOptions dp_options = options.dp;
  if (dp_options.tracer == nullptr) dp_options.tracer = options.tracer;
  if (dp_options.metrics == nullptr) dp_options.metrics = options.metrics;

  ScatterPlan plan;
  plan.algorithm_used = resolve(platform, algorithm);

  switch (plan.algorithm_used) {
    case Algorithm::ExactDp: {
      DpResult dp = exact_dp(platform, items, dp_options);
      plan.distribution = std::move(dp.distribution);
      plan.dp_cells_evaluated = dp.cells_evaluated;
      plan.dp_threads = dp.threads_used;
      plan.has_optimality_bound = true;  // the DP is exactly optimal
      plan.optimality_gap = 0.0;
      break;
    }
    case Algorithm::OptimizedDp: {
      DpResult dp = optimized_dp(platform, items, dp_options);
      plan.distribution = std::move(dp.distribution);
      plan.dp_cells_evaluated = dp.cells_evaluated;
      plan.dp_threads = dp.threads_used;
      plan.has_optimality_bound = true;  // the DP is exactly optimal
      plan.optimality_gap = 0.0;
      break;
    }
    case Algorithm::LpHeuristic: {
      HeuristicResult heuristic = lp_heuristic(platform, items);
      plan.distribution = std::move(heuristic.distribution);
      plan.has_optimality_bound = true;
      plan.optimality_gap = heuristic.guarantee_slack;
      break;
    }
    case Algorithm::LinearClosedForm: {
      auto rational = solve_linear(platform, items);
      plan.distribution = round_distribution(rational.share, items);
      plan.has_optimality_bound = true;
      plan.optimality_gap = rounding_guarantee_slack(platform);
      break;
    }
    case Algorithm::Uniform:
      plan.distribution = uniform_distribution(items, platform.size());
      break;
    case Algorithm::Auto:
      LBS_CHECK_MSG(false, "unreachable: Auto resolved above");
  }

  validate(platform, plan.distribution, items);
  plan.displacements = plan.distribution.displacements();
  plan.predicted_finish = finish_times(platform, plan.distribution);
  plan.predicted_makespan =
      *std::max_element(plan.predicted_finish.begin(), plan.predicted_finish.end());
  if (options.cache != nullptr) options.cache->insert(*key, plan);
  trace_plan(plan);
  return plan;
}

}  // namespace lbs::core
