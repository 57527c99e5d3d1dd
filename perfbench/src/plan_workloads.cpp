// plan_dp and plan_affine: one caller thread calling core::plan_scatter
// (Auto, no cache) in process. See README.md for why each exists.
#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "core/dp.hpp"
#include "core/heuristic.hpp"
#include "core/planner.hpp"
#include "core/rounding.hpp"
#include "harness.hpp"
#include "model/cost_table.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using namespace lbs;
using Clock = std::chrono::steady_clock;

struct PlanInput {
  model::Platform platform;
  long long items = 0;
};

// Affine costs with stratified slopes, in Theorem 3 order (ascending
// per-item link cost), root last. Links are slow enough that the root's
// serialized sends bind: the last processors in the order would start
// receiving after the others finish, so the optimum gives them nothing
// (Theorem 2).
model::Platform affine_platform(support::Rng& rng, int processors) {
  const auto count = static_cast<std::size_t>(processors);
  const std::vector<double> beta = stratified_log_uniform(rng, count, 3e-5, 3e-3);
  const std::vector<double> alpha = stratified_log_uniform(rng, count, 1e-3, 3e-2);
  model::Platform platform;
  for (std::size_t i = 0; i + 1 < count; ++i) {
    model::Processor proc;
    proc.comm = model::Cost::affine(rng.uniform(0.0, 5e-3), beta[i]);
    proc.comp = model::Cost::affine(rng.uniform(0.0, 20e-3), alpha[i]);
    platform.processors.push_back(std::move(proc));
  }
  std::sort(platform.processors.begin(), platform.processors.end(),
            [](const model::Processor& a, const model::Processor& b) {
              return a.comm.per_item_slope() < b.comm.per_item_slope();
            });
  model::Processor root;
  root.comm = model::Cost::zero();
  root.comp = model::Cost::affine(rng.uniform(0.0, 20e-3), alpha[count - 1]);
  platform.processors.push_back(std::move(root));
  return platform;
}

class PlanWorkload : public Workload {
 public:
  PlanWorkload(std::vector<PlanInput> inputs, int warmup_inputs, int fixed_inputs,
               bool affine)
      : inputs_(std::move(inputs)),
        warmup_inputs_(warmup_inputs),
        fixed_inputs_(fixed_inputs),
        affine_(affine) {}

  [[nodiscard]] int threads() const override { return 1; }
  [[nodiscard]] double tail_q() const override { return 0.9; }

  void setup() override {
    for (int k = 0; k < warmup_inputs_; ++k) {
      const PlanInput& input = inputs_[static_cast<std::size_t>(k)];
      check(input, core::plan_scatter(input.platform, input.items));
    }
  }

  void fixed_set(Values& values) override {
    double ratio = 0.0, cells = 0.0, dropped = 0.0, threads = 0.0;
    for (int k = 0; k < fixed_inputs_; ++k) {
      const PlanInput& input = inputs_[static_cast<std::size_t>(k)];
      core::ScatterPlan plan = core::plan_scatter(input.platform, input.items);
      check(input, plan);
      ratio += plan.predicted_makespan / uniform_makespan(input.platform, input.items);
      cells += static_cast<double>(plan.dp_cells_evaluated);
      threads = std::max(threads, static_cast<double>(plan.dp_threads));
      dropped += static_cast<double>(
          std::count(plan.distribution.counts.begin(), plan.distribution.counts.end(), 0));
    }
    const double k = fixed_inputs_;
    values["makespan_vs_uniform"] = ratio / k;
    values["core.dp_cells"] = cells / k;
    values["core.dp_threads"] = threads;
    values["core.dropped_procs"] = dropped / k;
  }

  OpResult op(int /*thread*/, std::uint64_t k, const OpTrace& trace) override {
    const PlanInput& input = inputs_[k % inputs_.size()];
    OpResult result;
    core::ScatterPlan plan;
    {
      Span span(trace.lane, "core.plan_scatter", trace.op);
      const auto start = Clock::now();
      try {
        plan = core::plan_scatter(input.platform, input.items);
      } catch (const lbs::Error&) {
        return result;  // a plan call that throws is a failed op
      }
      result.latency_s = std::chrono::duration<double>(Clock::now() - start).count();
    }
    check(input, plan);
    result.ok = true;
    if (trace.split) split(input, trace);
    return result;
  }

 private:
  void check(const PlanInput& input, const core::ScatterPlan& plan) const {
    check_plan(input.platform, input.items, plan.distribution.counts,
               plan.displacements, plan.predicted_makespan, "plan_scatter");
    if (affine_ && !(plan.has_optimality_bound && plan.optimality_gap >= 0.0)) {
      throw CheckFailure("plan_scatter: affine plan lacks its Eq. 4 certificate");
    }
  }

  // The layer calls plan_scatter makes on this route, timed one by one.
  // The DP split hands optimized_dp a precomputed CostTable; plan_scatter
  // fills the same rows inside its sweep instead.
  void split(const PlanInput& input, const OpTrace& trace) const {
    const model::Platform& platform = input.platform;
    {
      Span span(trace.lane, "model.route_check", trace.op);
      route_sink_ += platform.all_costs_affine() ? 1 : 0;
      route_sink_ += platform.all_costs_increasing() ? 1 : 0;
    }
    core::Distribution distribution;
    if (affine_) {
      core::HeuristicResult heuristic;
      {
        Span span(trace.lane, "core.lp_heuristic", trace.op);
        heuristic = core::lp_heuristic(platform, input.items);
      }
      Span span(trace.lane, "core.round_distribution", trace.op);
      distribution = core::round_distribution(heuristic.rational_shares, input.items);
    } else {
      std::optional<model::CostTable> table;
      {
        Span span(trace.lane, "model.cost_table", trace.op);
        table.emplace(platform, input.items);
      }
      core::DpOptions options;
      options.cost_table = &*table;
      Span span(trace.lane, "core.optimized_dp", trace.op);
      distribution = core::optimized_dp(platform, input.items, options).distribution;
    }
    Span span(trace.lane, "core.finish_times", trace.op);
    finish_sink_ = core::finish_times(platform, distribution);
  }

  std::vector<PlanInput> inputs_;
  int warmup_inputs_;
  int fixed_inputs_;
  bool affine_;
  // Results of the split calls land here so none is computed for nothing.
  mutable long long route_sink_ = 0;
  mutable std::vector<double> finish_sink_;
};

}  // namespace

// n in a narrow band around 5e4: a few of the DP's 32768-cell wavefront
// chunks per column, so the pooled pipeline runs.
std::unique_ptr<Workload> make_plan_dp(std::uint64_t seed) {
  support::Rng rng(seed ^ 0x706c616e5f6470ULL);
  std::vector<PlanInput> inputs(256);
  for (PlanInput& input : inputs) {
    input.items = rng.uniform_int(48000, 52000);
    input.platform = table1_shaped(rng, input.items);
  }
  return std::make_unique<PlanWorkload>(std::move(inputs), /*warmup_inputs=*/5,
                                        /*fixed_inputs=*/32, /*affine=*/false);
}

// p in a narrow band near 128 and n near 1e6: one size class of the
// dense-simplex affine route.
std::unique_ptr<Workload> make_plan_affine(std::uint64_t seed) {
  support::Rng rng(seed ^ 0x706c616e5f6166ULL);
  std::vector<PlanInput> inputs(512);
  for (PlanInput& input : inputs) {
    input.items = rng.uniform_int(950000, 1050000);
    input.platform = affine_platform(rng, static_cast<int>(rng.uniform_int(120, 136)));
  }
  return std::make_unique<PlanWorkload>(std::move(inputs), /*warmup_inputs=*/40,
                                        /*fixed_inputs=*/256, /*affine=*/true);
}

}  // namespace perfbench
