// What every workload implements, and the closed loop that runs it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/platform.hpp"
#include "support/rng.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

// A plan the program returned is wrong. Fails the whole run (non-zero exit);
// a refused or failed call is a failed op instead.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Named values, keyed by the metric names the benchmark reports.
using Values = std::map<std::string, double>;

// What an op is told about tracing. `lane` is null when untraced; `split`
// asks the op to also time the layer calls its main call consists of.
struct OpTrace {
  SpanLane* lane = nullptr;
  bool split = false;
  std::uint64_t op = 0;  // request id shared by every span of this op
};

struct OpResult {
  bool ok = false;
  double latency_s = 0.0;  // the main call only, from call to return
  bool cache_hit = false;  // serve_*: the reply's cache_hit flag
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual int threads() const = 0;
  // Tail percentile reported beside the median (0.9 or 0.99).
  [[nodiscard]] virtual double tail_q() const = 0;
  // The set-up before the timed phase; the harness times it. It runs once
  // per process, so every set-up it times starts cold.
  virtual void setup() = 0;
  // Untimed pass over a fixed seeded input set: makespan_vs_uniform and the
  // per-layer counts that must repeat exactly at a fixed seed.
  virtual void fixed_set(Values& values) = 0;
  // Op number `k` of caller thread `thread`'s seeded sequence.
  virtual OpResult op(int thread, std::uint64_t k, const OpTrace& trace) = 0;
  // Called once, untimed, before the traced layer pass.
  virtual void prepare_trace() {}
  // Brackets around the untraced windows of a traced run; serve_* read the
  // server's counters and histograms there.
  virtual void begin_window() {}
  virtual void end_window() {}
  virtual void window_values(Values& /*values*/) const {}
  // JSON object describing the program options the workload ran with.
  [[nodiscard]] virtual std::string options_json() const { return "null"; }
};

std::unique_ptr<Workload> make_plan_dp(std::uint64_t seed);
std::unique_ptr<Workload> make_plan_affine(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_hits(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_churn(std::uint64_t seed);

// Shared output checks: counts of length p, non-negative, summing to
// `items`; displacements equal to their prefix sums; the predicted makespan
// equal to core::makespan recomputed here, to 1e-12 relative.
void check_plan(const lbs::model::Platform& platform, long long items,
                const std::vector<long long>& counts,
                const std::vector<long long>& displacements,
                double predicted_makespan, const char* what);

// Mean over the fixed set of (plan makespan / uniform makespan) accumulates
// through this.
double uniform_makespan(const lbs::model::Platform& platform, long long items);

// `count` values spread evenly over [lo, hi] on a log scale (one per
// stratum, jittered inside it), in seeded order. Inputs drawn this way have
// the same spread of speeds under every seed, so a seed changes which
// processor is fast, not how heterogeneous the platform is.
std::vector<double> stratified_log_uniform(lbs::support::Rng& rng, std::size_t count,
                                           double lo, double hi);

// The Table 1 testbed in Theorem 3 order (root last), with every slope
// perturbed by up to 5% so each platform is a fresh cache key, Tcomp
// tabulated as calibration produces it over [0, items], and Tcomm chunked
// or tabulated. Increasing and not affine, so Auto routes it to
// Algorithm 2.
lbs::model::Platform table1_shaped(lbs::support::Rng& rng, long long items);

struct LoopResult {
  // Latencies of ok ops, split by whether the reply came from a cache.
  LatencyHistogram cached, uncached;
  long long attempted = 0;
  long long ok = 0;
  double wall_s = 0.0;
};

struct LoopOptions {
  double seconds = 1.0;
  std::uint64_t max_ops_per_thread = ~std::uint64_t{0};
  std::vector<SpanLane>* lanes = nullptr;  // one per thread; null = untraced
  bool split = false;
};

// Runs `threads()` caller threads, each issuing its next op only after the
// previous one returned, until `seconds` have passed. `cursor[t]` is where
// thread t resumes its sequence and is advanced. A CheckFailure from any
// thread stops every thread and is rethrown.
LoopResult closed_loop(Workload& workload, const LoopOptions& options,
                       std::vector<std::uint64_t>& cursor);

}  // namespace perfbench
