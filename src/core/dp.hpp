// The paper's dynamic-programming algorithms for optimal distributions.
//
// Both compute, for d = 0..n and i = p..1, the minimal time cost[d][i] to
// process d items on processors P_i..P_p, exploiting (Section 3.2):
//
//   cost[d][i] = min_{0<=e<=d} Tcomm(i,e) + max(Tcomp(i,e), cost[d-e][i+1])
//
// - Algorithm 1 (`exact_dp`) scans all e: O(p n^2) time, only requires the
//   cost functions to be non-negative and null at 0.
// - Algorithm 2 (`optimized_dp`) additionally requires increasing cost
//   functions; it binary-searches the crossover e_max where computation
//   overtakes the downstream cost, then scans downward with an early
//   break. Same worst case, O(p n) best case, far faster in practice
//   (the paper: > 2 days vs 6 minutes at n = 817,101).
//
// Performance engineering (see docs/algorithms.md, "Performance
// engineering"): every cell (i, d) depends only on the prefix [0..d] of
// column i+1, so the engine runs a *wavefront* pipeline — each column is
// cut into fixed chunks and a chunk starts as soon as the previous
// column's done-prefix covers it, overlapping columns instead of placing
// a pool barrier between them. Algorithm 2's crossover is monotone in d,
// so inside a chunk it advances by a two-pointer sweep (amortized O(1)
// per cell, sequential loads) instead of a per-cell bisection. Its
// downward scan runs as one kernel for every cost: Tcomm has a few pieces
// (model::CostPiece), each slope * e plus a term constant on blocks, and
// within a block the scan is a sliding-window minimum kept on a monotone
// stack. The piece holding the crossover and the one below it keep such
// stacks and the classic scan runs on below them, so a cell reads no
// more candidates than the scan and, on pieces longer than the scan's
// depth, amortized O(1) (about one piece per cell on calibrated costs),
// which is what makes n = 10^6 a sub-second solve; the kernel's scratch
// is two stacks per worker whatever the number of pieces. The winner's
// value is recomputed with the scan's expression, so results match the
// classic scan bit for bit except on sub-ulp ties.
// Algorithm 1's min-reduction has an AVX2 path with a bit-identical
// scalar fallback. The chunk grid is fixed and every chunk is a pure
// function of its inputs, so results are bit-identical across thread
// counts and table budgets.
//
// Reconstruction: a solve whose int32 choice table — (p-1) x (n+1)
// argmins; shares never exceed n — fits the table budget (1 GiB) is one
// wavefront pass that records every argmin and walks them back from
// (0, n). Larger solves, and every solve past 2^31 - 1 items, recurse
// Hirschberg-style on the processor axis: a node keeps only rolling cost
// columns plus its realized split point, O(n log p + p) working memory,
// and each node that fits the budget is again one table pass. The
// distribution is the same either way; recursion only adds column
// re-sweeps, which cells_evaluated counts.
#pragma once

#include <cstddef>

#include "core/distribution.hpp"
#include "model/platform.hpp"

namespace lbs::model {
class CostTable;
}

namespace lbs::obs {
class Metrics;
class Tracer;
}

namespace lbs::core {

struct DpOptions {
  // 1 forces a serial run; any other value (0 = default) partitions each
  // column over the shared pool (support::shared_pool, sized by
  // LBS_PLANNER_THREADS / hardware concurrency). Results are identical
  // either way.
  int threads = 0;
  // Optional precomputed cost table for this platform covering at least
  // `items`; skips the per-column Tcomm/Tcomp evaluation. Worth building
  // once when planning repeatedly over the same (platform, n).
  const model::CostTable* cost_table = nullptr;
  // When true (default) Algorithm 1 uses the AVX2 cell kernel on hosts
  // that support it. The scalar fallback is bit-identical; this switch
  // exists so differential tests can force the comparison.
  bool allow_simd = true;
  // Table budget: a recursion node (the whole solve first) whose int32
  // choice table fits in this many bytes is solved by one table pass
  // instead of recursing (0 = the built-in 1 GiB default). Tests and
  // benches shrink it to force recursion; results are identical either
  // way.
  std::size_t dc_table_bytes = 0;
  // Observability hooks. A null tracer falls back to obs::global_tracer()
  // (still usually null); each solve then emits one dp.solve span carrying
  // items / cells evaluated / threads. Metrics are explicit-only: when
  // non-null, the "dp.solves" and "dp.cells_evaluated" counters are bumped.
  obs::Tracer* tracer = nullptr;
  obs::Metrics* metrics = nullptr;
};

struct DpResult {
  Distribution distribution;
  double cost = 0.0;  // predicted makespan of the optimal distribution
  // Provenance: DP cells evaluated (counted at column granularity, so the
  // figure is scheduling-independent) and the thread count used. A single
  // table pass evaluates (n+1) + (p-1) n cells; a recursing solve also
  // counts its O(log p) re-sweeps, so the two are directly comparable.
  long long cells_evaluated = 0;
  int threads_used = 1;
};

// Algorithm 1. Requires items >= 0 and a non-empty platform.
DpResult exact_dp(const model::Platform& platform, long long items,
                  const DpOptions& options = {});

// Algorithm 2. Additionally requires platform.all_costs_increasing().
DpResult optimized_dp(const model::Platform& platform, long long items,
                      const DpOptions& options = {});

}  // namespace lbs::core
