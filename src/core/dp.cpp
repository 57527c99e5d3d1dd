#include "core/dp.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LBS_DP_X86 1
#endif

#include "model/cost_table.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace lbs::core {

namespace {

// Wavefront chunk sizes (cells per task, same grid for row fills).
// Algorithm 1 cells cost O(d) each, so small chunks keep the pipeline
// balanced; Algorithm 2 cells are O(1) amortized (two-pointer sweep) and
// only pay off in chunks large enough to amortize the task claim.
constexpr long long kExactGrain = 512;
constexpr long long kOptimizedGrain = 32768;
constexpr long long kFillGrain = 8192;

// Table budget: a recursion node — the whole solve first — whose int32
// choice table fits this many bytes is solved by one wavefront table pass;
// only larger nodes pay the divide-and-conquer re-sweeps.
constexpr std::size_t kTableByteLimit = std::size_t{1} << 30;  // 1 GiB

constexpr long long kMaxChoiceTableItems = std::numeric_limits<std::int32_t>::max();

// Serial-or-pooled loop runner; `threads == 1` pins everything inline so
// benches can measure a true serial baseline.
struct Parallel {
  int threads = 1;

  void for_range(long long begin, long long end, long long grain,
                 const std::function<void(long long, long long)>& fn) const {
    if (begin >= end) return;
    if (threads == 1) {
      fn(begin, end);
    } else {
      support::shared_pool().for_range(begin, end, grain, fn);
    }
  }
};

int resolve_threads(const DpOptions& options) {
  if (options.threads == 1) return 1;
  if (options.threads <= 0) return support::default_parallelism();
  return options.threads;
}

// One DP cell: the optimal share and resulting cost for processor i when
// `d` items remain, against the flattened rows comm/comp (e = 0..d valid)
// and the downstream column `down` (cost of d' items on P_{i+1}..P_p).
struct Cell {
  double cost;
  long long sol;
};

// Algorithm 1, one cell: full scan over e. Costs null at 0, so e = 0
// yields down[d]. Ties keep the smallest e (strict-< update).
Cell exact_cell(const double* comm, const double* comp, const double* down,
                long long d) {
  long long sol = 0;
  double best = down[d];
  for (long long e = 1; e <= d; ++e) {
    double m = comm[e] + std::max(comp[e], down[d - e]);
    if (m < best) {
      best = m;
      sol = e;
    }
  }
  return {best, sol};
}

#ifdef LBS_DP_X86
// AVX2 exact cell: four e-lanes track lane-local (best, argmin) pairs; the
// final reduction picks the smallest value and, on ties, the smallest e —
// exactly the scalar scan's strict-< semantics, so results are bitwise
// identical. down[d - e] runs backwards, so each block loads four doubles
// ending at d - e and lane-reverses them.
__attribute__((target("avx2"))) Cell exact_cell_avx2(const double* comm,
                                                     const double* comp,
                                                     const double* down,
                                                     long long d) {
  long long sol = 0;
  double best = down[d];
  long long e = 1;
  if (d >= 8) {
    __m256d vbest = _mm256_set1_pd(best);
    __m256i vsol = _mm256_setzero_si256();
    __m256i ve = _mm256_set_epi64x(4, 3, 2, 1);
    const __m256i vstep = _mm256_set1_epi64x(4);
    for (; e + 3 <= d; e += 4) {
      __m256d vcomm = _mm256_loadu_pd(comm + e);
      __m256d vcomp = _mm256_loadu_pd(comp + e);
      __m256d vdown = _mm256_loadu_pd(down + (d - e - 3));
      vdown = _mm256_permute4x64_pd(vdown, _MM_SHUFFLE(0, 1, 2, 3));
      // max(down, comp) matches std::max(comp, down): returns comp unless
      // down compares greater.
      __m256d vm = _mm256_add_pd(vcomm, _mm256_max_pd(vdown, vcomp));
      __m256d lt = _mm256_cmp_pd(vm, vbest, _CMP_LT_OQ);
      vbest = _mm256_blendv_pd(vbest, vm, lt);
      vsol = _mm256_blendv_epi8(vsol, ve, _mm256_castpd_si256(lt));
      ve = _mm256_add_epi64(ve, vstep);
    }
    alignas(32) double lane_best[4];
    alignas(32) long long lane_sol[4];
    _mm256_store_pd(lane_best, vbest);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_sol), vsol);
    for (int lane = 0; lane < 4; ++lane) {
      if (lane_best[lane] < best ||
          (lane_best[lane] == best && lane_sol[lane] != 0 &&
           (sol == 0 || lane_sol[lane] < sol))) {
        // A lane whose minimum ties the running best only wins with a
        // smaller e; sol == 0 (the init candidate down[d]) is e = 0 and a
        // lane can never beat it on a tie.
        if (lane_best[lane] < best) {
          best = lane_best[lane];
          sol = lane_sol[lane];
        } else if (sol != 0 && lane_sol[lane] < sol) {
          sol = lane_sol[lane];
        }
      }
    }
  }
  for (; e <= d; ++e) {
    double m = comm[e] + std::max(comp[e], down[d - e]);
    if (m < best) {
      best = m;
      sol = e;
    }
  }
  return {best, sol};
}
#endif  // LBS_DP_X86

bool host_has_avx2() {
#ifdef LBS_DP_X86
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

using CellFn = Cell (*)(const double*, const double*, const double*, long long);

CellFn select_exact_cell(bool allow_simd) {
#ifdef LBS_DP_X86
  if (allow_simd && host_has_avx2()) return &exact_cell_avx2;
#else
  (void)allow_simd;
#endif
  return &exact_cell;
}

// Algorithm 2 crossover: the smallest e in [0, d] with
// Tcomp(i, e) >= cost[d-e][i+1], or d + 1 when computation never catches
// up. f(e) = comp[e] - down[d-e] is non-decreasing (increasing costs make
// comp non-decreasing in e and down non-decreasing in its argument), so
// the bisection below finds exactly that smallest crossing — the same
// value the paper's lines 16-26 compute.
long long crossover(const double* comp, const double* down, long long d) {
  if (comp[0] >= down[d]) return 0;
  if (comp[d] < down[0]) return d + 1;
  long long e_min = 0;
  long long e_max = d;
  long long e = d / 2;
  while (e != e_min) {
    if (comp[e] < down[d - e]) {
      e_min = e;
    } else {
      e_max = e;
    }
    e = (e_min + e_max) / 2;
  }
  return e_max;
}

// Algorithm 2, one cell with a known crossover: candidate at the crossover
// (or the all-items degenerate when there is none), then the paper's
// downward scan with early break (lines 28-35).
inline Cell optimized_cell_at(const double* comm, const double* comp,
                              const double* down, long long d, long long estar) {
  long long sol;
  double min_cost;
  if (estar <= d) {
    sol = estar;
    min_cost = comm[estar] + comp[estar];
  } else {
    sol = d;
    min_cost = comm[d] + down[0];
  }
  for (long long e = sol - 1; e >= 0; --e) {
    double dn = down[d - e];
    double m = comm[e] + dn;
    if (m < min_cost) {
      min_cost = m;
      sol = e;
    } else if (dn >= min_cost) {
      break;
    }
  }
  return {min_cost, sol};
}

Cell optimized_cell(const double* comm, const double* comp, const double* down,
                    long long d) {
  return optimized_cell_at(comm, comp, down, d, crossover(comp, down, d));
}

// Algorithm 2 over a d-range [d0, d1), d0 >= 1. The crossover e*(d) is
// non-decreasing in d (f_d(e) above is non-increasing in d), so after one
// bisection at d0 it advances by a forward scan — amortized O(1) per cell
// with purely sequential memory access, where a per-cell bisection costs
// O(log n) *random* loads (the former 1M-item cache killer). e*(d) is a
// pure function of d, so chunk boundaries never change any result.
template <class Sink>
void optimized_range(const double* comm, const double* comp, const double* down,
                     long long d0, long long d1, Sink&& sink) {
  long long estar = crossover(comp, down, d0);
  for (long long d = d0; d < d1; ++d) {
    while (estar <= d && comp[estar] < down[d - estar]) ++estar;
    Cell c = optimized_cell_at(comm, comp, down, d, estar);
    sink(d, c);
  }
}

// ---------------------------------------------------------------------------
// Affine-comm Algorithm 2: the scan collapses to a sliding-window minimum.
//
// The downward scan's work grows with d — on the paper testbed it averages
// hundreds of candidates per cell at n = 100k and thousands at 1M, so the
// total scan work is O(n^2)-like and dominates the whole solve. But when
// Tcomm(e) = b + beta*e for e >= 1 (affine, the LP-relevant case and every
// linear platform), a B-candidate decomposes over k = d - e as
//
//   comm[e] + down[d-e]  ~  (b + beta*d) + (down[k] - beta*k)
//
// so up to rounding, minimizing over e is minimizing the *d-independent*
// array v[k] = down[k] - beta*k over the window k in [d - e_hi(d), d - 1]
// (e = 0, i.e. k = d, stays a separate candidate). Both window ends are
// served by a monotone stack of suffix minima of v: push k = d - 1 per
// cell (amortized O(1)), answer with the first stack entry with k >= k_lo
// via a bidirectional cursor walk (amortized O(1): k_lo moves with the
// two-pointer crossover). That turns the per-cell O(scan) into amortized
// O(1) — the difference between ~30 s and ~1 s at n = 1M.
//
// Numerics: v-space ordering can disagree with the scan's m-space ordering
// only on sub-ulp near-ties, and the selected cell *value* is recomputed
// with the scan's own expression comm[sol] + down[d - sol], so results
// match the classic scan bit-for-bit except on such crafted ties — and are
// a deterministic pure function of (d, rows, down) either way, identical
// across thread counts, chunk grids, and table budgets.
//
// Chunk safety: e_hi(d) = min(e*(d), d + 1) - 1 is non-decreasing in d, so
// for every cell of a chunk [d0, d1) the window floor k_lo(d) = d - e_hi(d)
// stays >= d0 - e_hi(d1 - 1). Seeding the stack from that bound makes each
// chunk self-contained (a stack entry's survival only ever depends on
// *later* k, so a suffix build equals the full-column build's suffix).
// ---------------------------------------------------------------------------

struct StackEntry {
  long long k;
  double v;
};

inline double affine_v(const double* down, double beta, long long k) {
  return down[k] - beta * static_cast<double>(k);
}

template <class Sink>
void optimized_affine_range(const double* comm, const double* comp,
                            const double* down, long long d0, long long d1,
                            model::AffineCoeffs a, Sink&& sink) {
  if (d0 >= d1) return;
  const long long last = d1 - 1;
  const long long ehi_last = std::min(crossover(comp, down, last), last + 1) - 1;
  const long long k_start =
      std::max<long long>(0, d0 - std::max<long long>(ehi_last, 0));
  std::vector<StackEntry> stack;
  stack.reserve(static_cast<std::size_t>(d1 - k_start));
  auto push = [&](long long k) {
    const double v = affine_v(down, a.per_item, k);
    while (!stack.empty() && stack.back().v > v) stack.pop_back();
    stack.push_back(StackEntry{k, v});
  };
  for (long long k = k_start; k < d0; ++k) push(k);
  std::size_t cursor = 0;
  long long estar = crossover(comp, down, d0);
  for (long long d = d0; d < d1; ++d) {
    if (d > d0) push(d - 1);
    while (estar <= d && comp[estar] < down[d - estar]) ++estar;
    long long sol = -1;
    double best = std::numeric_limits<double>::infinity();
    if (estar <= d) {
      sol = estar;
      best = comm[estar] + comp[estar];
    }
    const long long e_hi = std::min(estar, d + 1) - 1;  // B window: e in [1, e_hi]
    if (e_hi >= 1) {
      const long long k_lo = d - e_hi;
      if (cursor >= stack.size()) cursor = stack.size() - 1;
      while (cursor > 0 && stack[cursor - 1].k >= k_lo) --cursor;
      while (cursor < stack.size() && stack[cursor].k < k_lo) ++cursor;
      LBS_CHECK_MSG(cursor < stack.size(),
                    "affine window minimum escaped the stack");
      const long long bk = stack[cursor].k;
      const double bval = comm[d - bk] + down[bk];
      if (bval < best) {
        best = bval;
        sol = d - bk;
      }
    }
    if (estar >= 1 && down[d] < best) {
      best = down[d];
      sol = 0;
    }
    sink(d, Cell{best, sol});
  }
}

// Single-cell variant with identical selection semantics (window minimum of
// v with the smallest k on ties, value recomputed in m-space), so the
// divide-and-conquer leaves agree bitwise with the table passes.
Cell optimized_affine_cell(const double* comm, const double* comp,
                           const double* down, long long d,
                           model::AffineCoeffs a) {
  const long long estar = crossover(comp, down, d);
  long long sol = -1;
  double best = std::numeric_limits<double>::infinity();
  if (estar <= d) {
    sol = estar;
    best = comm[estar] + comp[estar];
  }
  const long long e_hi = std::min(estar, d + 1) - 1;
  if (e_hi >= 1) {
    long long bk = -1;
    double bv = std::numeric_limits<double>::infinity();
    for (long long k = d - e_hi; k <= d - 1; ++k) {
      const double v = affine_v(down, a.per_item, k);
      if (v < bv) {
        bv = v;
        bk = k;
      }
    }
    const double bval = comm[d - bk] + down[bk];
    if (bval < best) {
      best = bval;
      sol = d - bk;
    }
  }
  if (estar >= 1 && down[d] < best) {
    best = down[d];
    sol = 0;
  }
  LBS_CHECK_MSG(sol >= 0, "dp cell found no candidate");
  return {best, sol};
}

// Which cell kernel a solve runs. `exact` carries the (possibly AVX2)
// Algorithm 1 cell; when null the solve is Algorithm 2, which further
// dispatches per column: the monotone-stack kernel when that column's
// Tcomm is affine, the classic two-pointer scan otherwise.
struct KernelConfig {
  CellFn exact = nullptr;  // null -> optimized (Algorithm 2)
  const model::Platform* platform = nullptr;  // per-column affine dispatch

  [[nodiscard]] std::optional<model::AffineCoeffs> column_affine(int col) const {
    if (exact != nullptr || platform == nullptr) return std::nullopt;
    return (*platform)[col].comm.affine();
  }

  [[nodiscard]] Cell single(int col, const double* comm, const double* comp,
                            const double* down, long long d) const {
    if (exact != nullptr) return exact(comm, comp, down, d);
    if (const auto a = column_affine(col)) {
      return optimized_affine_cell(comm, comp, down, d, *a);
    }
    return optimized_cell(comm, comp, down, d);
  }

  template <class Sink>
  void range(int col, const double* comm, const double* comp, const double* down,
             long long d0, long long d1, Sink&& sink) const {
    if (exact != nullptr) {
      for (long long d = d0; d < d1; ++d) sink(d, exact(comm, comp, down, d));
    } else if (const auto a = column_affine(col)) {
      optimized_affine_range(comm, comp, down, d0, d1, *a, sink);
    } else {
      optimized_range(comm, comp, down, d0, d1, sink);
    }
  }
};

// Serves the flattened Tcomm/Tcomp rows for one processor at a time:
// views into a caller-provided CostTable when available, otherwise a pair
// of scratch rows re-filled per column. Returned pointers are valid until
// the next get() call. The scratch rows are allocated up front even when
// the solve is one wavefront pass (which fills rows of its own): without
// them a p = 16 pass's working set sits just under glibc's dynamic trim
// threshold, its freed memory stays resident between solves, and peak
// RSS of repeated planning grows by about half (perfbench plan_dp).
class RowSource {
 public:
  RowSource(const model::Platform& platform, long long items,
            const model::CostTable* table, const Parallel& parallel)
      : platform_(platform), items_(items), table_(table), parallel_(parallel) {
    if (table_ != nullptr) {
      LBS_CHECK_MSG(table_->processors() == platform.size(),
                    "cost table built for a different platform size");
      LBS_CHECK_MSG(table_->items() >= items,
                    "cost table covers fewer items than requested");
    } else {
      comm_.resize(static_cast<std::size_t>(items) + 1);
      comp_.resize(static_cast<std::size_t>(items) + 1);
    }
  }

  [[nodiscard]] const model::CostTable* table() const { return table_; }
  [[nodiscard]] const model::Platform& platform() const { return platform_; }

  // Rows for processor i, valid for e = 0..dmax (dmax <= items).
  std::pair<const double*, const double*> get(int i, long long dmax) {
    if (table_ != nullptr) {
      return {table_->comm_row(i).data(), table_->comp_row(i).data()};
    }
    std::span<double> comm(comm_.data(), static_cast<std::size_t>(dmax) + 1);
    std::span<double> comp(comp_.data(), static_cast<std::size_t>(dmax) + 1);
    model::fill_cost_rows(platform_[i], dmax, comm, comp, parallel_.threads);
    return {comm_.data(), comp_.data()};
  }

 private:
  const model::Platform& platform_;
  long long items_;
  const model::CostTable* table_;
  const Parallel& parallel_;
  std::vector<double> comm_;
  std::vector<double> comp_;
};

// ---------------------------------------------------------------------------
// Wavefront table pass.
//
// One pass sweeps columns col_hi-1 .. col_lo (plus an optional seed column
// for P_{col_hi}) and records every argmin in an int32 choice table. The
// old engine ran a pool barrier per column; here each column ("level") is
// cut into fixed chunks and a chunk becomes runnable as soon as its own
// row-fill prefix and the previous level's cell prefix cover it — so
// column i's tail overlaps column i-1's head and the only full barrier is
// the end of the pass. The chunk grid is fixed (independent of thread
// count) and every chunk is a pure function of its inputs, so results are
// bit-identical across 1..N threads.
//
// Memory: three rotating cost columns (level l writes bufs[l % 3]; its
// reader is level l+1 and the claim window below keeps writers two levels
// behind readers) and two rotating scratch row pairs when no CostTable is
// supplied. Progress tracking is per-level: an atomic claim cursor plus a
// done-flag array folded into a contiguous done-prefix. All coordination
// is seq_cst atomics at chunk granularity (thousands of cells per claim),
// so the ordering cost is noise and the scheme is trivially TSan-clean.
// ---------------------------------------------------------------------------

struct WavefrontLevel {
  long long chunks = 0;
  long long fill_chunks = 0;  // 0 when rows come from a CostTable / seed given
  std::atomic<long long> fill_next{0};
  std::atomic<long long> fill_prefix{0};
  std::atomic<long long> cell_next{0};
  std::atomic<long long> cell_prefix{0};
  std::vector<std::atomic<std::uint8_t>> fill_done;
  std::vector<std::atomic<std::uint8_t>> cell_done;

  [[nodiscard]] bool complete() const {
    return cell_prefix.load() >= chunks && fill_prefix.load() >= fill_chunks;
  }
};

// Marks chunk c done and folds the contiguous prefix forward.
void mark_done(std::vector<std::atomic<std::uint8_t>>& done,
               std::atomic<long long>& prefix, long long chunks, long long c) {
  done[static_cast<std::size_t>(c)].store(1);
  long long pfx = prefix.load();
  while (pfx < chunks && done[static_cast<std::size_t>(pfx)].load() != 0) {
    if (prefix.compare_exchange_weak(pfx, pfx + 1)) ++pfx;
  }
}

struct WavefrontResult {
  double cost = 0.0;   // final column's value at d_in
  long long taken = 0; // sum of the reconstructed shares for [col_lo, col_hi)
};

// Runs the pass described above. Columns col_lo..col_hi-1 each get a
// choice row (stride d_in + 1, row r for column col_lo + r) and a
// reconstructed share in shares[0..col_hi-col_lo). The downstream seed is
// either the provided column `g` (size d_in + 1) or, when g is null,
// computed from column col_hi's own rows (the P_p "takes the rest" seed).
WavefrontResult wavefront_pass(RowSource& rows, int col_lo, int col_hi,
                               long long d_in, const double* g,
                               std::int32_t* choice, long long* shares,
                               const KernelConfig& kernel, const Parallel& parallel,
                               long long grain) {
  const int ncols = col_hi - col_lo;
  const std::size_t width = static_cast<std::size_t>(d_in) + 1;
  const bool seed_from_rows = g == nullptr;
  const int nlevels = ncols + 1;  // level 0 = seed, level l >= 1 = column col_hi - l
  const model::CostTable* table = rows.table();
  const model::Platform& platform = rows.platform();
  LBS_CHECK_MSG(ncols == 0 || choice != nullptr, "wavefront pass needs a choice table");
  LBS_CHECK_MSG(d_in <= kMaxChoiceTableItems,
                "choice table stores int32 shares; the solver recurses "
                "beyond 2^31 - 1 items");

  const long long chunks = (d_in + grain) / grain;  // ceil((d_in + 1) / grain)
  std::vector<WavefrontLevel> levels(static_cast<std::size_t>(nlevels));
  long long total_tasks = 0;
  for (int l = 0; l < nlevels; ++l) {
    WavefrontLevel& lv = levels[static_cast<std::size_t>(l)];
    lv.chunks = (l == 0 && !seed_from_rows) ? 0 : chunks;
    lv.fill_chunks = (table != nullptr || lv.chunks == 0) ? 0 : chunks;
    lv.fill_done = std::vector<std::atomic<std::uint8_t>>(
        static_cast<std::size_t>(lv.fill_chunks));
    lv.cell_done = std::vector<std::atomic<std::uint8_t>>(
        static_cast<std::size_t>(lv.chunks));
    total_tasks += lv.chunks + lv.fill_chunks;
  }
  std::atomic<int> first_incomplete{levels[0].chunks == 0 ? 1 : 0};

  // Rotating buffers. Level l's cost column is bufs[l % 3]; when the seed
  // is provided, level 0 owns no buffer and level 1 reads `g` directly.
  std::vector<std::vector<double>> bufs(3);
  for (auto& b : bufs) b.resize(width);
  std::vector<std::vector<double>> row_bufs(table != nullptr ? 0 : 4);
  for (auto& b : row_bufs) b.resize(width);

  auto level_column = [&](int l) { return l == 0 ? col_hi : col_hi - l; };

  auto level_rows = [&](int l) -> std::pair<const double*, const double*> {
    const int col = level_column(l);
    if (table != nullptr) {
      return {table->comm_row(col).data(), table->comp_row(col).data()};
    }
    const auto& pair_comm = row_bufs[static_cast<std::size_t>(2 * (l % 2))];
    const auto& pair_comp = row_bufs[static_cast<std::size_t>(2 * (l % 2) + 1)];
    return {pair_comm.data(), pair_comp.data()};
  };

  auto run_fill = [&](int l, long long c) {
    const int col = level_column(l);
    const long long e0 = c * grain;
    const long long e1 = std::min(d_in + 1, e0 + grain);
    double* comm = row_bufs[static_cast<std::size_t>(2 * (l % 2))].data();
    double* comp = row_bufs[static_cast<std::size_t>(2 * (l % 2) + 1)].data();
    const auto& proc = platform[col];
    for (long long e = e0; e < e1; ++e) {
      comm[static_cast<std::size_t>(e)] = proc.comm(e);
      comp[static_cast<std::size_t>(e)] = proc.comp(e);
    }
  };

  auto run_cells = [&](int l, long long c) {
    const long long d0 = c * grain;
    const long long d1 = std::min(d_in + 1, d0 + grain);
    auto [comm, comp] = level_rows(l);
    if (l == 0) {
      double* seed = bufs[0].data();
      for (long long d = d0; d < d1; ++d) {
        seed[static_cast<std::size_t>(d)] = comm[d] + comp[d];
      }
      return;
    }
    const double* down =
        (l == 1 && !seed_from_rows) ? g : bufs[static_cast<std::size_t>((l - 1) % 3)].data();
    double* cost = bufs[static_cast<std::size_t>(l % 3)].data();
    std::int32_t* choice_row =
        choice + static_cast<std::size_t>(level_column(l) - col_lo) * width;
    long long begin = d0;
    if (begin == 0) {
      cost[0] = 0.0;
      choice_row[0] = 0;
      begin = 1;
    }
    kernel.range(level_column(l), comm, comp, down, begin, d1,
                 [&](long long d, Cell cell) {
                   cost[static_cast<std::size_t>(d)] = cell.cost;
                   choice_row[d] = static_cast<std::int32_t>(cell.sol);
                 });
  };

  // Claims and executes one runnable task; false when nothing is runnable
  // right now (the caller spins — runnable work appears as peers finish).
  auto try_run_one = [&]() -> bool {
    const int first = first_incomplete.load();
    for (int l = first; l < std::min(first + 2, nlevels); ++l) {
      WavefrontLevel& lv = levels[static_cast<std::size_t>(l)];
      long long c = lv.fill_next.load();
      while (c < lv.fill_chunks) {
        if (lv.fill_next.compare_exchange_weak(c, c + 1)) {
          run_fill(l, c);
          mark_done(lv.fill_done, lv.fill_prefix, lv.fill_chunks, c);
          return true;
        }
      }
      const WavefrontLevel* prev =
          l > 0 ? &levels[static_cast<std::size_t>(l - 1)] : nullptr;
      c = lv.cell_next.load();
      while (c < lv.chunks &&
             (lv.fill_chunks == 0 || lv.fill_prefix.load() > c) &&
             (prev == nullptr || prev->chunks == 0 || prev->cell_prefix.load() > c)) {
        if (lv.cell_next.compare_exchange_weak(c, c + 1)) {
          run_cells(l, c);
          mark_done(lv.cell_done, lv.cell_prefix, lv.chunks, c);
          if (lv.complete()) {
            int f = first_incomplete.load();
            while (f < nlevels && levels[static_cast<std::size_t>(f)].complete()) {
              if (first_incomplete.compare_exchange_weak(f, f + 1)) ++f;
            }
          }
          return true;
        }
      }
    }
    return false;
  };

  parallel.for_range(0, total_tasks, 1, [&](long long begin, long long end) {
    for (long long t = begin; t < end; ++t) {
      while (!try_run_one()) std::this_thread::yield();
    }
  });

  WavefrontResult result;
  const double* final_cost =
      ncols == 0 ? (seed_from_rows ? bufs[0].data() : g)
                 : bufs[static_cast<std::size_t>(ncols % 3)].data();
  result.cost = final_cost[static_cast<std::size_t>(d_in)];
  long long remaining = d_in;
  for (int i = col_lo; i < col_hi; ++i) {
    const std::int32_t* choice_row =
        choice + static_cast<std::size_t>(i - col_lo) * width;
    const long long share = choice_row[remaining];
    shares[i - col_lo] = share;
    remaining -= share;
    LBS_CHECK_MSG(remaining >= 0, "dp reconstruction lost items");
  }
  result.taken = d_in - remaining;
  return result;
}

void check_preconditions(const model::Platform& platform, long long items) {
  LBS_CHECK_MSG(platform.size() >= 1, "empty platform");
  LBS_CHECK_MSG(items >= 0, "negative item count");
  for (int i = 0; i < platform.size(); ++i) {
    LBS_CHECK_MSG(platform[i].comm(0) == 0.0 && platform[i].comp(0) == 0.0,
                  "cost functions must be null at 0 (paper framework)");
  }
}

std::size_t resolve_table_bytes(const DpOptions& options) {
  return options.dc_table_bytes != 0 ? options.dc_table_bytes : kTableByteLimit;
}

// The one solver: Hirschberg-style divide and conquer on the processor
// axis with a table-pass bottom-out. solve(lo, hi, d_in, g) fixes the
// shares of processors [lo, hi) given that d_in items enter P_lo and that
// `g` is the downstream cost column of P_hi..P_p over [0..d_in]. A node
// whose own int32 choice table fits the byte budget is solved by one
// wavefront table pass (bit-identical by construction — same cells, same
// argmin walk); only nodes too large to tabulate pay the thru-column
// split, whose extra re-sweeps are the O(log p) factor. When the whole
// problem fits, the root is that single pass with the P_p seed pipelined
// from its rows, so no recursion scratch is ever allocated. Above the
// budget each column sweep is a pool barrier, which is fine there: such
// columns have thousands of chunks, so the barrier is amortized to noise.
DpResult run_divide_conquer(const model::Platform& platform, long long items,
                            const DpOptions& options, const KernelConfig& kernel,
                            long long grain) {
  const int p = platform.size();
  const long long n = items;
  Parallel parallel{resolve_threads(options)};
  const std::size_t table_budget = resolve_table_bytes(options);
  auto fits_table = [&](int columns, long long d_in) {
    return d_in <= kMaxChoiceTableItems &&
           static_cast<std::size_t>(columns) * (static_cast<std::size_t>(d_in) + 1) *
                   sizeof(std::int32_t) <=
               table_budget;
  };

  if (p == 1 && n > kMaxChoiceTableItems) {
    // Past the int32 table range a lone processor still takes everything:
    // evaluate that one cell directly, with no table and no (n+1)-long rows.
    DpResult result;
    result.threads_used = parallel.threads;
    result.distribution.counts.assign(1, n);
    result.cost = platform[0].comm(n) + platform[0].comp(n);
    result.cells_evaluated = 1;
    return result;
  }
  // Allocation order matters for peak RSS: rows, then the table, then the
  // shares; the result, which outlives this call, only after the solve.
  // With the result allocated first, a later and slightly larger table
  // no longer fit where the last one was freed and got a fresh mapping
  // beside it, so perfbench plan_dp's peak RSS rose by about 3 MB in most
  // 20 s runs.
  RowSource rows(platform, n, options.cost_table, parallel);
  const bool single_pass = fits_table(p - 1, n);
  std::vector<std::int32_t> choice;
  if (single_pass) {
    choice.resize(static_cast<std::size_t>(p - 1) * (static_cast<std::size_t>(n) + 1));
  }
  std::vector<long long> shares(static_cast<std::size_t>(p - 1), 0);

  // Accumulated at column granularity (one add per column sweep, never in
  // the parallel inner loops), so it exactly tallies the re-sweeps a
  // recursing solve performs over the single table pass.
  long long cells = 0;

  // Applies column i over [0..dmax]: next[d] = cell(i, d) against `down`.
  auto apply_column = [&](int i, long long dmax, const double* down,
                          std::vector<double>& next) {
    auto [comm, comp] = rows.get(i, dmax);
    cells += dmax;
    next[0] = 0.0;
    parallel.for_range(1, dmax + 1, grain, [&](long long begin, long long end) {
      kernel.range(i, comm, comp, down, begin, end, [&](long long d, Cell c) {
        next[static_cast<std::size_t>(d)] = c.cost;
      });
    });
  };

  auto solve = [&](auto&& self, int lo, int hi, long long d_in,
                   std::vector<double> g) -> double {
    if (hi - lo == 1) {
      auto [comm, comp] = rows.get(lo, d_in);
      cells += 1;
      Cell c = kernel.single(lo, comm, comp, g.data(), d_in);
      shares[static_cast<std::size_t>(lo)] = c.sol;
      return c.cost;
    }

    if (fits_table(hi - lo, d_in)) {
      std::vector<std::int32_t> node_choice(
          static_cast<std::size_t>(hi - lo) * (static_cast<std::size_t>(d_in) + 1));
      cells += static_cast<long long>(hi - lo) * d_in;
      WavefrontResult pass =
          wavefront_pass(rows, lo, hi, d_in, g.data(), node_choice.data(),
                         shares.data() + lo, kernel, parallel, grain);
      return pass.cost;
    }

    const int mid = (lo + hi) / 2;
    const std::size_t width = static_cast<std::size_t>(d_in) + 1;

    // g_mid = columns hi-1..mid applied to g (g itself is preserved for
    // the right half's recursion).
    std::vector<double> cur(width);
    std::vector<double> nxt(width);
    const double* down = g.data();
    for (int i = hi - 1; i >= mid; --i) {
      apply_column(i, d_in, down, nxt);
      std::swap(cur, nxt);
      down = cur.data();
    }
    std::vector<double> g_mid = std::move(cur);

    // Thru sweep: columns mid-1..lo on top of g_mid, each cell also
    // recording which midpoint state its optimal path goes through.
    std::vector<double> c_cur(g_mid);
    std::vector<double> c_nxt(width);
    std::vector<long long> t_cur(width);
    std::vector<long long> t_nxt(width);
    parallel.for_range(0, d_in + 1, kFillGrain, [&](long long begin, long long end) {
      for (long long d = begin; d < end; ++d) t_cur[static_cast<std::size_t>(d)] = d;
    });
    for (int i = mid - 1; i >= lo; --i) {
      auto [comm, comp] = rows.get(i, d_in);
      cells += d_in;
      c_nxt[0] = 0.0;
      t_nxt[0] = 0;
      parallel.for_range(1, d_in + 1, grain, [&](long long begin, long long end) {
        kernel.range(i, comm, comp, c_cur.data(), begin, end,
                     [&](long long d, Cell c) {
                       c_nxt[static_cast<std::size_t>(d)] = c.cost;
                       t_nxt[static_cast<std::size_t>(d)] =
                           t_cur[static_cast<std::size_t>(d - c.sol)];
                     });
      });
      std::swap(c_cur, c_nxt);
      std::swap(t_cur, t_nxt);
    }
    const long long d_mid = t_cur[static_cast<std::size_t>(d_in)];
    const double cost_lo = c_cur[static_cast<std::size_t>(d_in)];
    LBS_CHECK_MSG(d_mid >= 0 && d_mid <= d_in, "dp split lost items");

    // Free the sweep scratch before recursing, then right half first (it
    // consumes g), left half second (it consumes g_mid).
    c_cur = {};
    c_nxt = {};
    t_cur = {};
    t_nxt = {};
    nxt = {};
    g.resize(static_cast<std::size_t>(d_mid) + 1);
    self(self, mid, hi, d_mid, std::move(g));
    self(self, lo, mid, d_in, std::move(g_mid));
    return cost_lo;
  };

  double cost = 0.0;
  if (single_pass) {
    // The whole problem is one table pass: every column's argmins in a
    // flat int32 table, walked back from (0, n). The seed evaluates n + 1
    // entries and every other column n cells (d = 1..n).
    cost = wavefront_pass(rows, 0, p - 1, n, nullptr, choice.data(), shares.data(),
                          kernel, parallel, grain)
               .cost;
    cells = (n + 1) + static_cast<long long>(p - 1) * n;
  } else {
    // Seed column for P_p, then split over the p-1 choosing processors.
    std::vector<double> seed(static_cast<std::size_t>(n) + 1);
    {
      auto [comm, comp] = rows.get(p - 1, n);
      cells += n + 1;
      parallel.for_range(0, n + 1, kFillGrain, [&](long long begin, long long end) {
        for (long long d = begin; d < end; ++d) {
          seed[static_cast<std::size_t>(d)] = comm[d] + comp[d];
        }
      });
    }
    cost = solve(solve, 0, p - 1, n, std::move(seed));
  }

  DpResult result;
  result.cost = cost;
  result.cells_evaluated = cells;
  result.threads_used = parallel.threads;
  result.distribution.counts.assign(static_cast<std::size_t>(p), 0);

  long long remaining = n;
  for (int i = 0; i < p - 1; ++i) {
    result.distribution.counts[static_cast<std::size_t>(i)] =
        shares[static_cast<std::size_t>(i)];
    remaining -= shares[static_cast<std::size_t>(i)];
  }
  result.distribution.counts[static_cast<std::size_t>(p - 1)] = remaining;
  LBS_CHECK_MSG(remaining >= 0, "dp reconstruction lost items");
  validate(platform, result.distribution, n);
  return result;
}

DpResult run(const model::Platform& platform, long long items,
             const DpOptions& options, const KernelConfig& kernel,
             long long grain) {
  obs::Tracer* tracer =
      options.tracer != nullptr ? options.tracer : obs::global_tracer();
  const double begin = tracer != nullptr ? obs::wall_now() : 0.0;
  DpResult result = run_divide_conquer(platform, items, options, kernel, grain);
  if (tracer != nullptr) {
    obs::TraceEvent event;
    event.type = obs::EventType::DpSolve;
    event.clock = obs::Clock::Wall;
    event.start = begin;
    event.duration = obs::wall_now() - begin;
    event.arg0 = items;
    event.arg1 = result.cells_evaluated;
    event.arg2 = result.threads_used;
    tracer->record(event);
  }
  if (options.metrics != nullptr) {
    options.metrics->counter("dp.solves").add();
    options.metrics->counter("dp.cells_evaluated")
        .add(static_cast<std::uint64_t>(result.cells_evaluated));
  }
  return result;
}

}  // namespace

DpResult exact_dp(const model::Platform& platform, long long items,
                  const DpOptions& options) {
  check_preconditions(platform, items);
  KernelConfig kernel;
  kernel.exact = select_exact_cell(options.allow_simd);
  kernel.platform = &platform;
  return run(platform, items, options, kernel, kExactGrain);
}

DpResult optimized_dp(const model::Platform& platform, long long items,
                      const DpOptions& options) {
  check_preconditions(platform, items);
  LBS_CHECK_MSG(platform.all_costs_increasing(),
                "Algorithm 2 requires increasing cost functions");
  KernelConfig kernel;
  kernel.platform = &platform;
  return run(platform, items, options, kernel, kOptimizedGrain);
}

}  // namespace lbs::core
