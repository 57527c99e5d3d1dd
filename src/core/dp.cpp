#include "core/dp.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
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
// balanced; Algorithm 2 cells are O(1) amortized (piece-wise window
// minima) and only pay off in chunks large enough to amortize the task
// claim and the per-chunk stack seeding.
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

// ---------------------------------------------------------------------------
// Algorithm 2 kernel: piecewise-affine window minima.
//
// The paper's cell (lines 28-35) takes the candidate at the crossover e*,
// then scans e < e* downward and stops once down[d - e] alone reaches the
// best value so far: costs are non-negative and `down` is non-decreasing,
// so no smaller e can win. That scan's depth grows with n. But every
// built-in Tcomm has a few pieces (model::CostPiece), on each of which it
// is slope_j * e plus a term c_b that is constant on each block b of the
// piece, so within a block, with k = d - e,
//
//   comm[e] + down[d-e]  ~  (c_b + slope_j*d) + (down[k] - slope_j*k)
//
// and up to rounding the block's best candidate minimizes the
// d-independent array v_j[k] = down[k] - slope_j*k over the block's window
// of k. A monotone stack of suffix minima of v_j answers "the smallest k
// holding the minimum over [a, top]" for any floor a. The blocks of a
// piece share v_j and c_b does not fall as e rises, so the answer over the
// piece's window also beats every block above the winner's; the kernel
// offers it, then jumps to the first k of the block below the winner's
// and asks again.
//
// Two stacks per worker: one for the top piece (the one holding
// e_hi = min(e*, d + 1) - 1, visited every cell) and one for the piece
// below it; below those the classic scan runs on, and a piece whose
// blocks are shorter than kMinJumpBlock is scanned too. Every step stops
// at the first k with down[k] >= best (the scan's own early break), and
// the scan's tie rule is kept: the largest e among equal values, the
// crossover candidate first and e = 0 last, each update on a strict <. A
// cell thus reads no more candidates than the classic scan and, on a
// piece or block longer than the scan's depth, amortized O(1).
//
// Window minima: a stack's top end rises by one per cell, so it is
// extended when visited; the answer is the first entry at or past the
// floor, found by a bidirectional cursor walk. That entry is the smallest
// k holding the minimum whatever the stack's base, so the choice is a
// pure function of the window. The stack is stored as runs of
// consecutive k (v_j is mostly increasing, so nearly every k survives,
// and a run costs 16 bytes however long it is); inside a run the answer
// is the floor itself.
//
// Numerics: v-space ordering can disagree with the scan's m-space
// ordering only on sub-ulp near-ties, and the selected value is
// recomputed with the scan's own expression comm[e] + down[d - e], so
// results match the classic scan bit for bit except on such crafted ties
// — and are a deterministic pure function of (d, rows, down) either way,
// identical across thread counts, chunk grids and table budgets.
//
// Chunk safety: e_hi(d) is non-decreasing in d, so over a chunk [d0, d1)
// the top piece's window floor d - min(e_hi(d), end - 1) never drops
// below d' - min(e_hi(d1 - 1), end - 1) for any earlier cell d'. Seeding
// its stack there when the piece becomes the top makes each chunk
// self-contained: a stack entry's survival depends only on later k, so a
// suffix build equals the full-column build's suffix. The piece below
// lies whole in the window, whose floor rises by one per cell: its stack
// is the old top's when the top moves up by one piece, and is seeded at
// the floor otherwise. Each stack holds at most a window and a chunk of
// k, whatever the number of pieces or blocks.
// ---------------------------------------------------------------------------

// Stack entries k = first..last, all consecutive.
struct StackRun {
  long long first;
  long long last;
};

// One piece's monotone stack; valid in the chunk being run while `piece`
// names that piece (end 0 names none).
struct PieceStack {
  model::CostPiece piece{0, 0, 0.0, 0};
  long long top = -1;      // last k pushed
  double last_v = 0.0;     // v of the stack's last entry
  std::size_t cursor = 0;  // run that answered the last floor
  std::vector<StackRun> runs;
};

// First capacity of a stack's runs: 2 KiB, past glibc's per-thread cache
// sizes. Blocks of 1 KiB or less that a pass frees stay in that cache
// uncoalesced, above the solve's large buffers, and keep the heap from
// shrinking after the solve: perfbench plan_dp's peak RSS rose by half.
constexpr std::size_t kMinStackRuns = 128;

// Blocks shorter than this are scanned: a jump costs a few scan steps.
// On the Table 1 testbed at n = 10^5 with chunked Tcomm, jumping over
// 4-item chunks took about twice the scan's time and over 8-item chunks
// about half.
constexpr long long kMinJumpBlock = 8;

// One worker's kernel scratch, reused across the chunks it runs.
struct KernelScratch {
  KernelScratch() {
    top.runs.reserve(kMinStackRuns);
    below.runs.reserve(kMinStackRuns);
  }
  PieceStack top;    // the piece holding e_hi
  PieceStack below;  // the piece below it
};

bool scanned(const model::CostPiece& piece) {
  return piece.period != 0 && piece.period < kMinJumpBlock;
}

// Pushes k = top + 1..k_hi, v[k] = down[k] - slope * k, first popping the
// entries whose v is larger.
[[gnu::always_inline]] inline void extend_stack(const double* down, double slope, long long k_hi,
                                                long long& top, double& last_v,
                                                std::vector<StackRun>& runs) {
  auto v_at = [&](long long k) { return down[k] - slope * static_cast<double>(k); };
  while (top < k_hi) {
    const long long k = ++top;
    const double v = v_at(k);
    while (!runs.empty() && last_v > v) {
      if (runs.back().first == runs.back().last) {
        runs.pop_back();
      } else {
        --runs.back().last;
      }
      if (!runs.empty()) last_v = v_at(runs.back().last);
    }
    if (!runs.empty() && runs.back().last == k - 1) {
      runs.back().last = k;
    } else {
      runs.push_back(StackRun{k, k});
    }
    last_v = v;
  }
}

// The first entry at or past k_lo (<= the stack's top): the smallest k
// holding the minimum of v over [k_lo, top]. `cursor` walks from the run
// that answered the last floor to this one.
[[gnu::always_inline]] inline long long stack_argmin(const std::vector<StackRun>& runs,
                                                     long long k_lo, std::size_t& cursor) {
  cursor = std::min(cursor, runs.size() - 1);
  while (cursor > 0 && runs[cursor - 1].last >= k_lo) --cursor;
  while (runs[cursor].last < k_lo) ++cursor;
  return std::max(runs[cursor].first, k_lo);
}

// First item of the block of `piece` holding e.
inline long long block_begin(const model::CostPiece& piece, long long e) {
  if (piece.period == 0) return piece.begin;
  return std::max(piece.begin, e - e % piece.period);
}

// One past the last item of the block of `piece` starting at b.
inline long long block_end(const model::CostPiece& piece, long long b) {
  if (piece.period == 0) return piece.end;
  return std::min(piece.end, b - b % piece.period + piece.period);
}

// Offers e = d - k, valued as the scan values it.
[[gnu::always_inline]] inline void offer(const double* comm, const double* down, long long d,
                                         long long k, Cell& cell) {
  const double m = comm[d - k] + down[k];
  if (m < cell.cost) cell = {m, d - k};
}

// The classic scan from e down to 1, breaking at the first e with
// down[d - e] >= best.
void scan_down(const double* comm, const double* down, long long d, long long e, Cell& cell) {
  double best = cell.cost;
  long long sol = cell.sol;
  for (; e >= 1; --e) {
    const double dn = down[d - e];
    const double m = comm[e] + dn;
    if (m < best) {
      best = m;
      sol = e;
    } else if (dn >= best) {
      break;
    }
  }
  cell = {best, sol};
}

// After `piece`'s stack answered k, offers the window minimum of each
// block of the piece below k's, from the top down. False once a block's
// first k has down[k] >= best: no candidate at or past it can win, and
// the scan breaks there.
bool offer_lower_blocks(const model::CostPiece& piece, const std::vector<StackRun>& runs,
                        const double* comm, const double* down, long long d, long long k,
                        Cell& cell) {
  long long b = block_begin(piece, d - k);
  auto run = runs.begin();
  while (b != piece.begin) {
    const long long a = d - b + 1;
    if (down[a] >= cell.cost) return false;
    run = std::partition_point(run, runs.end(), [a](const StackRun& r) { return r.last < a; });
    k = std::max(run->first, a);
    offer(comm, down, d, k, cell);
    const long long e = d - k;
    b = e >= b - piece.period ? std::max(piece.begin, b - piece.period) : block_begin(piece, e);
  }
  return true;
}

// The candidates below the top piece's winner k: the top piece's lower
// blocks, the piece below it on its own stack, then the classic scan
// over the rest. They serve a few cells in a hundred on calibrated
// costs, so they stay out of line and leave the top piece's loop its
// registers.
[[gnu::noinline]] Cell offer_lower(const model::Cost& tcomm, const model::CostPiece& hot,
                                   const double* comm, const double* down, long long d,
                                   KernelScratch& scratch, long long k, Cell cell) {
  if (!offer_lower_blocks(hot, scratch.top.runs, comm, down, d, k, cell) || hot.begin == 1) {
    return cell;
  }
  PieceStack& stack = scratch.below;
  if (stack.piece.end != hot.begin) {
    stack.piece = tcomm.piece(hot.begin - 1);
    stack.top = -1;
  }
  const model::CostPiece& piece = stack.piece;
  long long e = piece.end - 1;
  if (!scanned(piece)) {
    const long long k_lo = d - e;
    if (down[k_lo] >= cell.cost) return cell;
    if (stack.top < k_lo) {
      // New, or the window has left it behind.
      stack.top = k_lo - 1;
      stack.cursor = 0;
      stack.runs.clear();
    }
    extend_stack(down, piece.slope, d - piece.begin, stack.top, stack.last_v, stack.runs);
    k = stack_argmin(stack.runs, k_lo, stack.cursor);
    offer(comm, down, d, k, cell);
    if (!offer_lower_blocks(piece, stack.runs, comm, down, d, k, cell)) return cell;
    e = piece.begin - 1;
  }
  scan_down(comm, down, d, e, cell);
  return cell;
}

// Algorithm 2 over a d-range [d0, d1), d0 >= 0. The crossover e*(d) is
// non-decreasing in d (f_d(e) above is non-increasing in d), so after one
// bisection at d0 it advances by a forward scan; e*(d) is a pure function
// of d, so chunk boundaries never change any result.
template <class Sink>
void piecewise_range(const model::Cost& tcomm, const double* comm, const double* comp,
                     const double* down, long long d0, long long d1, KernelScratch& scratch,
                     Sink&& sink) {
  if (d0 >= d1) return;
  const long long ehi_last = std::min(crossover(comp, down, d1 - 1), d1) - 1;
  scratch.top.piece.end = 0;
  scratch.below.piece.end = 0;

  // The top piece (e_hi never falls, so neither does it), the block of it
  // holding e_hi, and its stack's scalars, written back when it moves.
  model::CostPiece hot{0, 0, 0.0, 0};
  long long hot_block = 0;
  long long hot_block_end = 0;  // exclusive
  long long top = 0;
  double last_v = 0.0;
  std::size_t cursor = 0;

  long long estar = crossover(comp, down, d0);
  for (long long d = d0; d < d1; ++d) {
    while (estar <= d && comp[estar] < down[d - estar]) ++estar;
    Cell cell{std::numeric_limits<double>::infinity(), -1};
    if (estar <= d) cell = {comm[estar] + comp[estar], estar};
    const long long e_hi = std::min(estar, d + 1) - 1;
    if (e_hi >= 1) {
      if (e_hi >= hot_block_end) {
        if (e_hi >= hot.end) {
          // The old top, if any, lies whole below the window now.
          scratch.top.top = top;
          scratch.top.last_v = last_v;
          scratch.top.cursor = cursor;
          std::swap(scratch.top, scratch.below);
          hot = tcomm.piece(e_hi);
          // Seed where no later cell of the chunk looks.
          scratch.top.piece = hot;
          scratch.top.runs.clear();
          top = std::max<long long>(0, d - std::min(ehi_last, hot.end - 1)) - 1;
          cursor = 0;
          hot_block = block_begin(hot, e_hi);
          hot_block_end = block_end(hot, hot_block);
        } else if (e_hi < hot_block_end + hot.period) {
          hot_block = hot_block_end;  // the next block, whose start is aligned
          hot_block_end = std::min(hot.end, hot_block + hot.period);
        } else {
          hot_block = block_begin(hot, e_hi);
          hot_block_end = block_end(hot, hot_block);
        }
      }
      if (scanned(hot)) {
        scan_down(comm, down, d, e_hi, cell);
      } else {
        std::vector<StackRun>& runs = scratch.top.runs;
        extend_stack(down, hot.slope, d - hot.begin, top, last_v, runs);
        const long long k = stack_argmin(runs, d - e_hi, cursor);
        offer(comm, down, d, k, cell);
        // Lower candidates lie past the winner's block; when that is
        // e_hi's block, past its first k.
        if (d - k < hot_block || (hot_block > 1 && down[d - hot_block + 1] < cell.cost)) {
          cell = offer_lower(tcomm, hot, comm, down, d, scratch, k, cell);
        }
      }
    }
    if (estar >= 1 && down[d] < cell.cost) cell = {down[d], 0};
    sink(d, cell);
  }
}

// Which cell kernel a solve runs. `exact` carries the (possibly AVX2)
// Algorithm 1 cell; when null the solve is Algorithm 2, whose kernel
// looks up each column's Tcomm pieces as it reaches them.
struct KernelConfig {
  CellFn exact = nullptr;  // null -> optimized (Algorithm 2)
  const model::Platform* platform = nullptr;

  template <class Sink>
  void range(int col, const double* comm, const double* comp, const double* down,
             long long d0, long long d1, KernelScratch& scratch, Sink&& sink) const {
    if (exact != nullptr) {
      for (long long d = d0; d < d1; ++d) sink(d, exact(comm, comp, down, d));
    } else {
      piecewise_range((*platform)[col].comm, comm, comp, down, d0, d1, scratch, sink);
    }
  }
};

// Runs worker(scratch[w]) once per thread slot w of `parallel`, at most
// one slot per task; the workers share the `tasks` of a pass through
// their own claim counters. A single task runs inline.
template <class Worker>
void run_workers(const Parallel& parallel, std::vector<KernelScratch>& scratch,
                 long long tasks, Worker&& worker) {
  const long long slots = std::min<long long>(parallel.threads, tasks);
  parallel.for_range(0, slots, 1, [&](long long begin, long long end) {
    for (long long w = begin; w < end; ++w) worker(scratch[static_cast<std::size_t>(w)]);
  });
}

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
                               std::vector<KernelScratch>& scratch,
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
    const auto offset = static_cast<std::size_t>(e0);
    const auto count = static_cast<std::size_t>(e1 - e0);
    const auto& proc = platform[col];
    proc.comm.fill(e0, std::span(row_bufs[static_cast<std::size_t>(2 * (l % 2))])
                           .subspan(offset, count));
    proc.comp.fill(e0, std::span(row_bufs[static_cast<std::size_t>(2 * (l % 2) + 1)])
                           .subspan(offset, count));
  };

  auto run_cells = [&](int l, long long c, KernelScratch& mine) {
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
    kernel.range(level_column(l), comm, comp, down, begin, d1, mine,
                 [&](long long d, Cell cell) {
                   cost[static_cast<std::size_t>(d)] = cell.cost;
                   choice_row[d] = static_cast<std::int32_t>(cell.sol);
                 });
  };

  // Claims and executes one runnable task; false when nothing is runnable
  // right now (the caller spins — runnable work appears as peers finish).
  std::atomic<long long> claimed{0};
  auto try_run_one = [&](KernelScratch& mine) -> bool {
    const int first = first_incomplete.load();
    for (int l = first; l < std::min(first + 2, nlevels); ++l) {
      WavefrontLevel& lv = levels[static_cast<std::size_t>(l)];
      long long c = lv.fill_next.load();
      while (c < lv.fill_chunks) {
        if (lv.fill_next.compare_exchange_weak(c, c + 1)) {
          claimed.fetch_add(1);
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
          claimed.fetch_add(1);
          run_cells(l, c, mine);
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

  run_workers(parallel, scratch, total_tasks, [&](KernelScratch& mine) {
    while (claimed.load() < total_tasks) {
      if (!try_run_one(mine)) std::this_thread::yield();
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
  // Allocation order matters for peak RSS: the kernel scratch, rows, then
  // the table, then the shares; the result, which outlives this call, only
  // after the solve. With the result allocated first, a later and
  // slightly larger table no longer fit where the last one was freed and
  // got a fresh mapping beside it, so perfbench plan_dp's peak RSS rose by
  // about 3 MB in most 20 s runs. Likewise the kernel scratch, one per
  // worker: allocated here, before the large buffers, and kept for the
  // whole solve (see kMinStackRuns).
  std::vector<KernelScratch> scratch(static_cast<std::size_t>(parallel.threads));
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

  // Sweeps column i over d = 1..dmax against `down`, in grain-sized
  // chunks shared by the workers; sink(d, cell) stores each cell.
  auto sweep_column = [&](int i, long long dmax, const double* down, auto&& sink) {
    auto [comm, comp] = rows.get(i, dmax);
    cells += dmax;
    std::atomic<long long> next{1};
    run_workers(parallel, scratch, (dmax + grain - 1) / grain, [&](KernelScratch& mine) {
      for (long long begin = next.fetch_add(grain); begin <= dmax;
           begin = next.fetch_add(grain)) {
        kernel.range(i, comm, comp, down, begin, std::min(dmax + 1, begin + grain), mine,
                     sink);
      }
    });
  };

  // Applies column i over [0..dmax]: next[d] = cell(i, d) against `down`.
  auto apply_column = [&](int i, long long dmax, const double* down,
                          std::vector<double>& next) {
    next[0] = 0.0;
    sweep_column(i, dmax, down, [&](long long d, Cell c) {
      next[static_cast<std::size_t>(d)] = c.cost;
    });
  };

  auto solve = [&](auto&& self, int lo, int hi, long long d_in,
                   std::vector<double> g) -> double {
    if (hi - lo == 1) {
      auto [comm, comp] = rows.get(lo, d_in);
      cells += 1;
      Cell c{0.0, 0};
      kernel.range(lo, comm, comp, g.data(), d_in, d_in + 1, scratch.front(),
                   [&](long long, Cell cell) { c = cell; });
      shares[static_cast<std::size_t>(lo)] = c.sol;
      return c.cost;
    }

    if (fits_table(hi - lo, d_in)) {
      std::vector<std::int32_t> node_choice(
          static_cast<std::size_t>(hi - lo) * (static_cast<std::size_t>(d_in) + 1));
      cells += static_cast<long long>(hi - lo) * d_in;
      WavefrontResult pass =
          wavefront_pass(rows, lo, hi, d_in, g.data(), node_choice.data(),
                         shares.data() + lo, kernel, parallel, scratch, grain);
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
      c_nxt[0] = 0.0;
      t_nxt[0] = 0;
      sweep_column(i, d_in, c_cur.data(), [&](long long d, Cell c) {
        c_nxt[static_cast<std::size_t>(d)] = c.cost;
        t_nxt[static_cast<std::size_t>(d)] = t_cur[static_cast<std::size_t>(d - c.sol)];
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
                          kernel, parallel, scratch, grain)
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
