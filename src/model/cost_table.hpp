// Flattened cost tables: Tcomm/Tcomp evaluated once per (platform, n).
//
// The DP kernels read Tcomm(i, e) and Tcomp(i, e) as flat rows over
// e = 0..n. A row is filled segment by segment through Cost::fill (one
// virtual call per range, each kind's one evaluation path, of which
// Cost::at is a single value), at a few ns per value. A CostTable
// precomputes both rows for every processor once, so repeated planning
// over the same (platform, n) skips even that.
//
// Memory: 2 * p * (n+1) doubles (~250 MB at the paper's p = 16, n = 817k),
// so the table is an opt-in for repeated planning over the same
// (platform, n) — single plans use per-column scratch rows of the same
// layout (O(n) memory) filled on the fly inside the DP.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "model/platform.hpp"

namespace lbs::model {

class CostTable {
 public:
  // Evaluates every processor's cost functions for 0..items, in parallel
  // over the shared pool. Requires items >= 0 and a non-empty platform.
  CostTable(const Platform& platform, long long items);

  [[nodiscard]] long long items() const { return items_; }
  [[nodiscard]] int processors() const { return processors_; }

  // Row of Tcomm(i, e) / Tcomp(i, e) for e = 0..items() (items()+1 entries).
  [[nodiscard]] std::span<const double> comm_row(int i) const;
  [[nodiscard]] std::span<const double> comp_row(int i) const;

  [[nodiscard]] std::size_t bytes() const { return storage_.size() * sizeof(double); }

 private:
  long long items_ = 0;
  int processors_ = 0;
  std::vector<double> storage_;  // [proc][comm|comp][e], rows contiguous
};

// Fills caller-owned rows (each items+1 long) for one processor — the
// per-column scratch path used by the DPs when no CostTable is supplied.
// Parallelized over the shared pool; `threads` <= 1 forces a serial fill.
void fill_cost_rows(const Processor& processor, long long items,
                    std::span<double> comm_row, std::span<double> comp_row,
                    int threads);

}  // namespace lbs::model
