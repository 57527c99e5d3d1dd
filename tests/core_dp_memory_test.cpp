// Heap held by Algorithm 2's kernel: its scratch must be bounded by the
// window it slides over, not by how many pieces or blocks Tcomm has.
// Cost::chunked accepts any chunk >= 1 and a tabulated cost any number of
// samples (the planning service takes both off the wire), so a cost with
// one piece or block per item is valid input. Each solve here is measured
// against the same solve with an affine Tcomm, whose kernel keeps one
// stack: every operator new/delete of this binary goes through a counter
// of live bytes that also records their peak.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "core/dp.hpp"
#include "core/ordering.hpp"
#include "model/testbed.hpp"

namespace {

std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_peak_bytes{0};

// Room for the block's size ahead of it, keeping malloc's alignment.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = size;
  const std::size_t live = g_live_bytes.fetch_add(size) + size;
  std::size_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return static_cast<char*>(block) + kHeader;
}

void counted_free(void* pointer) {
  if (pointer == nullptr) return;
  void* block = static_cast<char*>(pointer) - kHeader;
  g_live_bytes.fetch_sub(*static_cast<std::size_t*>(block));
  std::free(block);
}

}  // namespace

// The nothrow forms are replaced too: sanitizer runtimes define their own
// instead of forwarding them to the plain ones.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* pointer) noexcept { counted_free(pointer); }
void operator delete[](void* pointer) noexcept { counted_free(pointer); }
void operator delete(void* pointer, std::size_t) noexcept { counted_free(pointer); }
void operator delete[](void* pointer, std::size_t) noexcept { counted_free(pointer); }
void operator delete(void* pointer, const std::nothrow_t&) noexcept { counted_free(pointer); }
void operator delete[](void* pointer, const std::nothrow_t&) noexcept { counted_free(pointer); }

namespace lbs::core {
namespace {

constexpr long long kItems = 100'000;

// The Table 1 testbed in descending-bandwidth order, every non-root Tcomm
// replaced by make(its per-item slope).
template <class Make>
model::Platform table1_with_comm(Make make) {
  const model::Grid grid = model::paper_testbed();
  model::Platform platform =
      ordered_platform(grid, model::paper_root(grid), OrderingPolicy::DescendingBandwidth);
  for (int i = 0; i + 1 < platform.size(); ++i) {
    model::Processor& proc = platform.processors[static_cast<std::size_t>(i)];
    proc.comm = make(proc.comm.per_item_slope());
  }
  return platform;
}

// Bytes a solve holds at its peak above what was live before it.
std::size_t solve_peak_bytes(const model::Platform& platform, int threads) {
  DpOptions options;
  options.threads = threads;
  const std::size_t before = g_live_bytes.load();
  g_peak_bytes.store(before);
  const DpResult result = optimized_dp(platform, kItems, options);
  EXPECT_EQ(result.distribution.total(), kItems);
  return g_peak_bytes.load() - before;
}

TEST(DpKernelMemory, ScratchDoesNotGrowWithPiecesOrBlocks) {
  const model::Platform affine =
      table1_with_comm([](double beta) { return model::Cost::linear(beta); });
  auto chunked = [](long long chunk) {
    return table1_with_comm([chunk](double beta) {
      return model::Cost::chunked(beta, chunk, 0.25 * beta * static_cast<double>(chunk));
    });
  };
  // Two samples every three items, every other one raised by half an
  // item's cost: 66,667 pieces per column, with alternating slopes.
  const model::Platform many_samples = table1_with_comm([](double beta) {
    std::vector<std::pair<long long, double>> samples;
    for (long long j = 0;; ++j) {
      const long long x = 3 * (j / 2) + 1 + j % 2;
      if (x > kItems) break;
      samples.emplace_back(x, beta * (static_cast<double>(x) + 0.5 * static_cast<double>(j % 2)));
    }
    return model::Cost::tabulated(samples);
  });
  const std::vector<std::pair<std::string, model::Platform>> cases = {
      {"chunk 1", chunked(1)},
      {"chunk 8", chunked(8)},
      {"chunk 4096", chunked(4096)},
      {"66,667 samples", many_samples},
  };
  for (int threads : {1, 0}) {
    const std::size_t reference = solve_peak_bytes(affine, threads);
    // The rows, the choice table and the columns alone are megabytes.
    EXPECT_GT(reference, std::size_t{4} << 20);
    for (const auto& [name, platform] : cases) {
      const std::size_t peak = solve_peak_bytes(platform, threads);
      std::cout << name << ", threads " << threads << ": peak " << peak << " bytes against "
                << reference << " for affine Tcomm\n";
      // A stack of runs per worker may differ from the affine one's; a
      // piece or block list, or a stack per piece, would not fit in this.
      EXPECT_LE(peak, reference + (std::size_t{1} << 20)) << name << ", threads " << threads;
    }
  }
}

}  // namespace
}  // namespace lbs::core
