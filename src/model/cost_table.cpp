#include "model/cost_table.hpp"

#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace lbs::model {

namespace {
// A fill costs a few ns per value; chunks of a few thousand values
// amortize the pool's dispatch.
constexpr long long kFillGrain = 8192;
}  // namespace

void fill_cost_rows(const Processor& processor, long long items,
                    std::span<double> comm_row, std::span<double> comp_row,
                    int threads) {
  LBS_CHECK_MSG(items >= 0, "negative item count");
  LBS_CHECK(comm_row.size() == static_cast<std::size_t>(items) + 1);
  LBS_CHECK(comp_row.size() == static_cast<std::size_t>(items) + 1);
  auto fill = [&](long long begin, long long end) {
    const auto offset = static_cast<std::size_t>(begin);
    const auto count = static_cast<std::size_t>(end - begin);
    processor.comm.fill(begin, comm_row.subspan(offset, count));
    processor.comp.fill(begin, comp_row.subspan(offset, count));
  };
  if (threads == 1) {
    fill(0, items + 1);
  } else {
    support::shared_pool().for_range(0, items + 1, kFillGrain, fill);
  }
}

CostTable::CostTable(const Platform& platform, long long items)
    : items_(items), processors_(platform.size()) {
  LBS_CHECK_MSG(processors_ >= 1, "empty platform");
  LBS_CHECK_MSG(items >= 0, "negative item count");
  const std::size_t row = static_cast<std::size_t>(items) + 1;
  storage_.resize(2 * static_cast<std::size_t>(processors_) * row);
  for (int i = 0; i < processors_; ++i) {
    std::span<double> rows(storage_.data() + 2 * static_cast<std::size_t>(i) * row,
                           2 * row);
    fill_cost_rows(platform[i], items, rows.first(row), rows.subspan(row), 0);
  }
}

std::span<const double> CostTable::comm_row(int i) const {
  LBS_CHECK(i >= 0 && i < processors_);
  const std::size_t row = static_cast<std::size_t>(items_) + 1;
  return {storage_.data() + 2 * static_cast<std::size_t>(i) * row, row};
}

std::span<const double> CostTable::comp_row(int i) const {
  LBS_CHECK(i >= 0 && i < processors_);
  const std::size_t row = static_cast<std::size_t>(items_) + 1;
  return {storage_.data() + (2 * static_cast<std::size_t>(i) + 1) * row, row};
}

}  // namespace lbs::model
