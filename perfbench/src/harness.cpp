#include "harness.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "core/distribution.hpp"
#include "core/ordering.hpp"
#include "model/testbed.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

void check_plan(const lbs::model::Platform& platform, long long items,
                const std::vector<long long>& counts,
                const std::vector<long long>& displacements,
                double predicted_makespan, const char* what) {
  auto fail = [&](const std::string& why) {
    std::ostringstream message;
    message << what << " (p=" << platform.size() << ", n=" << items << "): " << why;
    throw CheckFailure(message.str());
  };
  if (counts.size() != static_cast<std::size_t>(platform.size())) {
    fail("plan has " + std::to_string(counts.size()) + " counts");
  }
  if (displacements.size() != counts.size()) fail("displacements length differs");
  long long sum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] < 0) fail("negative count at " + std::to_string(i));
    if (displacements[i] != sum) fail("displacement " + std::to_string(i) + " is not a prefix sum");
    sum += counts[i];
  }
  if (sum != items) fail("counts sum to " + std::to_string(sum));
  const double recomputed =
      lbs::core::makespan(platform, lbs::core::Distribution{counts});
  if (!(std::abs(recomputed - predicted_makespan) <=
        1e-12 * std::max(std::abs(recomputed), 1e-300))) {
    std::ostringstream why;
    why.precision(17);
    why << "predicted makespan " << predicted_makespan << " != recomputed " << recomputed;
    fail(why.str());
  }
}

double uniform_makespan(const lbs::model::Platform& platform, long long items) {
  return lbs::core::makespan(platform,
                             lbs::core::uniform_distribution(items, platform.size()));
}

std::vector<double> stratified_log_uniform(lbs::support::Rng& rng, std::size_t count,
                                           double lo, double hi) {
  std::vector<double> values(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double u = (static_cast<double>(i) + rng.uniform()) / static_cast<double>(count);
    values[i] = std::exp(std::log(lo) + u * (std::log(hi) - std::log(lo)));
  }
  for (std::size_t i = count; i > 1; --i) {
    std::swap(values[i - 1],
              values[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i - 1)))]);
  }
  return values;
}

namespace {

// Calibration-shaped samples of a cost that is roughly `slope * x`: six
// points over [0, items], with a mild upward bend and measurement noise.
// The bend keeps the function increasing but not affine.
std::vector<std::pair<long long, double>> tabulated_samples(lbs::support::Rng& rng,
                                                            double slope,
                                                            long long items) {
  std::vector<std::pair<long long, double>> samples;
  for (int j = 1; j <= 6; ++j) {
    const long long x = items * j / 6;
    const double bend = 1.0 + 0.04 * j / 6.0 + rng.uniform(-0.01, 0.01);
    samples.emplace_back(x, slope * static_cast<double>(x) * bend);
  }
  return samples;
}

}  // namespace

lbs::model::Platform table1_shaped(lbs::support::Rng& rng, long long items) {
  using namespace lbs;
  static const model::Platform base = [] {
    model::Grid grid = model::paper_testbed();
    return core::ordered_platform(grid, model::paper_root(grid),
                                  core::OrderingPolicy::DescendingBandwidth);
  }();
  model::Platform platform = base;
  const int root = platform.size() - 1;
  for (int i = 0; i < platform.size(); ++i) {
    model::Processor& proc = platform.processors[static_cast<std::size_t>(i)];
    const double alpha = proc.comp.per_item_slope() * rng.uniform(0.95, 1.05);
    proc.comp = model::Cost::tabulated(tabulated_samples(rng, alpha, items));
    if (i == root) continue;
    const double beta = proc.comm.per_item_slope() * rng.uniform(0.95, 1.05);
    if (i % 2 == 0) {
      const long long chunk = rng.uniform_int(items / 50, items / 12);
      proc.comm = model::Cost::chunked(beta, chunk,
                                       0.25 * beta * static_cast<double>(chunk));
    } else {
      proc.comm = model::Cost::tabulated(tabulated_samples(rng, beta, items));
    }
  }
  return platform;
}

LoopResult closed_loop(Workload& workload, const LoopOptions& options,
                       std::vector<std::uint64_t>& cursor) {
  const int threads = workload.threads();
  std::vector<LoopResult> per_thread(static_cast<std::size_t>(threads));
  std::vector<double> finished(static_cast<std::size_t>(threads), 0.0);
  std::atomic<bool> stop{false};
  std::mutex failure_mu;
  std::string failure;  // guarded by failure_mu

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));

  auto body = [&](int t) {
    LoopResult& mine = per_thread[static_cast<std::size_t>(t)];
    SpanLane* lane = options.lanes != nullptr ? &(*options.lanes)[static_cast<std::size_t>(t)]
                                              : nullptr;
    std::uint64_t& k = cursor[static_cast<std::size_t>(t)];
    try {
      for (std::uint64_t done = 0; done < options.max_ops_per_thread; ++done, ++k) {
        if (stop.load(std::memory_order_relaxed) || Clock::now() >= deadline) break;
        OpTrace trace{lane, options.split,
                      (static_cast<std::uint64_t>(t + 1) << 32) + k + 1};
        OpResult result;
        {
          Span root(lane, "bench.op", trace.op);
          result = workload.op(t, k, trace);
        }
        ++mine.attempted;
        if (result.ok) {
          ++mine.ok;
          (result.cache_hit ? mine.cached : mine.uncached).record(result.latency_s);
        }
      }
    } catch (const std::exception& error) {
      std::lock_guard lock(failure_mu);
      if (failure.empty()) failure = error.what();
      stop.store(true);
    }
    finished[static_cast<std::size_t>(t)] =
        std::chrono::duration<double>(Clock::now() - start).count();
  };

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) workers.emplace_back(body, t);
  for (auto& worker : workers) worker.join();
  if (!failure.empty()) throw CheckFailure(failure);

  LoopResult total;
  for (int t = 0; t < threads; ++t) {
    LoopResult& part = per_thread[static_cast<std::size_t>(t)];
    total.attempted += part.attempted;
    total.ok += part.ok;
    total.cached.merge(part.cached);
    total.uncached.merge(part.uncached);
    total.wall_s = std::max(total.wall_s, finished[static_cast<std::size_t>(t)]);
  }
  return total;
}

}  // namespace perfbench
