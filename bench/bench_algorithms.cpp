// Section 5.2's algorithm-runtime comparison.
//
// Paper (n = 817,101, on a PIII/933): "Algorithm 1 takes more than two
// days of work (we interrupted it before its completion) and Algorithm 2
// takes 6 minutes to run [...] whereas the heuristic execution, using
// pipMP, is instantaneous".
//
// Reproduction: google-benchmark timings of Algorithm 1 / Algorithm 2 /
// LP heuristic / closed form across n, plus a direct measurement of
// Algorithm 2 and the heuristic at the full n and an O(p n^2)
// extrapolation of Algorithm 1 (running it to completion would defeat the
// point, exactly as it did for the authors). The absolute numbers shrink
// on modern hardware; the *ratios* — orders of magnitude between each
// method — are the shape under test.

#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <iostream>

#include "bench_common.hpp"
#include "core/closed_form.hpp"
#include "core/dp.hpp"
#include "core/heuristic.hpp"
#include "model/testbed.hpp"
#include "support/table.hpp"

namespace {

using namespace lbs;

model::Platform testbed_platform() {
  auto grid = model::paper_testbed();
  return make_platform(grid, model::paper_root(grid));
}

void BM_ExactDp(benchmark::State& state) {
  auto platform = testbed_platform();
  auto n = static_cast<long long>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::exact_dp(platform, n));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ExactDp)->Arg(250)->Arg(500)->Arg(1000)->Arg(2000)->Complexity();

void BM_OptimizedDp(benchmark::State& state) {
  auto platform = testbed_platform();
  auto n = static_cast<long long>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::optimized_dp(platform, n));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OptimizedDp)->Arg(1000)->Arg(4000)->Arg(16000)->Arg(64000)->Complexity();

void BM_LpHeuristic(benchmark::State& state) {
  auto platform = testbed_platform();
  auto n = static_cast<long long>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::lp_heuristic(platform, n));
  }
}
BENCHMARK(BM_LpHeuristic)->Arg(1000)->Arg(100000)->Arg(model::kPaperRayCount);

void BM_LinearClosedForm(benchmark::State& state) {
  auto platform = testbed_platform();
  auto n = static_cast<long long>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_linear(platform, n));
  }
}
BENCHMARK(BM_LinearClosedForm)->Arg(1000)->Arg(model::kPaperRayCount);

double time_once(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double>(elapsed).count();
}

int full_scale_report(bench::JsonReport& report) {
  bench::print_header(
      "Section 5.2 — planning time at the paper's scale (n = 817,101)");
  auto platform = testbed_platform();
  long long n = model::kPaperRayCount;

  // Algorithm 1: measure at two sizes, extrapolate the n^2 law. Both on
  // one thread: the scaling check is about the algorithm's law, and the
  // shared pool's fixed costs would flatten the ratio at these sizes.
  core::DpOptions serial;
  serial.threads = 1;
  double t1k = time_once([&] { core::exact_dp(platform, 1000, serial); });
  double t2k = time_once([&] { core::exact_dp(platform, 2000, serial); });
  double quad_coeff = t2k / (2000.0 * 2000.0);
  double alg1_extrapolated = quad_coeff * static_cast<double>(n) * static_cast<double>(n);

  double alg2 = time_once([&] { core::optimized_dp(platform, n); });
  double heuristic = time_once([&] { core::lp_heuristic(platform, n); });
  double closed = time_once([&] { core::solve_linear(platform, n); });

  support::Table table({"method", "paper (PIII/933)", "this host"});
  const int dp_threads = support::default_parallelism();  // default DpOptions
  table.add_row({"Algorithm 1 (exact DP)", "> 2 days (interrupted)",
                 support::format_seconds(alg1_extrapolated) +
                     " (extrapolated, 1 thread)"});
  table.add_row({"Algorithm 2 (optimized DP)", "6 min",
                 support::format_seconds(alg2) + " (" + std::to_string(dp_threads) +
                     " threads)"});
  table.add_row({"LP heuristic (Sec. 3.3)", "instantaneous",
                 support::format_seconds(heuristic)});
  table.add_row({"closed form (Sec. 4)", "-", support::format_seconds(closed)});
  table.print(std::cout);
  std::cout << "(Algorithm 1 measured on 1 thread at n = 1000: "
            << support::format_seconds(t1k)
            << ", n = 2000: " << support::format_seconds(t2k)
            << "; quadratic scaling ratio " << support::format_double(t2k / t1k, 2)
            << "x, expected ~4x)\n";

  const int p = platform.size();
  auto throughput = [n](double seconds) {
    return seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0;
  };
  report.add({"exact_dp_extrapolated", n, p, alg1_extrapolated,
              throughput(alg1_extrapolated), 1, {}});
  report.add({"optimized_dp", n, p, alg2, throughput(alg2), dp_threads, {}});
  report.add({"lp_heuristic", n, p, heuristic, throughput(heuristic), 1, {}});
  report.add({"linear_closed_form", n, p, closed, throughput(closed), 1, {}});

  std::vector<bench::Comparison> comparisons{
      {"Alg. 1 vs Alg. 2", "> 2 days vs 6 min (~500x)",
       support::format_double(alg1_extrapolated / alg2, 0) + "x",
       alg1_extrapolated > 50.0 * alg2},
      {"Alg. 2 vs heuristic", "6 min vs instantaneous",
       support::format_double(alg2 / heuristic, 0) + "x", alg2 > 20.0 * heuristic},
      {"Alg. 1 scaling", "O(p n^2)",
       support::format_double(t2k / t1k, 2) + "x per 2x n",
       t2k / t1k > 3.0 && t2k / t1k < 5.5},
  };
  return bench::print_comparisons(comparisons);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = lbs::bench::take_json_flag(argc, argv);
  lbs::bench::JsonReport report("algorithms");
  int failures = full_scale_report(report);
  if (!report.write(json_path)) ++failures;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return failures;
}
