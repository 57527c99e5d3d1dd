// lbsplan — command-line scatter planner.
//
//   ./build/examples/lbsplan <grid-config> <items> [options]
//
// Options:
//   --algorithm auto|exact-dp|optimized-dp|lp-heuristic|closed-form|uniform
//   --ordering  descending|ascending|grid
//   --root      <machine-name>     (default: pick the best, Section 3.4)
//   --csv                          (machine-readable output)
//
// The tool a user points at their own grid description to get the counts
// and displacements for an MPI_Scatterv call — the paper's transformation
// as a utility. Run without arguments for a demo on the paper's testbed.

#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/ordering.hpp"
#include "core/planner.hpp"
#include "core/root_selection.hpp"
#include "model/grid_parser.hpp"
#include "model/testbed.hpp"
#include "support/table.hpp"

namespace {

using namespace lbs;

int usage() {
  std::cerr
      << "usage: lbsplan <grid-config> <items> [--algorithm A] [--ordering O]"
         " [--root MACHINE] [--csv]\n"
         "  algorithms: auto exact-dp optimized-dp lp-heuristic closed-form uniform\n"
         "  orderings:  descending ascending grid\n"
         "run without arguments for a demo on the paper's Table 1 testbed\n";
  return 2;
}

bool parse_algorithm(const std::string& name, core::Algorithm& algorithm) {
  if (name == "auto") algorithm = core::Algorithm::Auto;
  else if (name == "exact-dp") algorithm = core::Algorithm::ExactDp;
  else if (name == "optimized-dp") algorithm = core::Algorithm::OptimizedDp;
  else if (name == "lp-heuristic") algorithm = core::Algorithm::LpHeuristic;
  else if (name == "closed-form") algorithm = core::Algorithm::LinearClosedForm;
  else if (name == "uniform") algorithm = core::Algorithm::Uniform;
  else return false;
  return true;
}

bool parse_ordering(const std::string& name, core::OrderingPolicy& policy) {
  if (name == "descending") policy = core::OrderingPolicy::DescendingBandwidth;
  else if (name == "ascending") policy = core::OrderingPolicy::AscendingBandwidth;
  else if (name == "grid") policy = core::OrderingPolicy::GridOrder;
  else return false;
  return true;
}

int run(int argc, char** argv) {
  model::Grid grid = model::paper_testbed();
  long long items = model::kPaperRayCount;
  core::Algorithm algorithm = core::Algorithm::Auto;
  core::OrderingPolicy ordering = core::OrderingPolicy::DescendingBandwidth;
  std::string root_name;
  bool csv = false;

  if (argc >= 3) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::cerr << "cannot open " << argv[1] << '\n';
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    auto parsed = model::parse_grid(buffer.str());
    if (!parsed.ok()) {
      std::cerr << "config error: " << parsed.error << '\n';
      return 1;
    }
    grid = std::move(*parsed.grid);
    items = std::atoll(argv[2]);
    if (items < 0) return usage();
    for (int i = 3; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--csv") {
        csv = true;
      } else if (arg == "--algorithm" && i + 1 < argc) {
        if (!parse_algorithm(argv[++i], algorithm)) return usage();
      } else if (arg == "--ordering" && i + 1 < argc) {
        if (!parse_ordering(argv[++i], ordering)) return usage();
      } else if (arg == "--root" && i + 1 < argc) {
        root_name = argv[++i];
      } else {
        return usage();
      }
    }
  } else if (argc != 1) {
    return usage();
  } else {
    std::cout << "(demo mode: paper testbed, n = 817,101 — see --help via bad args)\n";
  }

  // Root: explicit, or the Section 3.4 minimization.
  model::ProcessorRef root{};
  if (!root_name.empty()) {
    int machine = grid.machine_index(root_name);
    if (machine < 0) {
      std::cerr << "unknown root machine '" << root_name << "'\n";
      return 1;
    }
    root = model::ProcessorRef{machine, 0};
  } else if (grid.data_home() >= 0) {
    auto selection = core::select_root(grid, items, ordering, algorithm);
    root = selection.best().root;
    if (!csv) {
      std::cout << "selected root: " << selection.best().label
                << " (staging " << support::format_seconds(selection.best().staging_time)
                << ", total " << support::format_seconds(selection.best().total_time)
                << ")\n";
    }
  } else {
    std::cerr << "config has no data_home and no --root was given\n";
    return 1;
  }

  auto platform = core::ordered_platform(grid, root, ordering);
  auto plan = core::plan_scatter(platform, items, algorithm);

  if (csv) {
    std::cout << "processor,count,displacement,predicted_finish_s\n";
    for (int i = 0; i < platform.size(); ++i) {
      auto idx = static_cast<std::size_t>(i);
      std::cout << platform[i].label << ',' << plan.distribution.counts[idx] << ','
                << plan.displacements[idx] << ',' << plan.predicted_finish[idx]
                << '\n';
    }
    return 0;
  }

  std::cout << "algorithm: " << core::to_string(plan.algorithm_used)
            << "\npredicted makespan: "
            << support::format_seconds(plan.predicted_makespan) << "\n\n";
  support::Table table({"rank", "processor", "count", "displacement",
                        "predicted finish (s)"});
  for (int i = 0; i < platform.size(); ++i) {
    auto idx = static_cast<std::size_t>(i);
    table.add_row({std::to_string(i), platform[i].label,
                   support::format_count(plan.distribution.counts[idx]),
                   support::format_count(plan.displacements[idx]),
                   support::format_double(plan.predicted_finish[idx], 2)});
  }
  table.print(std::cout);
  std::cout << "\npass counts[] and displs[] straight to MPI_Scatterv (root last).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "lbsplan: " << error.what() << '\n';
    return 1;
  }
}
