// lbsctl — control client for running lbsd daemons.
//
//   ./build/examples/lbsctl <endpoints> ping
//   ./build/examples/lbsctl <endpoints> stats
//   ./build/examples/lbsctl <endpoints> shutdown
//   ./build/examples/lbsctl <endpoints> plan <grid-config> <items>
//        [--algorithm A] [--ordering O] [--root MACHINE] [--no-retry]
//
// <endpoints> is a comma-separated list of Endpoint::parse specs (a unix
// path, "unix:PATH", "tcp:HOST:PORT", or "HOST:PORT"). With one endpoint
// lbsctl behaves as before; with several it addresses the FLEET:
// ping/stats/shutdown fan out to every replica, and plan routes through
// FleetClient's consistent-hash ring — the same key lands on the same
// replica that every other fleet client would pick, so a warm cache stays
// warm.
//
// `plan` is lbsplan's remote twin: same grid config, same output columns,
// but the counts come from the shared daemon — warmed caches and
// coalesced solves included. It always plans through a FleetClient (one
// replica or many), which retries Rejected (backpressure) responses with
// the server's retry_after_ms hint unless --no-retry.
//
// The membership verbs drive fleet elasticity (docs/service.md#elasticity):
//
//   membership            print the fleet's current view
//   join <endpoint>       two-phase join: announce (Joining), then promote
//                         (Serving) — the joiner pulls its partition before
//                         it goes route-eligible, so it starts warm
//   drain <endpoint>      survivors pull the target's partition, then the
//                         target stops admitting new keys
//   remove <endpoint>     drop the target from the view entirely
//
// With --membership FILE the resulting view is also written to FILE
// (atomic rename): the file a daemon restarted with `lbsd --membership
// FILE` reads to rejoin at the fleet's current epoch.

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/ordering.hpp"
#include "core/root_selection.hpp"
#include "model/grid_parser.hpp"
#include "service/admin.hpp"
#include "service/fleet.hpp"
#include "service/membership.hpp"
#include "support/table.hpp"

namespace {

using namespace lbs;

int usage() {
  std::cerr << "usage: lbsctl <endpoint[,endpoint...]> <command>\n"
               "  ping                        liveness check (every replica)\n"
               "  stats                       dump server counters + cache stats JSON\n"
               "  shutdown                    ask the daemon(s) to exit\n"
               "  plan <grid-config> <items>  plan via the daemon (fleet: ring-routed)\n"
               "       [--algorithm auto|exact-dp|optimized-dp|lp-heuristic|closed-form|uniform]\n"
               "       [--ordering descending|ascending|grid] [--root MACHINE] [--no-retry]\n"
               "  membership                  print the fleet's current view\n"
               "  join <endpoint>             add a replica (two-phase, warm handoff)\n"
               "  drain <endpoint>            drain a replica (survivors pull first)\n"
               "  remove <endpoint>           drop a replica from the view\n"
               "       join/drain/remove accept [--membership FILE] to also write\n"
               "       the resulting view to FILE (atomic rename)\n";
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

int run_plan(std::vector<service::Endpoint> replicas, int argc, char** argv) {
  if (argc < 5) return usage();
  std::ifstream file(argv[3]);
  if (!file) {
    std::cerr << "cannot open " << argv[3] << '\n';
    return 1;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  auto parsed = model::parse_grid(buffer.str());
  if (!parsed.ok()) {
    std::cerr << "config error: " << parsed.error << '\n';
    return 1;
  }
  model::Grid grid = std::move(*parsed.grid);
  long long items = std::atoll(argv[4]);
  if (items < 0) return usage();

  core::Algorithm algorithm = core::Algorithm::Auto;
  core::OrderingPolicy ordering = core::OrderingPolicy::DescendingBandwidth;
  std::string root_name;
  bool retry = true;
  for (int i = 5; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--algorithm" && i + 1 < argc) {
      if (!parse_algorithm(argv[++i], algorithm)) return usage();
    } else if (arg == "--ordering" && i + 1 < argc) {
      if (!parse_ordering(argv[++i], ordering)) return usage();
    } else if (arg == "--root" && i + 1 < argc) {
      root_name = argv[++i];
    } else if (arg == "--no-retry") {
      retry = false;
    } else {
      return usage();
    }
  }

  model::ProcessorRef root{};
  if (!root_name.empty()) {
    int machine = grid.machine_index(root_name);
    if (machine < 0) {
      std::cerr << "unknown root machine '" << root_name << "'\n";
      return 1;
    }
    root = model::ProcessorRef{machine, 0};
  } else if (grid.data_home() >= 0) {
    root = core::select_root(grid, items, ordering, algorithm).best().root;
  } else {
    std::cerr << "config has no data_home and no --root was given\n";
    return 1;
  }

  auto platform = core::ordered_platform(grid, root, ordering);

  service::FleetOptions fleet_options;
  fleet_options.replicas = std::move(replicas);
  fleet_options.retries_per_replica = retry ? 8 : 0;
  service::FleetClient fleet(std::move(fleet_options));
  service::PlanResponse response = fleet.plan(platform, items, algorithm);

  switch (response.status) {
    case service::PlanStatus::Ok:
      break;
    case service::PlanStatus::Rejected:
      std::cerr << "rejected: server busy, retry after "
                << response.retry_after_ms << " ms\n";
      return 3;
    case service::PlanStatus::Error:
      std::cerr << "server error: " << response.message << '\n';
      return 1;
    case service::PlanStatus::Disconnected:
      std::cerr << "connection lost: " << response.message << '\n';
      return 1;
    case service::PlanStatus::Timeout:
      std::cerr << "timed out: " << response.message << '\n';
      return 1;
    case service::PlanStatus::BreakerOpen:
      std::cerr << "circuit breaker open: " << response.message << '\n';
      return 1;
    case service::PlanStatus::WrongEpoch:
      // FleetClient follows redirects itself; seeing this means the fleet
      // membership churned faster than its redirect budget could chase.
      std::cerr << "membership epoch churn: " << response.message << '\n';
      return 1;
  }

  std::cout << "algorithm: " << core::to_string(response.algorithm_used)
            << (response.cache_hit ? "  [cache hit]" : "")
            << (response.coalesced ? "  [coalesced]" : "")
            << "\npredicted makespan: " << response.predicted_makespan
            << " s\n";
  if (response.has_optimality_bound) {
    std::cout << "optimality: within " << response.optimality_gap
              << " s of the integral optimum (Eq. 4)\n";
  }
  std::cout << "\n";
  auto displacements = response.displacements();
  support::Table table({"rank", "processor", "count", "displacement"});
  for (int i = 0; i < platform.size(); ++i) {
    auto idx = static_cast<std::size_t>(i);
    table.add_row({std::to_string(i), platform[i].label,
                   support::format_count(response.counts[idx]),
                   support::format_count(displacements[idx])});
  }
  table.print(std::cout);
  return 0;
}

// The fleet's current view: asked of the first member that answers with
// a non-empty one; an unversioned fleet (epoch 0, no --membership on the
// daemons yet) synthesizes it from the CLI endpoint list.
service::MembershipView fleet_base_view(
    const std::vector<service::Endpoint>& replicas) {
  for (const auto& endpoint : replicas) {
    auto view = service::admin::fetch_view(endpoint);
    if (view.has_value() && !view->members.empty()) return *view;
  }
  service::MembershipView base;
  for (const auto& endpoint : replicas) {
    base.members.push_back(service::Member{endpoint, service::ReplicaState::Serving});
  }
  return base;
}

int report_push(const service::admin::PushResult& result,
                const std::string& membership_file) {
  std::cout << service::serialize_view(result.view);
  std::cout << "acked by " << result.acked << " replica(s)\n";
  for (const std::string& error : result.errors) {
    std::cerr << "lbsctl: " << error << '\n';
  }
  if (!membership_file.empty()) {
    service::write_view_file(membership_file, result.view);
    std::cout << "view written to " << membership_file << '\n';
  }
  return result.errors.empty() ? 0 : 1;
}

int run_membership_verb(const std::string& command,
                        std::vector<service::Endpoint> replicas, int argc,
                        char** argv) {
  if (command == "membership") {
    service::MembershipView view = fleet_base_view(replicas);
    std::cout << service::serialize_view(view);
    return 0;
  }
  if (argc < 4) return usage();
  service::Endpoint target = service::Endpoint::parse(argv[3]);
  std::string membership_file;
  for (int i = 4; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--membership" && i + 1 < argc) {
      membership_file = argv[++i];
    } else {
      return usage();
    }
  }

  service::MembershipView base = fleet_base_view(replicas);
  service::admin::PushResult result;
  if (command == "join") {
    result = service::admin::join_fleet(base, target);
  } else if (command == "drain") {
    result = service::admin::drain_replica(base, target);
  } else {
    result = service::admin::remove_replica(base, target);
  }
  return report_push(result, membership_file);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  std::string command = argv[2];

  try {
    std::vector<service::Endpoint> replicas = service::parse_endpoint_list(argv[1]);
    if (command == "plan") return run_plan(std::move(replicas), argc, argv);
    if (command == "membership" || command == "join" || command == "drain" ||
        command == "remove") {
      return run_membership_verb(command, std::move(replicas), argc, argv);
    }

    service::FleetOptions fleet_options;
    fleet_options.replicas = replicas;
    service::FleetClient fleet(std::move(fleet_options));
    const bool single = fleet.replica_count() == 1;

    if (command == "ping") {
      int failures = 0;
      for (std::size_t i = 0; i < fleet.replica_count(); ++i) {
        bool ok = fleet.ping(i);
        if (!ok) ++failures;
        if (single) {
          if (ok) std::cout << "pong\n";
          else std::cerr << "no reply\n";
        } else {
          std::cout << "replica " << i << " (" << replicas[i].to_string()
                    << "): " << (ok ? "pong" : "no reply") << '\n';
        }
      }
      return failures > 0 ? 1 : 0;
    }
    if (command == "stats") {
      int failures = 0;
      for (std::size_t i = 0; i < fleet.replica_count(); ++i) {
        std::string stats = fleet.stats(i);
        if (!single) {
          std::cout << "== replica " << i << " (" << replicas[i].to_string()
                    << ") ==\n";
        }
        if (stats.empty()) {
          std::cerr << "no reply\n";
          ++failures;
        } else {
          std::cout << stats << '\n';
        }
      }
      return failures > 0 ? 1 : 0;
    }
    if (command == "shutdown") {
      int failures = 0;
      for (std::size_t i = 0; i < fleet.replica_count(); ++i) {
        bool ok = fleet.shutdown_replica(i);
        if (!ok) ++failures;
        if (single) {
          if (ok) std::cout << "shutdown acknowledged\n";
          else std::cerr << "no ack\n";
        } else {
          std::cout << "replica " << i << " (" << replicas[i].to_string()
                    << "): " << (ok ? "shutdown acknowledged" : "no ack") << '\n';
        }
      }
      return failures > 0 ? 1 : 0;
    }
    return usage();
  } catch (const std::exception& error) {
    std::cerr << "lbsctl: " << error.what() << '\n';
    return 1;
  }
}
