// lbsd — the load-balancing scatter planning daemon.
//
//   ./build/examples/lbsd /tmp/lbsd.sock [options]      # unix socket
//   ./build/examples/lbsd --tcp 0.0.0.0:7411 [options]  # TCP
//
// The positional endpoint accepts any Endpoint::parse spec (a bare path,
// "unix:PATH", "tcp:HOST:PORT", or "HOST:PORT"); --tcp is the explicit
// spelling. A fleet is N of these, one per replica, each with its OWN
// --snapshot file — FleetClient partitions the key space across them, so
// each snapshot holds that replica's partition and nothing else.
//
// Options:
//   --tcp HOST:PORT     listen on TCP instead of a unix socket
//                       (port 0 = kernel-assigned, printed on startup)
//   --shards N          cache shards (default 8)
//   --capacity N        cached plans per shard (default 128)
//   --workers N         DP worker threads, 0 = hardware (default 0)
//   --queue N           bounded solve queue depth (default 256)
//   --batch N           max solves claimed per dispatch pass (default 16)
//   --retry-after MS    backpressure retry hint (default 50)
//   --max-processors N  admission bound (default 4096)
//   --trace FILE        write a Chrome trace JSON on shutdown
//   --snapshot FILE     persist the plan cache to FILE (atomic rename);
//                       written on shutdown, and periodically with
//                       --snapshot-interval-ms
//   --snapshot-interval-ms MS
//                       periodic snapshot cadence (requires --snapshot)
//   --warm-start FILE   replay a snapshot into the cache before serving;
//                       a corrupt/missing file logs and cold-starts
//   --membership FILE   adopt the fleet membership view from FILE at
//                       startup, so a cold restart rejoins at the fleet's
//                       epoch; later views arrive as MembershipUpdate
//                       frames (see docs/service.md#elasticity)
//
// Numeric flags take a whole base-10 integer in range (N >= 1, --workers
// >= 0); anything else ("12abc", "abc") prints the usage and exits 2.
//
// `--snapshot S --warm-start S` is the crash-safe restart idiom: every
// run resumes from the previous run's cache.
//
// Runs until SIGINT/SIGTERM or a client sends Shutdown (lbsctl shutdown).
// On exit it prints the service counters and cache stats, so a drill run
// doubles as a report.

#include <atomic>
#include <charconv>
#include <csignal>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/server.hpp"

namespace {

std::atomic<bool> g_signal{false};

void on_signal(int) { g_signal.store(true); }

int usage() {
  std::cerr << "usage: lbsd <endpoint> [--tcp HOST:PORT] [--shards N] [--capacity N]"
               " [--workers N] [--queue N] [--batch N] [--retry-after MS]"
               " [--max-processors N] [--trace FILE] [--snapshot FILE]"
               " [--snapshot-interval-ms MS] [--warm-start FILE]"
               " [--membership FILE]\n"
               "  <endpoint>: unix path, unix:PATH, tcp:HOST:PORT, or HOST:PORT"
               " (omit it when --tcp is given)\n";
  return 2;
}

// The whole of `text` as a base-10 int >= `min`; "12abc", "abc", "" and
// out-of-range values are usage errors.
bool parse_int(const char* text, int& out, int min = 1) {
  const char* end = text + std::strlen(text);
  auto [stop, error] = std::from_chars(text, end, out);
  return error == std::errc() && stop == end && out >= min;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();

  lbs::service::ServerOptions options;
  std::string endpoint_spec;
  std::string trace_path;

  int first_flag = 1;
  if (argv[1][0] != '-') {
    endpoint_spec = argv[1];
    first_flag = 2;
  }
  for (int i = first_flag; i < argc; ++i) {
    std::string arg = argv[i];
    int value = 0;
    if (arg == "--tcp" && i + 1 < argc) {
      endpoint_spec = std::string("tcp:") + argv[++i];
    } else if (arg == "--shards" && i + 1 < argc && parse_int(argv[++i], value)) {
      options.cache_shards = value;
    } else if (arg == "--capacity" && i + 1 < argc && parse_int(argv[++i], value)) {
      options.cache_capacity_per_shard = static_cast<std::size_t>(value);
    } else if (arg == "--workers" && i + 1 < argc && parse_int(argv[++i], value, 0)) {
      options.dp_workers = value;
    } else if (arg == "--queue" && i + 1 < argc && parse_int(argv[++i], value)) {
      options.max_queue = static_cast<std::size_t>(value);
    } else if (arg == "--batch" && i + 1 < argc && parse_int(argv[++i], value)) {
      options.max_batch = value;
    } else if (arg == "--retry-after" && i + 1 < argc && parse_int(argv[++i], value)) {
      options.retry_after_ms = static_cast<std::uint32_t>(value);
    } else if (arg == "--max-processors" && i + 1 < argc && parse_int(argv[++i], value)) {
      options.max_processors = value;
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--snapshot" && i + 1 < argc) {
      options.snapshot_path = argv[++i];
    } else if (arg == "--snapshot-interval-ms" && i + 1 < argc &&
               parse_int(argv[++i], value)) {
      options.snapshot_interval_ms = static_cast<std::uint32_t>(value);
    } else if (arg == "--warm-start" && i + 1 < argc) {
      options.warm_start_path = argv[++i];
    } else if (arg == "--membership" && i + 1 < argc) {
      options.membership_path = argv[++i];
    } else {
      return usage();
    }
  }

  if (endpoint_spec.empty()) return usage();
  try {
    options.endpoint = lbs::service::Endpoint::parse(endpoint_spec);
  } catch (const std::exception& error) {
    std::cerr << "lbsd: " << error.what() << '\n';
    return usage();
  }

  if (options.snapshot_interval_ms > 0 && options.snapshot_path.empty()) {
    std::cerr << "lbsd: --snapshot-interval-ms requires --snapshot\n";
    return usage();
  }

  lbs::obs::Tracer tracer;
  lbs::obs::Metrics metrics;
  options.tracer = &tracer;
  options.metrics = &metrics;

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // The constructor validates the cache geometry, so it belongs in the
  // try block too: a bad --shards is an error message, not an abort.
  std::unique_ptr<lbs::service::Server> owned;
  try {
    owned = std::make_unique<lbs::service::Server>(std::move(options));
    owned->start();
  } catch (const std::exception& error) {
    std::cerr << "lbsd: " << error.what() << '\n';
    return 1;
  }
  lbs::service::Server& server = *owned;
  // endpoint() post-start reports the real TCP port even when 0 was asked.
  std::cout << "lbsd listening on " << server.endpoint().to_string() << " ("
            << server.options().cache_shards << " cache shards, queue depth "
            << server.options().max_queue << ")\n";

  // Wake twice a second: once for process signals, once for a client
  // Shutdown message (which sets the server's own stop-requested flag).
  while (!g_signal.load() && !server.wait_until_stop_requested_for(500)) {
  }
  std::cout << "lbsd: shutting down ("
            << (g_signal.load() ? "signal" : "client request") << ")\n";
  server.stop();

  std::cout << server.stats_json() << '\n';

  if (!trace_path.empty()) {
    lbs::obs::export_chrome_trace(trace_path, tracer.collect());
    std::cout << "trace written to " << trace_path << '\n';
  }
  return 0;
}
