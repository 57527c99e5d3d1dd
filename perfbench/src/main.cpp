// lbsbench: one workload per process, end to end or traced.
//
//   lbsbench --workload <plan_dp|plan_affine|serve_hits|serve_churn>
//            --seed <n> --seconds <s> --trace <0|1> [--commit <sha>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a separate traced run and writes its Chrome trace to
// trace-<workload>.json in the working directory. The last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A wrong plan exits 1; a timing with fewer than 10 samples beyond its
// tail percentile exits 3; bad arguments exit 2.
//
//   lbsbench --workload <w> --seed <n> --setup-only
//
// generates the workload's inputs, times one set-up and prints its
// seconds: the fresh process an end-to-end run times each further set-up in.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr int kSlices = 6;             // timed-phase slices, each after a fresh set-up
constexpr int kSlicePairs = 3;         // untraced/traced window pairs in a traced run
constexpr std::uint64_t kLayerOpsPerThread = 2000;

struct Metric {
  const char* name;
  const char* unit;
};

const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},          {"throughput_ops_s", "1/s"}, {"p50_ms", "ms"},
    {"tail_ms", "ms"},         {"makespan_vs_uniform", "ratio"}, {"ok_ratio", "ratio"},
    {"peak_rss_mb", "MB"},
};

// Per-layer rows. A row with a span is the median duration of that span
// over the traced layer pass, times `scale`; the others are counts and
// ratios the workload or the harness fills in. A layer a workload never
// calls reads 0 there.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* span;
  double scale;
};

const std::vector<LayerMetric> kPerLayer = {
    {"model.route_check_us", "us", "model.route_check", 1e6},
    {"model.cost_table_ms", "ms", "model.cost_table", 1e3},
    {"core.dp_ms", "ms", "core.optimized_dp", 1e3},
    {"core.dp_cells", "count", nullptr, 0},
    {"core.dp_threads", "count", nullptr, 0},
    {"core.lp_heuristic_ms", "ms", "core.lp_heuristic", 1e3},
    {"core.rounding_us", "us", "core.round_distribution", 1e6},
    {"core.finish_times_us", "us", "core.finish_times", 1e6},
    {"core.dropped_procs", "count", nullptr, 0},
    {"core.plan_ms", "ms", "core.plan_scatter", 1e3},
    {"core.coverage_ratio", "ratio", nullptr, 0},
    {"core.plan_key_us", "us", "core.make_plan_key", 1e6},
    {"core.cache_lookup_us", "us", "core.cache_lookup", 1e6},
    {"core.cache_insert_us", "us", "core.cache_insert", 1e6},
    {"core.evictions_per_kreq", "1/kreq", nullptr, 0},
    {"service.encode_request_us", "us", "service.encode_plan_request", 1e6},
    {"service.decode_request_us", "us", "service.decode_request", 1e6},
    {"service.encode_response_us", "us", "service.encode_plan_response", 1e6},
    {"service.decode_response_us", "us", "service.decode_response", 1e6},
    {"service.request_bytes", "bytes", nullptr, 0},
    {"service.response_bytes", "bytes", nullptr, 0},
    {"service.ping_us", "us", "service.ping", 1e6},
    {"service.round_trip_us", "us", "service.client_plan", 1e6},
    {"service.coverage_ratio", "ratio", nullptr, 0},
    {"service.server_request_us", "us", nullptr, 0},
    {"service.queue_wait_us", "us", nullptr, 0},
    {"service.batch_size", "count", nullptr, 0},
    {"service.hit_ratio", "ratio", nullptr, 0},
    {"service.solves_per_kreq", "1/kreq", nullptr, 0},
    {"service.coalesced_per_kreq", "1/kreq", nullptr, 0},
    {"trace.overhead_ratio", "ratio", nullptr, 0},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
  bool setup_only = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) throw std::invalid_argument("--trace is 0 or 1");
  return args;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "plan_dp") return make_plan_dp(seed);
  if (name == "plan_affine") return make_plan_affine(seed);
  if (name == "serve_hits") return make_serve_hits(seed);
  if (name == "serve_churn") return make_serve_churn(seed);
  throw std::invalid_argument("unknown workload " + name);
}

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string proc_field(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) continue;
      const auto begin = line.find_first_not_of(" \t", colon + 1);
      return begin == std::string::npos ? "" : line.substr(begin);
    }
  }
  return "";
}

double peak_rss_mb() {
  const std::string hwm = proc_field("/proc/self/status", "VmHWM");  // "12345 kB"
  return hwm.empty() ? 0.0 : std::stod(hwm) / 1024.0;
}

void print_record(const Args& args, const Workload& workload) {
  std::cout << "record {\"workload\":" << json_string(args.workload)
            << ",\"seed\":" << args.seed << ",\"seconds\":" << number(args.seconds)
            << ",\"trace\":" << args.trace
            << ",\"host_cpu\":" << json_string(proc_field("/proc/cpuinfo", "model name"))
            << ",\"nproc\":" << std::thread::hardware_concurrency()
            << ",\"planner_threads\":" << lbs::support::default_parallelism()
            << ",\"compiler\":" << json_string(LBSBENCH_COMPILER)
            << ",\"build_type\":" << json_string(LBSBENCH_BUILD_TYPE)
            << ",\"cxx_flags\":" << json_string(LBSBENCH_CXX_FLAGS)
            << ",\"commit\":" << json_string(args.commit)
            << ",\"caller_threads\":" << workload.threads()
            << ",\"server_options\":" << workload.options_json() << "}\n";
}

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<std::pair<std::string, std::string>>& units,
                  const Values& values) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < units.size(); ++i) {
    const auto& [name, unit] = units[i];
    auto it = values.find(name);
    std::cout << (i == 0 ? "" : ", ") << json_string(name)
              << ": {\"value\": " << number(it == values.end() ? 0.0 : it->second)
              << ", \"unit\": " << json_string(unit) << "}";
  }
  std::cout << "}}" << std::endl;
}

void print_timing(const char* name, const Summary& summary, double scale,
                  const std::string& note) {
  std::printf("  %-22s %14.6f ms  [%s; n=%zu]\n", name, summary.p50 * scale, "p50",
              summary.count);
  std::printf("  %-22s %14.6f ms  [%s; n=%zu, %zu beyond]%s\n", "tail_ms",
              summary.tail * scale, summary.tail_label().c_str(), summary.count,
              summary.beyond_tail, note.c_str());
}

double timed_setup(Workload& workload) {
  const auto start = Clock::now();
  workload.setup();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// One set-up in a fresh process (`lbsbench --setup-only`), so it starts as
// cold as the first: no planner pool, untouched memory, no server.
double child_setup(const Args& args) {
  int out[2];
  if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  std::string seed = std::to_string(args.seed);
  std::vector<std::string> words = {"lbsbench", "--workload", args.workload, "--seed", seed,
                                    "--setup-only"};
  std::vector<char*> argv;
  for (std::string& word : words) argv.push_back(word.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned =
      ::posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  std::string text;
  if (spawned == 0) {
    char buffer[64];
    for (;;) {
      const ssize_t got = ::read(out[0], buffer, sizeof buffer);
      if (got > 0) {
        text.append(buffer, static_cast<std::size_t>(got));
      } else if (got == 0 || errno != EINTR) {
        break;
      }
    }
  }
  ::close(out[0]);
  if (spawned != 0) throw std::runtime_error("cannot start a set-up process");
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) == 1) {
    throw CheckFailure("a fresh-process set-up got a wrong plan");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || text.empty()) {
    throw std::runtime_error("a fresh-process set-up failed");
  }
  return std::stod(text);
}

// The timed phase runs in kSlices slices. Before each, one more set-up runs
// in a fresh process, so setup_s samples the host over the same stretch of
// time as the timed phase rather than over its first second.
int run_end_to_end(const Args& args, Workload& workload, double first_setup, Values& values) {
  std::vector<double> setup_times = {first_setup};
  std::vector<std::uint64_t> cursor(static_cast<std::size_t>(workload.threads()), 0);
  LoopOptions options;
  options.seconds = args.seconds / kSlices;
  LoopResult loop;
  for (int slice = 0; slice < kSlices; ++slice) {
    setup_times.push_back(child_setup(args));
    const LoopResult part = closed_loop(workload, options, cursor);
    loop.cached.merge(part.cached);
    loop.uncached.merge(part.uncached);
    loop.attempted += part.attempted;
    loop.ok += part.ok;
    loop.wall_s += part.wall_s;
  }
  const double setup_s = median(setup_times);
  std::string setups;
  for (double t : setup_times) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%s%.4f", setups.empty() ? "" : " ", t);
    setups += buffer;
  }

  LatencyHistogram all = loop.cached;
  all.merge(loop.uncached);
  const Summary summary = summarize(all, workload.tail_q());
  std::string note;
  if (args.workload == "serve_churn") {
    char buffer[160];
    std::snprintf(buffer, sizeof buffer,
                  "\n  %-22s %14.4f %%   [hits p50 %.4f ms, misses p50 %.4f ms]", "miss_share",
                  100.0 * static_cast<double>(loop.uncached.count()) /
                      static_cast<double>(std::max<std::uint64_t>(all.count(), 1)),
                  summarize(loop.cached, 0.5).p50 * 1e3,
                  summarize(loop.uncached, 0.5).p50 * 1e3);
    note = buffer;
  }

  const double failed = static_cast<double>(loop.attempted - loop.ok);
  values["setup_s"] = setup_s;
  values["throughput_ops_s"] = static_cast<double>(loop.ok) / loop.wall_s;
  values["p50_ms"] = summary.p50 * 1e3;
  values["tail_ms"] = summary.tail * 1e3;
  values["ok_ratio"] = static_cast<double>(loop.ok) / static_cast<double>(loop.attempted);
  values["peak_rss_mb"] = peak_rss_mb();

  std::printf("  %-22s %14.6f s   [median of %s s; each a fresh process]\n", "setup_s",
              setup_s, setups.c_str());
  std::printf("  %-22s %14.3f 1/s [%lld ok ops / %.3f s wall, %d caller threads]\n",
              "throughput_ops_s", values["throughput_ops_s"], loop.ok, loop.wall_s,
              workload.threads());
  print_timing("p50_ms", summary, 1e3, note);
  std::printf("  %-22s %14.6f     [fixed seeded input set]\n", "makespan_vs_uniform",
              values["makespan_vs_uniform"]);
  std::printf("  %-22s %14.6f     [fail_ratio %.6f: %.0f of %lld failed]\n", "ok_ratio",
              values["ok_ratio"], failed / static_cast<double>(loop.attempted), failed,
              loop.attempted);
  std::printf("  %-22s %14.3f MB  [VmHWM]\n", "peak_rss_mb", values["peak_rss_mb"]);
  std::fflush(stdout);

  if (!summary.tail_supported()) {
    std::fprintf(stderr, "lbsbench: only %zu samples beyond %s (need %zu); run longer\n",
                 summary.beyond_tail, summary.tail_label().c_str(), kMinBeyondTail);
    return 3;
  }
  std::vector<std::pair<std::string, std::string>> units;
  for (const Metric& metric : kEndToEnd) units.emplace_back(metric.name, metric.unit);
  print_result(true, loop.attempted, loop.attempted - loop.ok, units, values);
  return 0;
}

// The program's own obs::Tracer for one traced window. A tracer's
// per-thread rings hold a fixed number of events for its whole life, so
// every window gets a fresh one, sized for a window's worth of events.
// They are owned by main and outlive the server, whose threads may still
// record a span after the reply that ends an op.
using ProgramTracers = std::vector<std::unique_ptr<lbs::obs::Tracer>>;
lbs::obs::Tracer& install_program_tracer(ProgramTracers& tracers) {
  tracers.push_back(std::make_unique<lbs::obs::Tracer>(std::size_t{1} << 15));
  lbs::obs::set_global_tracer(tracers.back().get());
  return *tracers.back();
}

int run_traced(const Args& args, Workload& workload, ProgramTracers& tracers,
               Values& values) {
  const auto threads = static_cast<std::size_t>(workload.threads());
  std::vector<std::uint64_t> cursor(threads, 0);
  auto make_lanes = [&] {
    std::vector<SpanLane> lanes;
    for (std::size_t t = 0; t < threads; ++t) lanes.emplace_back(static_cast<int>(t));
    return lanes;
  };
  // Alternating untraced and traced windows: the throughput ratio is the
  // cost of recording spans, with host drift shared by both sides.
  const double window = args.seconds / (4.0 * kSlicePairs);
  long long untraced_ok = 0, traced_ok = 0, attempted = 0, ok = 0;
  double untraced_wall = 0, traced_wall = 0;
  for (int pair = 0; pair < kSlicePairs; ++pair) {
    LoopOptions plain;
    plain.seconds = window;
    workload.begin_window();
    const LoopResult untraced = closed_loop(workload, plain, cursor);
    workload.end_window();

    std::vector<SpanLane> lanes = make_lanes();
    LoopOptions traced_options = plain;
    traced_options.lanes = &lanes;
    install_program_tracer(tracers);
    const LoopResult traced = closed_loop(workload, traced_options, cursor);
    lbs::obs::set_global_tracer(nullptr);

    untraced_ok += untraced.ok;
    untraced_wall += untraced.wall_s;
    traced_ok += traced.ok;
    traced_wall += traced.wall_s;
    attempted += untraced.attempted + traced.attempted;
    ok += untraced.ok + traced.ok;
  }

  // The layer pass: every op also times the layer calls it consists of.
  workload.prepare_trace();
  std::vector<SpanLane> lanes = make_lanes();
  LoopOptions layer_options;
  layer_options.seconds = args.seconds / 2.0;
  layer_options.max_ops_per_thread = kLayerOpsPerThread;
  layer_options.lanes = &lanes;
  layer_options.split = true;
  lbs::obs::Tracer& program_tracer = install_program_tracer(tracers);
  const LoopResult layer = closed_loop(workload, layer_options, cursor);
  lbs::obs::set_global_tracer(nullptr);
  const lbs::obs::TraceLog program_log = program_tracer.collect();
  attempted += layer.attempted;
  ok += layer.ok;

  std::vector<SpanRecord> spans;
  for (const SpanLane& lane : lanes) {
    spans.insert(spans.end(), lane.spans().begin(), lane.spans().end());
  }
  std::map<std::string, std::vector<double>> durations;
  for (const SpanRecord& span : spans) durations[span.name].push_back(span.duration());
  for (const LayerMetric& metric : kPerLayer) {
    if (metric.span != nullptr) values[metric.name] = median(durations[metric.span]) * metric.scale;
  }
  workload.window_values(values);

  auto ms = [&](const char* name, double scale) { return values[name] * scale; };
  const double core_parts = ms("model.route_check_us", 1e-3) + ms("model.cost_table_ms", 1) +
                            ms("core.dp_ms", 1) + ms("core.lp_heuristic_ms", 1) +
                            ms("core.rounding_us", 1e-3) + ms("core.finish_times_us", 1e-3);
  values["core.coverage_ratio"] =
      values["core.plan_ms"] > 0 ? core_parts / values["core.plan_ms"] : 0.0;
  const double service_parts = values["core.plan_key_us"] + values["core.cache_lookup_us"] +
                               values["service.encode_request_us"] +
                               values["service.decode_request_us"] +
                               values["service.encode_response_us"] +
                               values["service.decode_response_us"] + values["service.ping_us"];
  values["service.coverage_ratio"] = values["service.round_trip_us"] > 0
                                         ? service_parts / values["service.round_trip_us"]
                                         : 0.0;
  const double untraced_rate = static_cast<double>(untraced_ok) / untraced_wall;
  const double traced_rate = static_cast<double>(traced_ok) / traced_wall;
  values["trace.overhead_ratio"] = 1.0 - traced_rate / untraced_rate;

  // Self time per layer over the layer pass.
  const auto layers = layer_self_times(spans);
  double total_self = 0;
  for (const auto& row : layers) total_self += row.seconds;
  std::printf("  self time by layer over the layer pass (%lld ops, %zu spans):\n", layer.ok,
              spans.size());
  for (const auto& row : layers) {
    std::printf("    %-10s %12.3f us/op  %6.1f %%  (%zu spans)\n", row.layer.c_str(),
                1e6 * row.seconds / static_cast<double>(std::max(layer.ok, 1LL)),
                100.0 * row.seconds / std::max(total_self, 1e-300), row.spans);
  }
  std::printf("  untraced %.3f ops/s vs traced %.3f ops/s over %d window pairs\n",
              untraced_rate, traced_rate, kSlicePairs);

  const std::string path = "trace-" + args.workload + ".json";
  {
    std::ofstream out(path);
    write_chrome_trace(out, spans, program_log);
    if (!out) throw std::runtime_error("cannot write trace " + path);
  }
  std::printf("  chrome trace: %s (%zu spans, %zu program events, %llu dropped)\n",
              path.c_str(), spans.size(), program_log.events.size(),
              static_cast<unsigned long long>(program_tracer.dropped()));

  std::vector<std::pair<std::string, std::string>> units;
  for (const LayerMetric& metric : kPerLayer) {
    std::printf("  %-28s %16.6f %s\n", metric.name, values[metric.name], metric.unit);
    units.emplace_back(metric.name, metric.unit);
  }
  std::fflush(stdout);
  print_result(true, attempted, attempted - ok, units, values);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  ProgramTracers tracers;  // declared first: outlives the workload's server
  std::unique_ptr<Workload> workload;
  try {
    args = parse_args(argc, argv);
    workload = make_workload(args.workload, args.seed);  // inputs: before any clock
  } catch (const std::exception& error) {
    std::fprintf(stderr,
                 "lbsbench: %s\nusage: lbsbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--commit SHA]\n       lbsbench --workload W --seed N "
                 "--setup-only\n",
                 error.what());
    return 2;
  }
  try {
    const double setup = timed_setup(*workload);
    if (args.setup_only) {
      std::printf("%.17g\n", setup);
      return 0;
    }
    Values values;
    workload->fixed_set(values);

    std::printf("lbsbench %s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
    std::fflush(stdout);
    print_record(args, *workload);
    const int status = args.trace == 0
                           ? run_end_to_end(args, *workload, setup, values)
                           : run_traced(args, *workload, tracers, values);
    workload.reset();
    return status;
  } catch (const CheckFailure& failure) {
    std::fprintf(stderr, "lbsbench: wrong output: %s\n", failure.what());
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "lbsbench: %s\n", error.what());
    return 4;
  }
}
