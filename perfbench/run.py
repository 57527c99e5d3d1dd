#!/usr/bin/env python3
"""Repository benchmark: builds lbsbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload plan_dp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --steadiness 10 [--seconds S] [--seed N] [--trace 0|1]
    python3 perfbench/run.py --write-manifest
    python3 perfbench/run.py --self-test

A workload run prints the run record and every metric with its unit; its
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout root, and runs write their
sockets and traces under <build>/run. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# DEFAULT_SEED is what claims are tuned on; HELD_OUT_SEED confirms a claimed
# gain on inputs the change was not written against.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

WORKLOADS = [
    ("plan_dp", "Algorithm 2 on Table-1-shaped non-affine platforms, p=16, n near 5e4: cost evaluation and the pooled DP sweep; no lp, service or cache"),
    ("plan_affine", "the dense-simplex affine route at p near 128, n near 1e6, some processors dropped; no DP, service or cache"),
    ("serve_hits", "4 clients over a Unix socket, every request a cache hit: the per-request service path without solving"),
    ("serve_churn", "4 clients, Zipf keys over 3x the cache, p 64-512 linear costs: misses, inserts, evictions and the large-p codec"),
]

END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("tail_ms", "ms", "lower", 0.25),
    ("makespan_vs_uniform", "ratio", "lower", 0.03),
    ("ok_ratio", "ratio", "higher", 0.001),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

PER_LAYER = [
    ("model.route_check_us", "us", "lower"),
    ("model.cost_table_ms", "ms", "lower"),
    ("core.dp_ms", "ms", "lower"),
    ("core.dp_cells", "count", "lower"),
    ("core.dp_threads", "count", "higher"),
    ("core.lp_heuristic_ms", "ms", "lower"),
    ("core.rounding_us", "us", "lower"),
    ("core.finish_times_us", "us", "lower"),
    ("core.dropped_procs", "count", "lower"),
    ("core.plan_ms", "ms", "lower"),
    ("core.coverage_ratio", "ratio", "higher"),
    ("core.plan_key_us", "us", "lower"),
    ("core.cache_lookup_us", "us", "lower"),
    ("core.cache_insert_us", "us", "lower"),
    ("core.evictions_per_kreq", "1/kreq", "lower"),
    ("service.encode_request_us", "us", "lower"),
    ("service.decode_request_us", "us", "lower"),
    ("service.encode_response_us", "us", "lower"),
    ("service.decode_response_us", "us", "lower"),
    ("service.request_bytes", "bytes", "lower"),
    ("service.response_bytes", "bytes", "lower"),
    ("service.ping_us", "us", "lower"),
    ("service.round_trip_us", "us", "lower"),
    ("service.coverage_ratio", "ratio", "higher"),
    ("service.server_request_us", "us", "lower"),
    ("service.queue_wait_us", "us", "lower"),
    ("service.batch_size", "count", "higher"),
    ("service.hit_ratio", "ratio", "higher"),
    ("service.solves_per_kreq", "1/kreq", "lower"),
    ("service.coalesced_per_kreq", "1/kreq", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

RUN_SECONDS = 20
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    build_dir = build_root() / "perfbench"
    tmp = build_root() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1),
                  "--target", *targets])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {step[:2]} failed: {error}", 1)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}", 1)
    return build_dir


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines, parsed result or None, stderr)."""
    run_dir = build_root() / "run"
    run_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--commit", commit()]
    try:
        done = subprocess.run(command, cwd=run_dir, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 124, [], None, f"{workload} did not finish within {RUN_TIMEOUT_S} s"
    lines = done.stdout.splitlines()
    result = None
    if done.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, lines, result, done.stderr


def check_result(result, trace):
    expected = [name for name, *_ in (PER_LAYER if trace else END_TO_END)]
    if result is None:
        return "no result line"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from the contract"
    if sorted(result["metrics"]) != sorted(expected):
        return "metric names differ from BENCHMARK.json"
    return None


def run_workload(args):
    names = [name for name, _ in WORKLOADS]
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; choose from {', '.join(names)}")
    binary = build(["lbsbench"]) / "lbsbench"
    code, lines, result, stderr = run_once(binary, args.workload, args.seed, args.seconds,
                                           args.trace)
    sys.stderr.write(stderr)
    if code != 0:
        print("\n".join(lines[:-1] if lines and lines[-1].startswith("{") else lines))
        fail(f"lbsbench exited {code}", code if code > 0 else 1)
    problem = check_result(result, args.trace)
    if problem:
        print("\n".join(lines[:-1]))
        fail(problem, 5)
    print("\n".join(lines), flush=True)
    return 0


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def steadiness(args):
    """Runs each workload N times in alternating order, one seed per round."""
    names = [name for name, _ in WORKLOADS]
    binary = build(["lbsbench"]) / "lbsbench"
    samples = {name: [] for name in names}
    for round_index in range(args.steadiness):
        order = names if round_index % 2 == 0 else list(reversed(names))
        seed = args.seed + round_index
        for name in order:
            code, lines, result, stderr = run_once(binary, name, seed, args.seconds, args.trace)
            problem = check_result(result, args.trace) if code == 0 else f"exit {code}"
            if problem is None and (not result["correct"] or result["failed"]):
                problem = "incorrect or failed ops"
            if problem:
                sys.stderr.write(stderr)
                fail(f"{name} seed {seed}: {problem}", 1)
            samples[name].append(result["metrics"])
            print(f"round {round_index + 1}/{args.steadiness} {name} seed {seed} done",
                  file=sys.stderr, flush=True)
    rows = PER_LAYER if args.trace else END_TO_END
    worst = 0.0
    print(f"{'workload':<12} {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}  ok")
    for name in names:
        for row in rows:
            metric = row[0]
            values = [metrics[metric]["value"] for metrics in samples[name]]
            if len(values) < 2:
                continue
            q1, q2, q3, rel = spread(values)
            bound = row[3] if len(row) > 3 else None
            verdict = "" if bound is None else ("yes" if rel <= bound / 3 else
                                                "within" if rel <= bound else "NO")
            if bound is not None:
                worst = max(worst, rel / bound)
            print(f"{name:<12} {metric:<28} {q2:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{rel:>8.4f} {bound if bound is not None else '':>6}  {verdict}")
    print(f"worst spread / bound: {worst:.3f}")
    return 0


def self_test():
    build_dir = build(["perfbench_test"])
    done = subprocess.run([str(build_dir / "perfbench_test")], cwd=ROOT)
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held out for confirming "
                             f"claims: {HELD_OUT_SEED}); --steadiness uses seed + round")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N")
    parser.add_argument("--write-manifest", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.self_test:
        return self_test()
    if args.steadiness:
        return steadiness(args)
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
