#!/usr/bin/env python3
"""Benchmark driver for the overlay simulator.

Builds the benchmark program from source (perfbench/CMakeLists.txt, which
compiles ../src), runs one workload in its own process, checks its
outputs and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of an untraced run.
With --trace 1 the workload runs twice, untraced and then traced (spans
around every layer call, shard profiling on); the metrics are the
per-layer numbers of the traced run plus its overhead over the untraced
one, and the two runs' simulated outputs must be identical.

Usage (from the repository root):
    python3 perfbench/run.py --workload crawl_k4 --seed 1 --seconds 20 --trace 0

The build directory is $CARGO_TARGET_DIR if set, else .bench_build.
Exit status: 0 when every check passed, 1 when a check failed or the
build or a run broke, 2 on a usage error. A run that times out, crashes
or reports a non-number still prints its result line, with correct
false and every attempted operation failed; a failed build prints none.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig3_paper", "crawl_k4", "hostile_service")
# Wall-clock budget of one invocation, build excluded: a benchmark run
# must end within 180 s.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "msgs_per_s": "msg/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "slice_p50_ms": "ms",
    "slice_p90_ms": "ms",
    "disconnected_frac": "fraction",
    "exchange_fail_frac": "fraction",
}

PER_LAYER = {
    "graph.gen_s": "s",
    "graph.trust_mb": "MB",
    "overlay.build_s": "s",
    "overlay.node_state_mb": "MB",
    "overlay.requests": "count",
    "overlay.replacements": "count",
    "overlay.exchange_yield": "fraction",
    "overlay.retries": "count",
    "overlay.timeouts": "count",
    "overlay.aborted": "count",
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.windows": "count",
    "sim.mailbox_out": "count",
    "sim.max_queue": "count",
    "sim.busy_s": "s",
    "sim.stall_s": "s",
    "sim.stall_frac": "fraction",
    "sim.shard_skew": "ratio",
    "transport.msgs": "count",
    "transport.delivery_ratio": "fraction",
    "fault.faulted": "count",
    "adversary.injected": "count",
    "adversary.rejected": "count",
    "inference.observations": "count",
    "metrics.measure_s": "s",
    "runner.cell_p50_s": "s",
    "runner.cell_max_s": "s",
    "runner.idle_frac": "fraction",
    "experiments.sizing_s": "s",
    "ckpt.save_s": "s",
    "ckpt.mb": "MB",
    "ckpt.load_s": "s",
    "trace.overhead_frac": "fraction",
}

# Fields of a workload run that are simulated, hence identical with
# tracing on or off.
SIMULATED = ("output_fingerprint", "input_fingerprint", "messages_sent",
             "disconnected_frac", "exchange_fail_frac", "attempted")


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "perfbench_selftest", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            log("cannot run", cmd[0], "-", e)
            return False
        if done.returncode != 0:
            log("build step failed:", " ".join(cmd))
            return False
    return True


def process_timeout(seconds, deadline):
    """A workload process takes about --seconds plus its set-up; one that
    takes twice that plus a minute is hung. Never past the deadline."""
    return max(1.0, min(2.0 * seconds + 60.0, deadline - time.monotonic()))


def run_once(binary, workload, seed, seconds, trace, work_dir, deadline,
             toy=False, spans=None):
    """Runs one workload process; returns (exit code, parsed result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--work-dir", work_dir]
    if trace:
        cmd.append("--trace")
    if toy:
        cmd.append("--toy")
    if spans:
        cmd += ["--spans", spans]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True,
                              timeout=process_timeout(seconds, deadline))
    except subprocess.TimeoutExpired:
        log(workload, "timed out")
        return 1, None
    except OSError as e:
        log("cannot run", binary, "-", e)
        return 1, None
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def percentile(values, q):
    """Linear-interpolation percentile (q in 1..99)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(result):
    wall = result["wall_s"]
    slices = result["slice_seconds"]
    return {
        "setup_s": statistics.median(result["setup_seconds"]),
        "wall_s": wall,
        "msgs_per_s": result["messages_sent"] / wall,
        "cpu_s": result["cpu_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "slice_p50_ms": statistics.median(slices) * 1e3,
        "slice_p90_ms": percentile(slices, 90) * 1e3,
        "disconnected_frac": result["disconnected_frac"],
        "exchange_fail_frac": result["exchange_fail_frac"],
    }


def per_layer(traced, untraced):
    layer = {name: traced["layer"].get(name, 0.0) for name in PER_LAYER}
    layer["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    return layer


def finite_metrics(compute, *results):
    """compute(*results) as floats, or None when a result lacks a number
    or holds a non-finite one (the program prints NaN and inf as null)."""
    try:
        values = {name: float(v) for name, v in compute(*results).items()}
    except (KeyError, TypeError, ValueError, ZeroDivisionError,
            statistics.StatisticsError):
        return None
    if not all(math.isfinite(v) for v in values.values()):
        return None
    return values


def simulated_mismatches(a, b):
    """Names of simulated outputs that differ between two runs."""
    return [key for key in SIMULATED if a.get(key) != b.get(key)]


def checks_ok(code, result):
    if code != 0 or result is None:
        return False
    return result["failed"] == 0 and all(c["ok"] for c in result["checks"])


def report(correct, attempted, values, units):
    """Prints the result line; an incorrect run fails every operation.
    `values` is None when no metric could be measured."""
    attempted = max(1, attempted)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units} if values is not None else {}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": 0 if correct else attempted,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, "perfbench")
    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    deadline = time.monotonic() + RUN_BUDGET_S
    units = PER_LAYER if args.trace else END_TO_END
    try:
        common = (binary, args.workload, args.seed, args.seconds)
        code, plain = run_once(*common, False, work_dir, deadline, args.toy)
        if plain is None:
            log(args.workload, "produced no result (exit %d)" % code)
            return report(False, 1, None, units)
        if not args.trace:
            values = finite_metrics(end_to_end, plain)
            return report(checks_ok(code, plain) and values is not None,
                          plain["attempted"], values, units)

        spans = os.path.join(build_dir, "spans-%s-%d.jsonl" %
                             (args.workload, args.seed))
        code_t, traced = run_once(*common, True, work_dir, deadline,
                                  args.toy, spans)
        if traced is None:
            log(args.workload, "traced run produced no result (exit %d)" %
                code_t)
            return report(False, 2 * plain["attempted"], None, units)
        mismatch = simulated_mismatches(plain, traced)
        if mismatch:
            log("traced run's simulated outputs differ:", ", ".join(mismatch))
        values = finite_metrics(per_layer, traced, plain)
        correct = checks_ok(code, plain) and checks_ok(code_t, traced) \
            and not mismatch and values is not None
        return report(correct, plain["attempted"] + traced["attempted"],
                      values, units)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
