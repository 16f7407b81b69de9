"""Benchmark of pisim: seeded workloads, closed-form-checked outputs, per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 24 --trace 0

Workloads (see BENCHMARK.json for why each exists): ``cli-small``,
``cli-entangle`` and ``cli-large`` drive ``pisim.cli.main`` in-process;
``lib-density`` calls the library.  The workload runs in a child process
(workload.py) with BLAS threads pinned; with ``--trace 0`` further children
time set-up (``import pisim`` and input generation) alone.  Human-readable
lines come first; the last line of standard output is the JSON result.  The process exits non-zero without a
result when pisim's sources are missing or a child fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: One client on one thread: native code is pinned to one thread too, which
#: is at most ``nproc`` on any machine.
BLAS_THREADS = 1
BLAS_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: Set-up is timed in fresh processes, in rounds of SETUP_ROUND processes
#: whose fastest counts; setup_s is the median over the rounds.  The first
#: SETUP_ROUNDS_BEFORE rounds run before the workload process, the rest after
#: it, so that they span the run.
SETUP_ROUNDS = 5
SETUP_ROUNDS_BEFORE = 2
SETUP_ROUND = 3
#: The tail is the highest of these percentiles with >= 10 operations beyond
#: it, or the maximum where none has.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
#: Every child must have ended by then, so the whole run ends within 180 s.
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def child_environment() -> dict[str, str]:
    env = dict(os.environ)
    for name in BLAS_VARIABLES:
        env[name] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(arguments: list[str], deadline: float) -> dict:
    """Run workload.py to completion and return its JSON summary."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a workload process")
    command = [sys.executable, str(HERE / "workload.py")] + arguments
    try:
        # run() kills the child and waits for it when the timeout expires
        done = subprocess.run(
            command, env=child_environment(), stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"workload process exceeded the {DEADLINE_S:.0f} s deadline") from None
    if done.returncode != 0:
        raise BenchmarkError(f"workload process exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("workload process printed no summary")
    return json.loads(lines[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest listed percentile, by nearest rank,
    that leaves at least TAIL_BEYOND samples above it; the maximum if none does."""
    ordered = sorted(latencies)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        rank = math.ceil(percentile / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return percentile, ordered[rank - 1]
    return 100.0, ordered[-1]


def end_to_end(summary: dict, setup_rounds: list[float]) -> tuple[dict, list[str]]:
    latencies = summary["latencies"]  # per operation slot, the median of its timed runs
    percentile, tail_s = tail(latencies)
    runs = summary["environment"]["runs_per_slot"]
    attempted, failed = summary["attempted"], len(summary["failures"])
    basis = (
        f"{len(latencies)} operation slots, each the median of {runs['min']}-{runs['max']} runs"
        " on fresh inputs, at the probe's reference speed"
    )
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "ops/s", basis),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms", f"median of {basis}"),
        "op_tail_ms": (tail_s * 1e3, "ms", f"p{percentile:g} of {basis}"),
        "setup_s": (
            statistics.median(setup_rounds),
            "s",
            f"median over {len(setup_rounds)} rounds of the fastest of {SETUP_ROUND} fresh processes,"
            " at the probe's reference speed",
        ),
        "peak_rss_mb": (summary["peak_rss_kb"] / 1024.0, "MB", "workload process"),
    }
    report = [f"{name:<12} {value:.6g} {unit}  ({note})" for name, (value, unit, note) in metrics.items()]
    report.append(f"{'error_rate':<12} {failed / attempted:.6g} ratio  ({failed} failed / {attempted} attempted)")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "pisim" / "__init__.py").is_file():
        print(f"perfbench: no pisim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    print(f"pisim benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    try:
        if args.trace:
            summary = run_child(common + ["--trace", "1"], deadline)
            metrics = summary["per_layer"]
            report = [f"{name:<56} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
            report += [
                f"ladder {r['rung']:<10} terms {r['terms']:<6} density_dim {r['density_dim']:<6} "
                f"run_scheme {r['run_scheme_s']:.4f} s  detection_table {r['detection_table_s']:.4f} s  "
                f"conditional {r['conditional_s']:.4f} s  {r['conditional_status']}"
                + (f" ({r['conditional_error']})" if "conditional_error" in r else "")
                for r in summary["ladder"]
            ]
            report.append(f"spans written to {summary['trace_file']}")
        else:
            def setup_rounds(count: int) -> list[float]:
                setup_only = common + ["--setup-only"]
                return [
                    min(run_child(setup_only, deadline)["setup_s"] for _ in range(SETUP_ROUND)) for _ in range(count)
                ]

            setup_samples = setup_rounds(SETUP_ROUNDS_BEFORE)
            summary = run_child(common, deadline)
            setup_samples += setup_rounds(SETUP_ROUNDS - SETUP_ROUNDS_BEFORE)
            metrics, report = end_to_end(summary, setup_samples)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print("environment: " + json.dumps(summary["environment"]))
    for line in report + [f"failure: {f}" for f in summary["failures"][:10]]:
        print(line)
    failed = len(summary["failures"])
    result = {"correct": failed == 0, "attempted": summary["attempted"], "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
