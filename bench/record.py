"""Record a benchmark trajectory point: ``BENCH_<name>.json``.

Runs ``perfbench/run.py`` of one or more source trees on the four workloads
for each seed, for the ``run_seconds`` that each tree's ``BENCHMARK.json``
fixes, interleaved (seed by seed, workload by workload, tree by tree, the
order of the trees reversed on every other seed), and writes per tree and
workload the median and quartiles of each end-to-end metric, each run's
value, ``failed`` and ``attempted`` in seed order, the environment lines, the
commit and the ``src/pisim`` line count.  Given exactly two trees, it also
writes under ``comparison``, per workload and end-to-end metric, in how many
seeds the second tree was better (by the direction that the first tree's
``BENCHMARK.json`` gives) and whether the medians differ by more than the
first tree's q3 - q1.  The file is a record, not a gate: the bounds live in
``BENCHMARK.json``.  Standard library only.

Run from the root of a checkout, for example against an export of the parent
commit made with ``git archive``:

    python3 bench/record.py --out BENCH_6.json --seeds 1 2 3 \\
        --tree parent=/tmp/parent --commit parent=c9ea3e6 --tree change=.

A tree outside a git checkout records the commit given with ``--commit``, or
"unknown"; a checkout with uncommitted changes records its ``-dirty`` hash, so
record a change after committing it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cli-small", "cli-entangle", "cli-large", "lib-density")


def commit_of(tree: Path) -> str:
    """``git describe --always --dirty`` of ``tree``, or "unknown" outside a checkout
    of its own."""
    done = subprocess.run(
        ["git", "-C", str(tree), "describe", "--always", "--dirty", "--abbrev=12"],
        capture_output=True,
        text=True,
    )
    inside = subprocess.run(
        ["git", "-C", str(tree), "rev-parse", "--show-toplevel"], capture_output=True, text=True
    )
    if done.returncode or Path(inside.stdout.strip()).resolve() != tree.resolve():
        return "unknown"
    return done.stdout.strip()


def source_lines(tree: Path) -> int:
    return sum(len(path.read_text().splitlines()) for path in (tree / "src" / "pisim").glob("*.py"))


def run_seconds(tree: Path) -> float:
    """The run length that ``tree``'s own ``BENCHMARK.json`` fixes."""
    return float(json.loads((tree / "BENCHMARK.json").read_text())["run_seconds"])


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` process: its JSON result plus the environment line."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]  # fmt: skip
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{tree}: {workload} seed {seed} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    prefix = "environment: "
    result["environment"] = next(
        (json.loads(line[len(prefix) :]) for line in lines if line.startswith(prefix)), None
    )
    return result


def summary(runs: list[dict]) -> dict:
    """Median and quartiles of each metric over the runs of one tree and workload;
    ``values``, ``failed`` and ``environment`` list the runs in seed order."""
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        metrics[name] = {
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "values": values,
            "unit": first["unit"],
        }
    return {
        "metrics": metrics,
        "failed": [run["failed"] for run in runs],
        "attempted": [run["attempted"] for run in runs],
        "environment": [run["environment"] for run in runs],
    }


def comparison(first: dict, second: dict, better: dict[str, str]) -> dict:
    """Per workload and end-to-end metric of two trees' ``summary`` results, the rule a
    claim is judged by: in how many seeds the second tree's value was better than the
    first's, in the direction ``better`` names ("higher" or "lower"; a tie counts for
    neither), and whether the two medians differ by more than the first's q3 - q1."""
    result = {}
    for workload in first:
        result[workload] = {}
        for name, direction in better.items():
            a, b = first[workload]["metrics"][name], second[workload]["metrics"][name]
            sign = 1 if direction == "higher" else -1
            result[workload][name] = {
                "second_won": sum(sign * (y - x) > 0 for x, y in zip(a["values"], b["values"])),
                "pairs": len(a["values"]),
                "medians_apart": abs(b["median"] - a["median"]) > a["q3"] - a["q1"],
            }
    return result


def main() -> int:
    sys.stdout.reconfigure(line_buffering=True)  # progress lines show as each run ends
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the BENCH_<name>.json to write")
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=PATH")
    parser.add_argument("--commit", action="append", default=[], metavar="LABEL=COMMIT")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()

    trees = {}
    for spec in args.tree:
        label, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "perfbench" / "run.py").is_file():
            parser.error(f"--tree {spec!r} must be LABEL=PATH of a checkout with perfbench/")
        if not (Path(path) / "BENCHMARK.json").is_file():
            parser.error(f"--tree {spec!r} has no BENCHMARK.json")
        trees[label] = Path(path).resolve()
    commits = dict(spec.partition("=")[::2] for spec in args.commit)

    seconds = {label: run_seconds(tree) for label, tree in trees.items()}
    runs: dict[str, dict[str, list[dict]]] = {t: {w: [] for w in WORKLOADS} for t in trees}
    for k, seed in enumerate(args.seeds):
        for workload in WORKLOADS:
            for label, tree in list(trees.items())[:: -1 if k % 2 else 1]:
                result = run_once(tree, workload, seed, seconds[label])
                runs[label][workload].append(result)
                ops, failed = result["metrics"]["ops_per_s"]["value"], result["failed"]
                print(f"seed {seed} {workload} {label}: {ops:.4g} ops/s, {failed} failed")

    record = {
        "seeds": args.seeds,
        "trees": {
            label: {
                "commit": commits.get(label) or commit_of(tree),
                "seconds": seconds[label],
                "src_pisim_lines": source_lines(tree),
                "workloads": {w: summary(r) for w, r in runs[label].items()},
            }
            for label, tree in trees.items()
        },
    }
    if len(trees) == 2:
        (first, tree), (second, _) = trees.items()
        end_to_end = json.loads((tree / "BENCHMARK.json").read_text())["end_to_end"]
        better = {metric["name"]: metric["better"] for metric in end_to_end}
        workloads = [record["trees"][label]["workloads"] for label in (first, second)]
        record["comparison"] = {
            "first": first,
            "second": second,
            "workloads": comparison(*workloads, better),
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
