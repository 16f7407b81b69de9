"""One workload process of the pisim benchmark.

Started by ``run.py`` with BLAS threads pinned.  Set-up is what it times
first: ``import pisim`` from the checkout's ``src/`` and the generation of
the workload's operation list from the seed.  It then runs one untimed
warm-up operation and the timed phase, back to back in this one thread (a
closed loop with one client).  Each position of the list is an operation
slot; run j of a slot takes its inputs from draw j of the list (inputs.py),
with the same sizes in every draw, so no operation repeats and a cache kept
across calls cannot make a later run cheaper.  Every slot runs at least
three times; after that the slot with the least run time so far runs next,
until the time budget is spent.  Every run is timed between runs of a fixed
host-speed probe, before, after and (for long runs) during it, and scaled to
the probe's reference speed, which takes out the stretches when a shared
host slows the CPU down; a slot's latency is the median of its runs.  Set-up is scaled the same way.  Every output is
checked against the closed form after its timer stops.  The last line of
standard output is a JSON summary for ``run.py``.

With ``--setup-only`` the process stops after set-up.  With ``--trace 1``
half of the budget runs whole passes over the slots untraced and half traced
(see spans.py), followed by the size ladder; the traced numbers are reported
per pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import checks
import inputs
import ladder
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
#: Each slot's latency is the median of at least this many runs.
MIN_RUNS = 3
#: The host-speed probe: a fixed pure-Python loop of this many steps, timed
#: right before and right after every timed operation, during long ones, and
#: around set-up.  A shared host can run this process at half speed for
#: seconds at a time; the probe slows down with it, while the ratio of an
#: operation's time to the probe's stays within a few percent.  Times are therefore reported at the
#: reference speed, at which the probe takes PROBE_REFERENCE_S: about its
#: time in the fast phases of a 2-vCPU Xeon host.
PROBE_LOOPS = 3000
PROBE_REFERENCE_S = 1.5e-3
#: Runs longer than this are probed during the run as well, so that a change
#: of host speed in the middle of a long operation is seen.
PROBE_INTERVAL_S = 0.1
#: The traced run times whole passes over the slots, at least this many.
TRACE_MIN_PASSES = 2
#: Inputs of the untimed warm-up operation: a draw no timed run uses.
WARM_UP_DRAW = -1

#: Per-layer metrics of the traced run, in report order, with units.  Times
#: and counts are per pass over the workload's operation list.
LAYER_METRICS = [
    ("interferometer.build_two_source_state.self_s", "s"),
    ("interferometer.apply_path_identity.self_s", "s"),
    ("interferometer.apply_beam_splitter.self_s", "s"),
    ("interferometer.run_scheme.calls", "count"),
    ("states.pure_state_from_terms.self_s", "s"),
    ("interferometer.terms_out", "count"),
    ("interferometer.outcomes_out", "count"),
    ("interferometer.terms_per_outcome", "ratio"),
    ("interferometer.joint_probability.calls", "count"),
    ("interferometer.joint_probability.self_s", "s"),
    ("interferometer.joint_probability.failed", "count"),
    ("interferometer.detected_particles.calls", "count"),
    ("interferometer.detected_particles.self_s", "s"),
    ("interferometer.detected_particles.failed", "count"),
    ("interferometer.detection_table.calls", "count"),
    ("interferometer.detection_table.self_s", "s"),
    ("interferometer.detection_table.failed", "count"),
    ("interferometer.conditional_detected_state.calls", "count"),
    ("interferometer.conditional_detected_state.self_s", "s"),
    ("interferometer.conditional_detected_state.failed", "count"),
    ("states.to_density.self_s", "s"),
    ("states.partial_trace.self_s", "s"),
    ("states.DensityMatrix.self_s", "s"),
    ("states.density_dim_max", "count"),
    ("states.density_bytes", "bytes"),
    ("closed_form.predicted_output_state.self_s", "s"),
    ("states.state_fidelity.self_s", "s"),
    ("analysis.sweep_pattern.self_s", "s"),
    ("analysis.visibility.self_s", "s"),
    ("analysis.concurrence.self_s", "s"),
    ("analysis.three_tangle.self_s", "s"),
    ("analysis.fidelity.self_s", "s"),
    ("analysis.pure_state_from_density.self_s", "s"),
    ("cli.parse_scenario.self_s", "s"),
    ("cli.execute.self_s", "s"),
    ("cli.csv_bytes", "bytes"),
    ("bench.trace_overhead", "ratio"),
    ("error_rate", "ratio"),
] + ladder.metric_names()


def import_pisim():
    """Import pisim from this checkout's sources and nowhere else."""
    sys.path.insert(0, str(SRC))
    import pisim
    import pisim.cli  # noqa: F401  (not imported by the package itself)

    if Path(pisim.__file__).resolve().parent != SRC / "pisim":
        raise SystemExit(f"pisim imported from {pisim.__file__}, not from {SRC}")
    return pisim


def probe() -> tuple[float, float]:
    """One run of the host-speed probe: its start and end on the
    ``perf_counter`` clock.  The garbage collector is held off, so that
    objects pisim left behind do not bill the probe."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict[tuple[int, int], complex] = {}
        for i in range(PROBE_LOOPS):
            key = (i % 97, i)
            table[key] = table.get(key, 0j) + complex(i, 1)
        return start, time.perf_counter()
    finally:
        if collecting:
            gc.enable()


def probe_s() -> float:
    start, end = probe()
    return end - start


def host_probe_ms() -> float:
    """Median of five probe runs, in ms: how fast the host lets this process
    run at the moment (lower is faster)."""
    return statistics.median(probe_s() for _ in range(5)) * 1e3


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between probes that took ``before`` and ``after``,
    scaled to the speed at which the probe takes PROBE_REFERENCE_S."""
    return seconds * PROBE_REFERENCE_S / ((before + after) / 2)


def scaled_time(start: float, end: float, probes: list[tuple[float, float]]) -> float:
    """The time of [start, end] at the reference speed.  ``probes`` are the
    (start, end) stamps of probe runs in time order, the first before
    ``start`` and the last after ``end``.  Each stretch between two probes
    is scaled by the mean of their times; the probes' own time is left out."""
    total = 0.0
    for (a_start, a_end), (b_start, b_end) in zip(probes, probes[1:]):
        overlap = min(end, b_start) - max(start, a_end)
        if overlap > 0:
            total += at_reference_speed(overlap, a_end - a_start, b_end - b_start)
    return total


def timed_run(runner, op) -> tuple[float, list[str]]:
    """Run ``op`` between two probes, and every PROBE_INTERVAL_S seconds
    during it from a timer signal; its time at the reference speed, and the
    problems its check found.  Garbage left by earlier operations is
    collected first, so that each run starts as in a fresh process."""
    gc.collect()
    probes = [probe()]
    previous = signal.signal(signal.SIGALRM, lambda _signum, _frame: probes.append(probe()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        (start, end), problems = runner.run(op)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    probes.append(probe())
    return scaled_time(start, end, probes), problems


class CliRunner:
    """Runs operations through ``pisim.cli.main`` in this process; the
    scenario file is written before the timer starts."""

    def __init__(self, pisim, workdir: Path):
        self.cli = pisim.cli
        self.scenario = workdir / "op.scenario"
        self.out = workdir / "op.csv"
        self.last_bytes = 0

    def run(self, op) -> tuple[tuple[float, float], list[str]]:
        self.scenario.write_text(op.scenario())
        self.out.unlink(missing_ok=True)
        argv = [op.command, "--scenario", str(self.scenario), "--out", str(self.out)]
        if op.command == "oracle-check":
            argv += ["--seed", str(op.seed)]
        self.last_bytes = 0
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            return (start, time.perf_counter()), [f"raised {type(exc).__name__}: {exc}"]
        stamps = (start, time.perf_counter())
        if code != 0:
            return stamps, [f"exit code {code}"]
        try:
            text = self.out.read_text()
        except OSError as exc:
            return stamps, [f"no output: {exc}"]
        self.last_bytes = len(text.encode())
        return stamps, checks.check_csv(text, op)


class DensityRunner:
    """Library route: run_scheme -> conditional_detected_state -> fidelity
    against predicted_output_state, and concurrence of particles 1 and 2."""

    def __init__(self, pisim, _workdir: Path):
        self.pisim = pisim
        self.last_bytes = 0

    def run(self, op) -> tuple[tuple[float, float], list[str]]:
        p, s = self.pisim, op.scheme
        start = time.perf_counter()
        try:
            cfg = p.interferometer.SchemeConfig(
                s.n, s.m, phi0=s.phi0, phi=s.phi, theta=s.theta, transmission=s.transmission
            )
            rho = p.interferometer.conditional_detected_state(p.interferometer.run_scheme(cfg))
            target = p.closed_form.predicted_output_state(cfg.n_detected, cfg.xi)
            fid = p.analysis.fidelity(rho, target)
            conc = p.analysis.concurrence(p.states.partial_trace(rho, (1, 2)))
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            return (start, time.perf_counter()), [f"raised {type(exc).__name__}: {exc}"]
        return (start, time.perf_counter()), checks.check_density(fid, conc, op)


class Tally:
    """Failures of the operations attempted so far."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems[:3])}")


class Draws:
    """Seeded operations.  Draw 0, the whole list, is generated during
    set-up; run j of operation slot i takes slot i of draw j, made on demand
    and outside any timer, so no operation repeats."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.first = inputs.generate(workload, seed)

    def op(self, draw: int, slot: int):
        return self.first[slot] if draw == 0 else inputs.make_op(self.workload, self.seed, draw, slot)


def timed_slots(runner, draws: Draws, tally: Tally, budget: float) -> tuple[list[float], list[int]]:
    """Each operation slot's median run time at the reference speed, and its
    number of runs.  Every slot first runs MIN_RUNS times, in order; then,
    until ``budget`` seconds have passed, the slot with the least run time so
    far runs again, so that cheap slots are sampled many times across the
    whole timed phase."""
    slots = range(len(draws.first))
    times: list[list[float]] = [[] for _ in slots]
    spent = [0.0] * len(slots)
    start = time.perf_counter()
    while min(map(len, times)) < MIN_RUNS or time.perf_counter() - start < budget:
        fewest = min(map(len, times))
        slot = (
            next(i for i in slots if len(times[i]) == fewest)
            if fewest < MIN_RUNS
            else min(slots, key=spent.__getitem__)
        )
        draw = len(times[slot])
        latency, problems = timed_run(runner, draws.op(draw, slot))
        tally.record(f"draw{draw}/op{slot}", problems)
        times[slot].append(latency)
        spent[slot] += latency
    return [statistics.median(t) for t in times], [len(t) for t in times]


def timed_passes(
    runner, draws: Draws, first_draw: int, tally: Tally, budget: float, recorder=None
) -> list[list[float]]:
    """Whole passes over the slots, pass k on draw ``first_draw + k``, while
    fewer than TRACE_MIN_PASSES ran or another pass is expected to end within
    ``budget`` seconds; returns each pass's latencies."""
    done: list[list[float]] = []
    start = time.perf_counter()
    longest = 0.0
    while len(done) < TRACE_MIN_PASSES or time.perf_counter() - start + longest <= budget:
        pass_start = time.perf_counter()
        draw = first_draw + len(done)
        latencies = []
        for slot in range(len(draws.first)):
            label = f"draw{draw}/op{slot}"
            if recorder is not None:
                recorder.op = label
            latency, problems = timed_run(runner, draws.op(draw, slot))
            if recorder is not None:
                recorder.counts["cli.csv_bytes"] += runner.last_bytes
            latencies.append(latency)
            tally.record(label, problems)
        done.append(latencies)
        longest = max(longest, time.perf_counter() - pass_start)
    return done


def slot_medians(passes: list[list[float]]) -> list[float]:
    """Each operation slot's median timed run across passes."""
    return [statistics.median(runs) for runs in zip(*passes)]


def layer_metrics(recorder, passes: int, overhead: float, tally: Tally) -> dict:
    """Per-layer values per traced pass, from the spans outside the ladder."""
    totals = spans.layer_totals([s for s in recorder.spans if not s.op.startswith("ladder/")])
    values = {}
    for name, fields in totals.items():
        for field, value in fields.items():
            values[f"{name}.{field}"] = value / passes
    for name, value in recorder.counts.items():
        values[name] = value if name == "states.density_dim_max" else value / passes
    outcomes = values.get("interferometer.outcomes_out", 0.0)
    values["interferometer.terms_per_outcome"] = (
        values.get("interferometer.terms_out", 0.0) / outcomes if outcomes else 0.0
    )
    values["bench.trace_overhead"] = overhead
    values["error_rate"] = len(tally.failures) / tally.attempted
    return values


def traced_run(pisim, runner, draws: Draws, tally: Tally, args, probes: list[float]) -> dict:
    """Half the budget untraced, half traced, then the ladder; writes the trace file."""
    untraced = timed_passes(runner, draws, 0, tally, args.seconds / 2)
    recorder = spans.Recorder()
    spans.install(recorder, pisim)
    traced = timed_passes(runner, draws, len(untraced), tally, args.seconds / 2, recorder)
    probes.append(host_probe_ms())
    phase_counts = dict(recorder.counts)
    ladder_records = ladder.run(pisim, recorder, args.seed)
    recorder.counts = phase_counts
    for record in ladder_records:
        tally.record(f"ladder/{record['rung']}", [record["error"]] if "error" in record else [])

    overhead = sum(slot_medians(traced)) / sum(slot_medians(untraced))
    per_layer = layer_metrics(recorder, len(traced), overhead, tally)
    per_layer.update(ladder.metrics(ladder_records))
    env = environment(args, len(draws.first), probes, {"traced_passes": len(traced)})
    trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
    write_trace(trace_path, recorder, ladder_records, env, per_layer, f"draw{len(untraced)}/")
    return {
        "per_layer": {name: {"value": per_layer.get(name, 0), "unit": unit} for name, unit in LAYER_METRICS},
        "ladder": ladder_records,
        "trace_file": str(trace_path.relative_to(ROOT)),
        "environment": env,
    }


def environment(args, n_slots: int, probes: list[float], runs: dict) -> dict:
    """What a reader needs to compare runs; ``host_probe_ms`` (before and
    after the timed phase) shows how fast the host let the run go."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "seed": args.seed,
        "workload": args.workload,
        "operation_slots": n_slots,
        **runs,
        "host_probe_ms": [round(p, 4) for p in probes],
    }


def write_trace(path: Path, recorder, ladder_records, env, per_layer, first_traced: str) -> None:
    """Write the spans of the first traced pass and of the ladder (all passes
    are alike), with times in microseconds from the first span."""
    origin = recorder.spans[0].start
    rows = [
        [s.span_id, s.parent, s.op, s.name, round((s.start - origin) * 1e6), round((s.end - origin) * 1e6), s.failed]
        for s in recorder.spans
        if s.op.startswith((first_traced, "ladder/"))
    ]
    document = {
        "environment": env,
        "span_fields": ["id", "parent", "op", "name", "start_us", "end_us", "failed"],
        "spans": rows,
        "ladder": ladder_records,
        "per_layer": per_layer,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    before = statistics.median(probe_s() for _ in range(3))
    start = time.perf_counter()
    pisim = import_pisim()
    draws = Draws(args.workload, args.seed)
    setup_s = time.perf_counter() - start
    setup_s = at_reference_speed(setup_s, before, statistics.median(probe_s() for _ in range(3)))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner_type = DensityRunner if args.workload == "lib-density" else CliRunner
        runner = runner_type(pisim, workdir)
        tally = Tally()
        _, problems = runner.run(inputs.make_op(args.workload, args.seed, WARM_UP_DRAW, 0))  # untimed
        tally.record("warm-up", problems)
        probes = [host_probe_ms()]
        if args.trace:
            result = traced_run(pisim, runner, draws, tally, args, probes)
        else:
            latencies, runs = timed_slots(runner, draws, tally, args.seconds)
            probes.append(host_probe_ms())
            counts = {"runs_per_slot": {"min": min(runs), "median": statistics.median(runs), "max": max(runs)}}
            result = {"latencies": latencies, "environment": environment(args, len(latencies), probes, counts)}
        result.update(
            attempted=tally.attempted,
            failures=tally.failures,
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
