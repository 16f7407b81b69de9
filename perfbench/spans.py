"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: :func:`install` replaces the
public pisim functions named in :data:`TRACED` with timing wrappers in every
module namespace where they are looked up (``pisim.cli.run_scheme``,
``pisim.analysis.run_scheme``, ``pisim.interferometer.apply_beam_splitter``,
...), and wraps ``DensityMatrix.__post_init__``.  Nothing under ``src/`` is
changed; the wrappers live only in the benchmark process.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass

#: Wrapped functions, by defining module.  Each becomes a span named
#: ``<module>.<function>``; ``DensityMatrix`` stands for its validation.
TRACED = {
    "cli": ("parse_scenario", "execute"),
    "interferometer": (
        "build_two_source_state",
        "apply_path_identity",
        "apply_beam_splitter",
        "run_scheme",
        "detected_particles",
        "joint_probability",
        "detection_table",
        "conditional_detected_state",
    ),
    "states": ("pure_state_from_terms", "to_density", "partial_trace", "state_fidelity"),
    "closed_form": ("predicted_output_state",),
    "analysis": (
        "sweep_pattern",
        "visibility",
        "concurrence",
        "three_tangle",
        "fidelity",
        "pure_state_from_density",
    ),
}
DENSITY_SPAN = "states.DensityMatrix"
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns) + (DENSITY_SPAN,)


@dataclass
class Span:
    span_id: int
    parent: int | None
    op: str
    name: str
    start: float
    end: float = 0.0
    failed: bool = False


class Recorder:
    """Keeps every span and the counts measured at span boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = ""
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self.op, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, failed: bool) -> None:
        span.end = time.perf_counter()
        span.failed = failed
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, failed=True)
                raise
            self.close(span, failed=False)
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced


def _observe_run_scheme(counts, args, state) -> None:
    counts["interferometer.terms_out"] += state.term_count
    counts["interferometer.outcomes_out"] += 2 ** args[0].n_detected


def _observe_density(counts, args, _result) -> None:
    dim = args[0].dim
    counts["states.density_dim_max"] = max(counts["states.density_dim_max"], dim)
    counts["states.density_bytes"] += dim * dim * 16


_OBSERVERS = {"interferometer.run_scheme": _observe_run_scheme}


def install(recorder: Recorder, package) -> callable:
    """Wrap the traced names of ``package`` (the imported pisim); returns an undo."""
    modules = [package] + [getattr(package, name) for name in TRACED]
    undo = []
    for mod_name, functions in TRACED.items():
        home = getattr(package, mod_name)
        for fn_name in functions:
            original = getattr(home, fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapper = recorder.wrap(name, original, _OBSERVERS.get(name))
            for module in modules:
                if module.__dict__.get(fn_name) is original:
                    setattr(module, fn_name, wrapper)
                    undo.append((module, fn_name, original))
    density = package.states.DensityMatrix
    original_post_init = density.__post_init__
    density.__post_init__ = recorder.wrap(DENSITY_SPAN, original_post_init, _observe_density)
    undo.append((density, "__post_init__", original_post_init))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children[span.span_id], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.span_id] = (span.end - span.start) - covered
    return result


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """``calls``, ``self_s`` and ``failed`` summed per span name."""
    own = self_times(spans)
    totals = {name: {"calls": 0, "self_s": 0.0, "failed": 0} for name in SPAN_NAMES}
    for span in spans:
        entry = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0, "failed": 0})
        entry["calls"] += 1
        entry["self_s"] += own[span.span_id]
        entry["failed"] += int(span.failed)
    return totals
