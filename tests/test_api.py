"""Every exported name resolves, the public names are the live routes and no test-only
reference, every function the benchmark trace wraps and every attribute the benchmark reads
outside its trace exists, and no module imports another's private names."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import pisim
from pisim import interferometer

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "pisim").glob("*.py"))


def _traced_functions() -> list[tuple[str, str]]:
    # spans.py imports only the standard library, so it loads on its own; its
    # dataclasses look their module up in sys.modules while they are built
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    return [(module, name) for module, names in spans.TRACED.items() for name in names]


@pytest.mark.parametrize("name", pisim.__all__)
def test_exported_name_resolves(name):
    assert hasattr(pisim, name)


def test_live_route_is_exported():
    assert pisim.DetectedState is interferometer.DetectedState
    assert pisim.detected_state is interferometer.detected_state
    assert {"DetectedState", "detected_state"} <= set(pisim.__all__)


@pytest.mark.parametrize("name", ["density_from_mixture", "one_to_rest_concurrence"])
def test_test_only_reference_route_is_not_in_the_library(name):
    assert not hasattr(pisim, name)
    defined = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
    ]
    assert defined == []


def test_public_names_are_sorted_and_unique():
    assert pisim.__all__ == sorted(set(pisim.__all__))


def test_public_names_hold_no_submodule_and_no_private_name():
    hidden = [
        name
        for name in pisim.__all__
        if name.startswith("_") or inspect.ismodule(getattr(pisim, name, None))
    ]
    assert hidden == []


@pytest.mark.parametrize("module,name", _traced_functions())
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"pisim.{module}"), name, None))


def _read_outside_traced() -> dict[str, object]:
    cfg = interferometer.SchemeConfig(3, 1)
    state = interferometer.run_scheme(cfg)
    return {
        "SchemeConfig": cfg,
        "PureState": state,
        "DetectionOutcome": next(iter(interferometer.detection_table(state)[0])),
        "DensityMatrix": interferometer.conditional_detected_state(state),
    }


@pytest.mark.parametrize(
    "owner, name",
    [
        ("PureState", "term_count"),  # perfbench/ladder.py:81 and spans.py:97
        ("PureState", "particle_count"),  # perfbench/ladder.py:83
        ("PureState", "particle_labels"),  # perfbench/ladder.py:83
        ("DetectionOutcome", "ports"),  # perfbench/ladder.py:110
        ("SchemeConfig", "n_detected"),  # perfbench/spans.py:98 and workload.py:238
        ("DensityMatrix", "dim"),  # perfbench/spans.py:102
        ("SchemeConfig", "xi"),  # perfbench/workload.py:238
    ],
    ids=lambda value: value,
)
def test_name_the_benchmark_reads_outside_traced_exists(owner, name):
    value = _read_outside_traced()[owner]
    assert type(value).__name__ == owner and hasattr(value, name)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_private_name_crosses_a_module_boundary(path):
    imported = [
        f"{'.' * node.level}{node.module or ''}.{alias.name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert imported == []
