"""Tests for scenario parsing and the command-line front end."""

from __future__ import annotations

import cmath
import contextlib
import errno
import io
import itertools
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import pisim
from pisim import (
    DensityMatrix,
    EntangledClass,
    EntangledClassId,
    NormalizationError,
    ScenarioParseError,
    SchemeConfig,
    ValidationError,
    VisibilityUndefinedError,
    bell_phi_minus,
    bell_psi_plus,
    detector,
    detector_outcome,
    entangled_class_state,
    ghz_class_three,
    outcome_probabilities,
    primed_detector,
    interferometer,
    run_scheme,
)
from pisim.cli import (
    COMMANDS,
    DEFAULT_ENTANGLE_GRID,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    HELP,
    MAX_ENTANGLE_GRID,
    MAX_ORACLE_RUNS,
    MAX_SWEEP_CELLS,
    MAX_SWEEP_STEPS,
    USAGE,
    OracleSpec,
    SweepSpec,
    _fmt,
    execute,
    main,
    parse_scenario,
)
from pisim.interferometer import MAX_PARTICLES, detected_state
from pisim.states import port_bitstrings
from conftest import attenuated_coincidence

CASE_I_RUN = """
# minimal two-detected configuration
command = run
scheme.n = 3
scheme.m = 1
"""

#: The same scheme as an ``entangle`` document, the one command that reads ``target``.
CASE_I_ENTANGLE = CASE_I_RUN.replace("command = run", "command = entangle")

CASE_I_SWEEP = """
command = sweep
scheme.n = 3
scheme.m = 1
scheme.phi0 = 0.6
sweep.variable = theta.3
sweep.steps = 64
output = sweep.csv
"""

GOLDEN = Path(__file__).parent / "data"
GOLDENS = sorted(GOLDEN.glob("*.scenario"))
#: The golden scenario of each command that has one.
_SCENARIO_COPIES = {"run": "run_lossy", "sweep": "sweep_lossy", "entangle": "entangle_psi_plus"}
#: An ``oracle-check`` of one scheme run.
ONE_ORACLE_RUN = (
    "command = oracle-check\noracle.cases = 1\noracle.max_detected = 1\noracle.max_aligned = 0\n"
)


@pytest.fixture(autouse=True)
def closes_every_descriptor():
    """Each test leaves no file descriptor open that it opened: ``_write_lines`` writes through
    a bare descriptor, which no ResourceWarning reports.  Checked where /proc/self/fd lists them."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = set(os.listdir("/proc/self/fd"))
    yield
    assert sorted(set(os.listdir("/proc/self/fd")) - before, key=int) == []


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestParseScenario:
    def test_minimal_document(self):
        scenario = parse_scenario(CASE_I_RUN)
        assert scenario.command == "run"
        assert scenario.scheme.n_particles == 3
        assert scenario.scheme.phi == (0.0, 0.0)
        assert scenario.scheme.transmission == (1.0,)
        assert scenario.output_path is None

    def test_transmission_bound_names_key_and_line(self):
        text = "command = run\nscheme.n = 3\nscheme.m = 1\nscheme.transmission.3 = 1.2\n"
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(text)
        assert info.value.key == "scheme.transmission.3"
        assert info.value.line == 4
        assert "line 4" in str(info.value)

    @pytest.mark.parametrize(
        "line, key",
        [
            ("scheme.phi.1 = inf", "scheme.phi.1"),
            ("scheme.phi0 = nan", "scheme.phi0"),
            ("scheme.theta.3 = -inf", "scheme.theta.3"),
            ("scheme.transmission.3 = nan", "scheme.transmission.3"),
        ],
    )
    def test_scheme_value_error_names_its_own_key_and_line(self, line, key):
        text = "command = run\nscheme.n = 3\nscheme.m = 1\n# comment\n" + line + "\n"
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(text)
        assert info.value.key == key
        assert info.value.line == 5
        assert f"line 5, key '{key}'" in str(info.value)

    def test_first_bad_scheme_value_in_field_order_is_reported(self):
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(CASE_I_RUN + "scheme.phi0 = abc\nscheme.phi.1 = nan\n")
        message = "phi0 must be a finite number, got 'abc'"
        assert str(info.value) == f"line 6, key 'scheme.phi0': {message}"

    @pytest.mark.parametrize(
        "key, value", [("sweep.start", "-inf"), ("sweep.stop", "inf"), ("sweep.start", "nan")]
    )
    def test_non_finite_sweep_bounds_rejected(self, key, value):
        text = CASE_I_SWEEP + f"{key} = {value}\n"
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(text)
        assert info.value.key == key
        assert info.value.line == len(CASE_I_SWEEP.splitlines()) + 1

    @pytest.mark.parametrize(
        "key, value, got",
        [
            *((key, value, got) for key in ("sweep.start", "sweep.stop")
              for value, got in (("abc", "'abc'"), ("nan", "nan"), ("-inf", "-inf"))),
            ("entangle.grid", "0.5,x", "'x'"), ("entangle.grid", "0.5,", "''"),
            ("entangle.grid", "1e400", "inf"),
        ],
    )  # fmt: skip
    def test_real_that_is_no_finite_number_names_key_and_line(self, key, value, got):
        document = CASE_I_ENTANGLE if key == "entangle.grid" else CASE_I_SWEEP
        line = len(document.splitlines()) + 1
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(document + f"{key} = {value}\n")
        assert (info.value.key, info.value.line) == (key, line)
        message = f"{key} must be a finite number, got {got}"
        assert str(info.value) == f"line {line}, key '{key}': {message}"

    def test_overflowing_sweep_range_rejected(self):
        text = CASE_I_SWEEP + "sweep.start = -1e308\nsweep.stop = 1e308\n"
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(text)
        assert info.value.key == "sweep.stop"
        assert info.value.line == len(CASE_I_SWEEP.splitlines()) + 2

    @pytest.mark.parametrize("grid", ["entangle.grid = 1,0.5\n", ""])
    def test_entangle_below_full_transmission_has_no_term_bound(self, grid):
        # the detected state comes from (n, T, xi), never from a scheme run of 2^13 terms;
        # the default grid has t < 1
        text = "command = entangle\nscheme.n = 13\nscheme.m = 10\n" + grid
        expected = (1.0, 0.5) if grid else DEFAULT_ENTANGLE_GRID
        assert parse_scenario(text).entangle_grid == expected

    def test_entangle_at_full_transmission_skips_density_cap(self):
        text = "command = entangle\nscheme.n = 13\nscheme.m = 10\nentangle.grid = 1\n"
        assert parse_scenario(text).entangle_grid == (1.0,)
        text = "command = entangle\nscheme.n = 12\nscheme.m = 10\nentangle.grid = 0.5\n"
        assert parse_scenario(text).entangle_grid == (0.5,)

    def test_entangle_grid_length_bound(self):
        text = "command = entangle\nscheme.n = 12\nscheme.m = 10\n# grid\nentangle.grid = "
        grid = [str(k / MAX_ENTANGLE_GRID) for k in range(MAX_ENTANGLE_GRID)]
        assert len(parse_scenario(text + ",".join(grid) + "\n").entangle_grid) == MAX_ENTANGLE_GRID
        with pytest.raises(ScenarioParseError, match=f"more than {MAX_ENTANGLE_GRID}") as info:
            parse_scenario(text + ",".join(["0.5"] * 100000) + "\n")
        assert (info.value.key, info.value.line) == ("entangle.grid", 5)

    @pytest.mark.parametrize("points", [MAX_ENTANGLE_GRID + 1, 1_000_000])
    def test_grid_past_the_bound_is_rejected_before_any_part_is_read(self, monkeypatch, points):
        calls, unit_interval = [], pisim.cli.unit_interval

        def counted(*args):
            calls.append(args)
            return unit_interval(*args)

        # a bad part and a bad target too: the grid's length is reported before either
        text = "command = entangle\nscheme.n = 3\nscheme.m = 1\ntarget = F5\nentangle.grid = "
        monkeypatch.setattr(pisim.cli, "unit_interval", counted)
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(text + ",".join(["x"] + ["0.5"] * (points - 1)) + "\n")
        assert str(info.value) == (
            f"line 5, key 'entangle.grid': more than {MAX_ENTANGLE_GRID} grid points"
        )
        assert calls == []
        parse_scenario(text.replace("F5", "Psi+") + ",".join(["0.5"] * MAX_ENTANGLE_GRID) + "\n")
        assert len(calls) == MAX_ENTANGLE_GRID

    @pytest.mark.parametrize("cases, runs", [(69, 4968), (100000, 7200000)])
    def test_oracle_run_bound(self, cases, runs):
        text = (
            "command = oracle-check\noracle.max_detected = 8\n"
            f"oracle.max_aligned = 8\noracle.cases = {cases}\n"
        )
        if runs <= MAX_ORACLE_RUNS:
            assert parse_scenario(text).oracle.cases == cases
            return
        with pytest.raises(ScenarioParseError, match=f"{runs} scheme runs exceed") as info:
            parse_scenario(text)
        assert (info.value.key, info.value.line) == ("oracle.cases", 4)

    def test_oracle_defaults_within_run_bound(self):
        spec = parse_scenario("command = oracle-check\n").oracle
        assert spec.cases * spec.max_detected * (spec.max_aligned + 1) <= MAX_ORACLE_RUNS

    def test_omitted_settings_take_the_documented_defaults(self):
        text = "command = sweep\nscheme.n = 3\nscheme.m = 1\nsweep.variable = phi0\n"
        assert parse_scenario(text).sweep == SweepSpec("phi0", 0.0, math.tau, 64)
        assert parse_scenario("command = oracle-check\n").oracle == OracleSpec(100, 5, 3)
        entangle = parse_scenario("command = entangle\nscheme.n = 3\nscheme.m = 1\n")
        assert entangle.entangle_grid == DEFAULT_ENTANGLE_GRID == tuple(k / 10 for k in range(11))

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(CASE_I_RUN + "scheme.sigma = 1\n")
        assert info.value.key == "scheme.sigma"
        with pytest.raises(ScenarioParseError, match="unknown key"):
            parse_scenario(CASE_I_RUN + "detectors = 4\n")

    def test_missing_command_rejected(self):
        with pytest.raises(ScenarioParseError, match="command"):
            parse_scenario("scheme.n = 3\nscheme.m = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ScenarioParseError, match="duplicate"):
            parse_scenario(CASE_I_RUN + "scheme.n = 4\n")

    def test_type_mismatch_names_key(self):
        with pytest.raises(ScenarioParseError, match="integer"):
            parse_scenario("command = run\nscheme.n = three\nscheme.m = 1\n")

    def test_sweep_settings_need_sweep_command(self):
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(CASE_I_RUN + "sweep.steps = 64\n")
        assert str(info.value) == "line 6, key 'sweep.steps': unknown key"

    def test_sweep_steps_minimum(self):
        text = CASE_I_SWEEP.replace("sweep.steps = 64", "sweep.steps = 4")
        with pytest.raises(ScenarioParseError, match="steps"):
            parse_scenario(text)

    def test_sweep_steps_maximum(self):
        text = CASE_I_SWEEP.replace("sweep.steps = 64", f"sweep.steps = {MAX_SWEEP_STEPS}")
        assert parse_scenario(text).sweep.steps == MAX_SWEEP_STEPS
        text = CASE_I_SWEEP.replace("sweep.steps = 64", f"sweep.steps = {MAX_SWEEP_STEPS + 1}")
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(text)
        assert info.value.key == "sweep.steps"
        assert info.value.line == CASE_I_SWEEP.splitlines().index("sweep.steps = 64") + 1

    @pytest.mark.parametrize(
        "m, transmission, steps",
        [
            (8, 0.5, 16), (8, 1.0, 4096), (7, 1.0, 2048), (15, 1.0, 4096),
            (8, 0.5, 17), (8, 0.5, 4096), (15, 0.999, 32), (1, 0.5, 32),
        ],
    )  # fmt: skip
    def test_sweep_term_bound_accepts(self, m, transmission, steps):
        text = self._large_sweep(m, transmission, steps)
        assert parse_scenario(text).sweep.steps == steps

    @pytest.mark.parametrize(
        "m, transmission, steps",
        [(7, 1.0, 2049), (7, 0.5, 2049), (1, 1.0, 33), (1, 0.5, 33)],
    )
    def test_sweep_term_bound_rejects(self, m, transmission, steps):
        text = self._large_sweep(m, transmission, steps)
        with pytest.raises(ScenarioParseError, match=f"limit of {MAX_SWEEP_CELLS}") as info:
            parse_scenario(text)
        assert info.value.key == "sweep.steps"
        assert info.value.line == text.splitlines().index(f"sweep.steps = {steps}") + 1

    def test_sweep_cell_bound_with_every_particle_detected(self):
        text = "command = sweep\nscheme.n = 16\nscheme.m = 0\nsweep.variable = phi0\n"
        assert parse_scenario(text + "sweep.steps = 16\n").sweep.steps == 16
        with pytest.raises(ScenarioParseError, match=f"limit of {MAX_SWEEP_CELLS}") as info:
            parse_scenario(text + "sweep.steps = 17\n")
        assert (info.value.key, info.value.line) == ("sweep.steps", 5)

    @staticmethod
    def _large_sweep(m, transmission, steps):
        """A sweep at N = 16 whose last aligned particle has ``transmission``:
        2^(16-m) probability cells per step, whatever the transmission."""
        return (
            f"command = sweep\nscheme.n = 16\nscheme.m = {m}\n"
            f"scheme.transmission.16 = {transmission}\n"
            f"sweep.variable = phi0\nsweep.steps = {steps}\n"
        )

    def test_sweep_variable_must_exist(self):
        text = CASE_I_SWEEP.replace("theta.3", "theta.2")
        with pytest.raises(ScenarioParseError, match="variable"):
            parse_scenario(text)

    def test_target_dimension_checked(self):
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(CASE_I_ENTANGLE + "target = GHZ3\n")
        message = "target GHZ3 needs three detected particles, scheme has 2"
        assert str(info.value) == f"line 6, key 'target': {message}"

    def test_fully_aligned_scheme_rejected(self):
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario("command = run\nscheme.n = 2\nscheme.m = 2\n")
        message = "a scheme needs a detected particle (n_aligned < n_particles)"
        assert str(info.value) == f"line 3, key 'scheme.m': {message}"

    def test_case_ii_document(self):
        text = (
            "command = sweep\nscheme.n = 4\nscheme.m = 2\n"
            "scheme.theta.3 = 0.3\nscheme.theta.4 = 0.4\n"
            "sweep.variable = theta.4\n"
        )
        scenario = parse_scenario(text)
        assert scenario.scheme.theta == (0.3, 0.4)
        assert scenario.sweep.steps == 64


#: Every target name, in the order the "unknown target" message lists them.
TARGETS = ("Psi+", "Phi-", "GHZ3", "F1", "F2", "F3", "F4")


class TestRequiredKeysAndBounds:
    """The keys a document must give, the scheme's size bounds and each target's
    detected-particle count, each reported under its key."""

    @pytest.mark.parametrize(
        "text, key, line, reason",
        [
            ("scheme.n = 3\nscheme.m = 1\n", "command", None, "missing key"),
            ("command = run\nscheme.m = 1\n", "scheme.n", None, "missing key"),
            ("command = entangle\nscheme.n = 3\n", "scheme.m", None, "missing key"),
            ("command = sweep\nscheme.m = 1\nscheme.n = 3\nsweep.steps = 8\n", "sweep.variable",
             None, "missing key"),
            # oracle-check reads no scheme, so it asks for no scheme.n either
            ("command = oracle-check\nscheme.m = 1\n", "scheme.m", 2, "unknown key"),
            ("command = run\n", "scheme.n", None, "missing key"),
            # named before scheme.m is read
            ("command = run\nscheme.m = x\n", "scheme.n", None, "missing key"),
        ],
        ids=[
            "command", "scheme.n", "scheme.m", "sweep.variable", "oracle-scheme.n", "no-scheme",
            "before-a-bad-scheme.m",
        ],
    )  # fmt: skip
    def test_missing_key_is_named(self, text, key, line, reason):
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(text)
        assert (info.value.key, info.value.line) == (key, line)
        where = f"line {line}, " if line else ""
        assert str(info.value) == f"{where}key '{key}': {reason}"

    @pytest.mark.parametrize(
        "text, key, line, message",
        [
            (
                "command = oracle-check\noracle.max_detected = 8\noracle.max_aligned = 8\n",
                "oracle.max_detected", 2, "7200 scheme runs exceed 5000",
            ),
            (
                "command = sweep\nscheme.n = 3\nscheme.m = 1\nsweep.variable = phi0\n"
                "sweep.start = 7\n",
                "sweep.start", 5, "sweep.stop must exceed sweep.start",
            ),
            (
                "command = sweep\nscheme.n = 16\nscheme.m = 0\nsweep.variable = phi0\n",
                "scheme.n", 2,
                "64 steps of 2^16 outcomes each exceed the limit of 1048576 cells per sweep",
            ),
        ],
        ids=["oracle-runs", "sweep-start", "sweep-cells"],
    )  # fmt: skip
    def test_bound_broken_by_a_default_names_a_given_line(self, text, key, line, message):
        # the defaulted key (oracle.cases, sweep.stop, sweep.steps) has no line to name
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(text)
        assert str(info.value) == f"line {line}, key '{key}': {message}"

    @pytest.mark.parametrize(
        "n, m, key, line, message",
        [
            (0, 0, "scheme.n", 3, "scheme.n must lie in [1, 16]"),
            (17, 1, "scheme.n", 3, "scheme.n must lie in [1, 16]"),
            (3, -1, "scheme.m", 4, "scheme.m must lie in [0, 2]"),
            (3, 4, "scheme.m", 4, "scheme.m must lie in [0, 2]"),
            (3, 3, "scheme.m", 4, "a scheme needs a detected particle (n_aligned < n_particles)"),
            (1, 2, "scheme.m", 4, "scheme.m must lie in [0, 0]"),
            (1, 1, "scheme.m", 4, "a scheme needs a detected particle (n_aligned < n_particles)"),
        ],
    )
    def test_scheme_size_bounds_name_key_and_line(self, n, m, key, line, message):
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(f"command = run\n# size\nscheme.n = {n}\nscheme.m = {m}\n")
        assert str(info.value) == f"line {line}, key '{key}': {message}"

    @pytest.mark.parametrize(
        "key, value, bounds",
        [
            ("scheme.n", 0, "[1, 16]"), ("scheme.n", 17, "[1, 16]"),
            ("scheme.m", -1, "[0, 2]"), ("scheme.m", 4, "[0, 2]"),
            ("sweep.steps", 7, "[8, 4096]"), ("sweep.steps", 4097, "[8, 4096]"),
            ("oracle.cases", 0, "[1, 100000]"), ("oracle.cases", 100001, "[1, 100000]"),
            ("oracle.max_detected", 0, "[1, 8]"), ("oracle.max_detected", 9, "[1, 8]"),
            ("oracle.max_aligned", -1, "[0, 8]"), ("oracle.max_aligned", 9, "[0, 8]"),
        ],
    )  # fmt: skip
    def test_integer_one_step_past_each_bound_names_key_and_line(self, key, value, bounds):
        command, given = {
            "scheme": ("run", {"scheme.n": 3, "scheme.m": 1}),
            "sweep": ("sweep", {"scheme.n": 3, "scheme.m": 1, "sweep.variable": "phi0"}),
            "oracle": ("oracle-check", {}),
        }[key.partition(".")[0]]
        lines = [f"{k} = {v}" for k, v in {**given, key: value}.items()]
        line = lines.index(f"{key} = {value}") + 3
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario("\n".join([f"command = {command}", "# bounds", *lines]) + "\n")
        assert (info.value.key, info.value.line) == (key, line)
        assert str(info.value) == f"line {line}, key '{key}': {key} must lie in {bounds}"

    @pytest.mark.parametrize("detected", range(1, 6))
    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("command", ["run", "entangle"])
    def test_target_at_each_detected_count(self, command, target, detected):
        text = f"command = {command}\nscheme.n = {detected + 1}\nscheme.m = 1\ntarget = {target}\n"
        needs = {"Psi+": "two", "Phi-": "two", "GHZ3": "three"}.get(target)
        if command == "run":  # only entangle reads a target
            message = "line 4, key 'target': unknown key"
        elif needs and detected != ("two", "three").index(needs) + 2:
            message = f"line 4, key 'target': target {target} needs {needs} detected particles"
            message += f", scheme has {detected}"
        elif target in ("F1", "F2") and detected % 2:
            message = f"line 4, key 'target': {target} requires even n >= 2, got n={detected}"
        elif target in ("F3", "F4") and not detected % 2:
            message = f"line 4, key 'target': {target} requires odd n >= 1, got n={detected}"
        elif command == "entangle" and detected not in (2, 3):
            message = "line 2, key 'scheme.n': entangle supports two or three detected particles"
        else:
            assert parse_scenario(text).target == target
            return
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(text)
        assert str(info.value) == message

    def test_unknown_target_lists_every_name(self):
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(CASE_I_ENTANGLE + "target = F5\n")
        expected = f"unknown target 'F5' (expected one of {', '.join(TARGETS)})"
        assert str(info.value) == f"line 6, key 'target': {expected}"

    @pytest.mark.parametrize("target", TARGETS)
    def test_target_without_a_scheme_is_only_named(self, target):
        # oracle-check reads no target: named as an unknown key, whatever the name
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(f"command = oracle-check\ntarget = {target}\n")
        assert str(info.value) == "line 2, key 'target': unknown key"

    @pytest.mark.parametrize(
        "command, text, key, line",
        [
            ("run", "scheme.n = 4\nscheme.m = 1\ntarget = GHZ3\n", "target", 5),
            ("sweep", "scheme.n = 3\nscheme.m = 1\nsweep.variable = phi0\ntarget = Psi+\n",
             "target", 6),
            ("oracle-check", "scheme.n = 2\nscheme.m = 2\n", "scheme.n", 3),
            ("oracle-check", "oracle.cases = 2\ntarget = F1\n", "target", 4),
            ("entangle", "scheme.n = 3\nscheme.m = 1\nsweep.variable = phi0\n", "sweep.variable",
             5),
            ("run", "scheme.n = 3\nscheme.m = 1\nscheme.phi.3 = 0.5\n", "scheme.phi.3", 5),
            ("run", "scheme.n = 3\nscheme.m = 1\nscheme.theta.1 = 0.5\nbogus = 1\n",
             "scheme.theta.1", 5),
            ("run", "scheme.n = 3\nscheme.m = 1\nentangle.grid = 0.5\n", "entangle.grid", 5),
            ("sweep", "scheme.n = 3\nscheme.m = 1\nsweep.variable = phi0\nentangle.grid = 0.5\n",
             "entangle.grid", 6),
            ("oracle-check", "entangle.grid = 0.5\n", "entangle.grid", 3),
            ("run", "scheme.n = 3\nscheme.m = 1\noracle.cases = 2\n", "oracle.cases", 5),
            ("sweep", "scheme.n = 3\nscheme.m = 1\nsweep.variable = phi0\noracle.cases = 2\n",
             "oracle.cases", 6),
            ("entangle", "scheme.n = 3\nscheme.m = 1\noracle.cases = 2\n", "oracle.cases", 5),
            ("entangle", "scheme.n = 3\nscheme.m = 1\nsweep.start = 0\n", "sweep.start", 5),
        ],
        ids=["run-target", "sweep-target", "oracle-scheme", "oracle-target", "entangle-sweep",
             "phi-of-an-aligned-particle", "theta-of-a-detected-particle", "run-grid",
             "sweep-grid", "oracle-grid", "run-oracle", "sweep-oracle", "entangle-oracle",
             "entangle-sweep-start"],
    )  # fmt: skip
    def test_key_the_command_does_not_read_is_unknown(self, tmp_path, command, text, key, line):
        scenario, out = tmp_path / "doc.scenario", tmp_path / "doc.csv"
        scenario.write_text(f"command = {command}\n# a key this command does not read\n" + text)
        capture = io.StringIO()
        with contextlib.redirect_stderr(capture):
            code = main([command, "--scenario", str(scenario), "--out", str(out)])
        assert code == EXIT_INVALID
        message = f"line {line}, key '{key}': unknown key"
        assert capture.getvalue() == f"pisim: scenario error: {message}\n"
        assert not out.exists()

    def test_no_detected_particle_is_reported_before_the_phases(self):
        text = "command = run\nscheme.n = 2\nscheme.m = 2\nscheme.theta.1 = inf\n"
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(text)
        message = "a scheme needs a detected particle (n_aligned < n_particles)"
        assert str(info.value) == f"line 3, key 'scheme.m': {message}"


class TestRunCommand:
    def test_writes_probability_table(self, tmp_path):
        out = tmp_path / "run.csv"
        scenario = parse_scenario(CASE_I_RUN)
        assert execute(scenario, out_path=str(out)) == EXIT_OK
        header, rows = read_rows(out)
        assert header == ["outcome", "probability"]
        values = {row[0]: float(row[1]) for row in rows}
        assert values["01"] == pytest.approx(0.5, abs=1e-12)
        assert values["00"] == pytest.approx(0.0, abs=1e-12)
        assert values["loss"] == pytest.approx(0.0, abs=1e-12)
        assert sum(values.values()) == pytest.approx(1.0, abs=1e-9)


class TestLargestRun:
    def test_largest_accepted_run_matches_closed_form(self, tmp_path):
        # N = 16 is the parser's limit; every particle carries two labels below
        # t = 1, so the scheme stores all 2^16 terms
        trans = (0.9, 0.8, 0.7, 0.95, 0.6, 0.85, 0.75, 0.5)
        lines = ["command = run", "scheme.n = 16", "scheme.m = 8", "scheme.phi0 = 0.7",
                 "scheme.phi.3 = 1.9", "scheme.theta.12 = -0.4"]
        lines += [f"scheme.transmission.{l} = {t}" for l, t in zip(range(9, 17), trans)]
        scenario, out = tmp_path / "large.scenario", tmp_path / "large.csv"
        scenario.write_text("\n".join(lines) + "\n")
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
        header, rows = read_rows(out)
        assert header == ["outcome", "probability"]
        total_t, xi = math.prod(trans), 0.7 + 1.9 + 0.4
        assert [row[0] for row in rows[:-1]] == [format(k, "08b") for k in range(256)]
        for bits, value in rows[:-1]:
            expected = attenuated_coincidence(8, bits.count("1"), total_t, xi)
            assert abs(float(value) - expected) <= 1e-12, bits
        assert rows[-1][0] == "loss"
        assert abs(float(rows[-1][1]) - (1 - total_t**2) / 2) <= 1e-12

    def test_run_with_every_particle_detected(self, tmp_path):
        # 2^16 outcome rows, the most a run writes
        scenario, out = tmp_path / "wide.scenario", tmp_path / "wide.csv"
        scenario.write_text("command = run\nscheme.n = 16\nscheme.m = 0\nscheme.phi0 = 0.7\n")
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
        header, rows = read_rows(out)
        assert len(rows) == 2**16 + 1
        assert [row[0] for row in rows[:-1]] == [format(k, "016b") for k in range(2**16)]
        for bits, value in rows[:-1]:
            expected = attenuated_coincidence(16, bits.count("1"), 1.0, 0.7)
            assert abs(float(value) - expected) <= 1e-12, bits
        assert rows[-1] == ["loss", "0"]

    def test_sweep_at_the_cell_bound(self, tmp_path):
        # 16 steps of 2^16 outcomes: MAX_SWEEP_CELLS probability cells
        text = "command = sweep\nscheme.n = 16\nscheme.m = 0\nsweep.variable = phi.3\n"
        scenario, out = tmp_path / "bound.scenario", tmp_path / "bound.csv"
        scenario.write_text(text + "sweep.steps = 16\n")
        assert main(["sweep", "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
        header, rows = read_rows(out)
        assert len(rows) * (len(header) - 2) == MAX_SWEEP_CELLS
        assert header[1] == "P_" + "0" * 16 and header[-2] == "P_" + "1" * 16
        ports = [column.count("1") for column in header[1:-1]]
        for k, row in enumerate(rows):
            xi = k * (math.tau / 16)  # phi.3 is the interference phase here
            assert row[0] == format(xi, ".12g")
            expected = {r: attenuated_coincidence(16, r, 1.0, xi) for r in set(ports)}
            assert all(abs(float(v) - expected[r]) <= 1e-12 for v, r in zip(row[1:-1], ports))
            assert row[-1] == "0"


class TestLargestEntangle:
    # The detected state is built from (n, T, xi), so N = 16 runs at any grid point.
    PHASES = {"phi0": 0.4, "phi.1": -1.3, "phi.2": 2.2}

    @pytest.mark.parametrize(
        "n, m, grid, target, state",
        [
            (12, 10, (0.9, 1.0), "Psi+", bell_psi_plus()),
            (12, 9, (1.0, 0.9), "GHZ3", ghz_class_three()),
            (16, 14, (1.0,), "Phi-", bell_phi_minus()),
            (16, 13, (1.0,), "F3", entangled_class_state(EntangledClass(EntangledClassId.F3, 3))),
            (16, 14, (0.9, 1.0), "Psi+", bell_psi_plus()),
            (16, 13, (1.0, 0.5), "GHZ3", ghz_class_three()),
        ],
        ids=["12-10", "12-9", "16-14", "16-13", "16-14-lossy", "16-13-lossy"],
    )
    def test_rows_match_closed_forms(self, tmp_path, n, m, grid, target, state):
        lines = [f"command = entangle\nscheme.n = {n}\nscheme.m = {m}\ntarget = {target}"]
        lines += [f"scheme.{key} = {value}" for key, value in self.PHASES.items()]
        lines += [f"scheme.theta.{n} = 0.8", "entangle.grid = " + ",".join(map(str, grid))]
        scenario, out = tmp_path / "large.scenario", tmp_path / "large.csv"
        scenario.write_text("\n".join(lines) + "\n")
        assert main(["entangle", "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
        header, rows = read_rows(out)
        assert header == ["transmission", "visibility", "concurrence", "fidelity", "three_tangle"]
        assert [float(row[0]) for row in rows] == list(grid)
        detected = n - m
        xi = sum(self.PHASES.values()) - 0.8
        for (_, vis, conc, fid, tangle), t in zip(rows, grid):
            total_t = t**m
            assert abs(float(vis) - total_t) <= 1e-9
            if detected == 2:
                assert abs(float(conc) - total_t) <= 1e-11
            else:
                assert conc == "0"  # every pair of three detected particles is separable
            # rho = |A><A| + w |U><U|: A(x) = (T i^r + e^(i xi) i^(n-r)) / 2^((n+1)/2),
            # U(x) = i^r / 2^(n/2) at r primed ports, w = (1 - T^2) / 2
            overlap_a = overlap_u = 0j
            for x in range(2**detected):
                ports = tuple(int(bit) for bit in format(x, f"0{detected}b"))
                amplitude = state.amplitude(detector_outcome(ports)).conjugate()
                r = sum(ports)
                overlap_a += amplitude * (total_t * 1j**r + cmath.exp(1j * xi) * 1j ** (detected - r))
                overlap_u += amplitude * 1j**r
            expected = (
                abs(overlap_a) ** 2 / 2 ** (detected + 1)
                + (1 - total_t**2) / 2 * abs(overlap_u) ** 2 / 2**detected
            )
            assert abs(float(fid) - expected) <= 1e-9
            if detected == 3 and t == 1.0:
                assert abs(float(tangle) - 1.0) <= 1e-9
            else:
                assert tangle == ""


class TestPhasesNearTheFloatLimit:
    # phi0 + phi.1 overflows a float although each phase is finite and accepted
    SCHEME = (
        "scheme.n = 3\nscheme.m = 1\nscheme.phi0 = 1e308\nscheme.phi.1 = 1.7e308\n"
        "scheme.phi.2 = -0.3\nscheme.transmission.3 = 0.8\n"
    )

    def cfg(self, **phases):
        values = {"phi0": 1e308, "phi": (1.7e308, -0.3), "transmission": (0.8,)} | phases
        return SchemeConfig(3, 1, **values)

    def test_run_matches_the_engine(self, tmp_path):
        scenario, out = tmp_path / "huge.scenario", tmp_path / "huge.csv"
        scenario.write_text("command = run\n" + self.SCHEME)
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out)
        probs = outcome_probabilities(run_scheme(self.cfg()))
        expected = probs.loss_free[0].tolist() + [probs.lost]
        assert [row[0] for row in rows] == ["00", "01", "10", "11", "loss"]
        assert all(abs(float(row[1]) - p) <= 1e-12 for row, p in zip(rows, expected))

    def test_sweep_matches_the_engine(self, tmp_path):
        scenario, out = tmp_path / "huge.scenario", tmp_path / "huge.csv"
        scenario.write_text("command = sweep\nsweep.variable = phi.2\n" + self.SCHEME)
        assert main(["sweep", "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out)
        assert len(rows) == 64
        for k, row in enumerate(rows):
            cfg = self.cfg(phi=(1.7e308, k * (math.tau / 64)))
            probs = outcome_probabilities(run_scheme(cfg))
            expected = probs.loss_free[0].tolist() + [probs.lost]
            assert all(abs(float(v) - p) <= 1e-12 for v, p in zip(row[1:], expected))

    def test_entangle_pattern_keeps_its_visibility(self, tmp_path):
        scenario, out = tmp_path / "huge.scenario", tmp_path / "huge.csv"
        scheme = self.SCHEME.replace("scheme.transmission.3 = 0.8\n", "")  # the grid sets it
        scenario.write_text("command = entangle\nentangle.grid = 0.5,1\n" + scheme)
        assert main(["entangle", "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out)
        assert [float(row[1]) for row in rows] == pytest.approx([0.5, 1.0], abs=1e-9)

    def test_phase_dropped_from_the_sum_still_turns_the_pattern(self, tmp_path):
        # -1.7e308 + 2.5 rounds to -1.7e308: the 2.5 is all in the remainder of the sum
        scenario, out = tmp_path / "lost.scenario", tmp_path / "lost.csv"
        scenario.write_text(
            "command = entangle\nscheme.n = 3\nscheme.m = 1\nscheme.phi.1 = -1.7e308\n"
            "scheme.phi.2 = 2.5\nentangle.grid = 0.5,1\n"
        )
        assert main(["entangle", "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
        _, rows = read_rows(out)
        assert [float(row[1]) for row in rows] == pytest.approx([0.5, 1.0], abs=1e-9)


class TestSweepCommand:
    def test_maxima_track_the_phase_sum(self, tmp_path):
        out = tmp_path / "sweep.csv"
        scenario = parse_scenario(CASE_I_SWEEP)
        assert execute(scenario, out_path=str(out)) == EXIT_OK
        header, rows = read_rows(out)
        assert header == ["phase", "P_00", "P_01", "P_10", "P_11", "P_loss"]
        assert len(rows) == 64
        phases = np.array([float(r[0]) for r in rows])
        p01 = np.array([float(r[2]) for r in rows])
        # crossed-coincidence maximum sits where theta3 equals the phase sum
        assert phases[int(p01.argmax())] == pytest.approx(0.6, abs=math.tau / 64)
        sums = np.array([sum(float(x) for x in row[1:]) for row in rows])
        assert np.abs(sums - 1.0).max() <= 1e-9

    def test_attenuated_sweep_reports_loss(self, tmp_path):
        out = tmp_path / "sweep.csv"
        text = CASE_I_SWEEP + "scheme.transmission.3 = 0.6\n"
        assert execute(parse_scenario(text), out_path=str(out)) == EXIT_OK
        _, rows = read_rows(out)
        loss_column = {float(row[-1]) for row in rows}
        assert all(v == pytest.approx(0.32, abs=1e-12) for v in loss_column)

    def test_case_ii_sum_dependence(self, tmp_path):
        out = tmp_path / "sweep.csv"
        text = (
            "command = sweep\nscheme.n = 4\nscheme.m = 2\n"
            "scheme.theta.3 = 0.3\nscheme.theta.4 = 0.4\n"
            "sweep.variable = theta.4\nsweep.steps = 32\n"
        )
        assert execute(parse_scenario(text), out_path=str(out)) == EXIT_OK
        _, rows = read_rows(out)
        for row in rows:
            theta4 = float(row[0])
            expected = (1 - math.cos(-0.3 - theta4)) / 4
            assert float(row[1]) == pytest.approx(expected, abs=1e-10)

    def test_byte_identical_reruns(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        scenario = parse_scenario(CASE_I_SWEEP)
        execute(scenario, out_path=str(first))
        execute(scenario, out_path=str(second))
        assert first.read_bytes() == second.read_bytes()


@st.composite
def table_documents(draw) -> str:
    """A ``run`` document with 1-10 detected particles or a ``sweep`` with 1-6, up to three
    aligned particles, any phases and transmissions including 0 and 1."""
    command = draw(st.sampled_from(["run", "sweep"]))
    n, m = draw(st.integers(1, 10 if command == "run" else 6)), draw(st.integers(0, 3))
    phases = st.floats(-7.0, 7.0)
    lines = [f"command = {command}", f"scheme.n = {n + m}", f"scheme.m = {m}"]
    lines += [f"scheme.phi0 = {draw(phases)!r}"]
    lines += [f"scheme.phi.{j} = {draw(phases)!r}" for j in range(1, n + 1)]
    lines += [f"scheme.theta.{l} = {draw(phases)!r}" for l in range(n + 1, n + m + 1)]
    lines += [f"scheme.transmission.{l} = {draw(_GRID_POINTS)!r}" for l in range(n + 1, n + m + 1)]
    if command == "sweep":
        variables = ["phi0"] + [f"phi.{j}" for j in range(1, n + 1)]
        variables += [f"theta.{l}" for l in range(n + 1, n + m + 1)]
        start = draw(phases)
        lines += [
            f"sweep.variable = {draw(st.sampled_from(variables))}",
            f"sweep.start = {start!r}",
            f"sweep.stop = {start + draw(st.floats(0.01, 7.0))!r}",
            f"sweep.steps = {draw(st.integers(8, 24))}",
        ]
    return "\n".join(lines) + "\n"


def reference_table_bytes(document: str) -> bytes:
    """The ``run`` or ``sweep`` output of ``document`` rebuilt cell by cell: the outcome
    strings from ``itertools.product``, outcome x from the column of its primed-port
    parity, and one ``_fmt`` per cell."""
    scenario = parse_scenario(document)
    scheme, spec = scenario.scheme, scenario.sweep
    n = scheme.n_detected
    bits = ["".join(b) for b in itertools.product("01", repeat=n)]
    parities = [x.bit_count() & 1 for x in range(2**n)]
    if spec is None:
        table = detected_state(scheme).table()
        row = table.loss_free[0].tolist()
        lines = ["outcome,probability"] + [f"{b},{_fmt(row[r])}" for b, r in zip(bits, parities)]
        lines.append(f"loss,{_fmt(table.lost)}")
    else:
        width = (spec.stop - spec.start) / spec.steps
        grid = [spec.start + k * width for k in range(spec.steps)]
        table = detected_state(scheme, spec.variable, grid).table()
        lines = ["phase," + ",".join("P_" + b for b in bits) + ",P_loss"]
        for phase, row in zip(grid, table.loss_free.tolist()):
            cells = [_fmt(phase)] + [_fmt(row[r]) for r in parities] + [_fmt(table.lost)]
            lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


class TestOutcomeTables:
    """``run`` and ``sweep`` write their rows from cached per-n port strings and parity
    columns; their bytes must equal rows rebuilt cell by cell, at sizes no golden covers."""

    @settings(max_examples=150, deadline=None)
    @given(document=table_documents())
    def test_rows_match_a_cell_by_cell_rebuild(self, tmp_path_factory, document):
        work = tmp_path_factory.mktemp("table")
        scenario, out = work / "table.scenario", work / "table.csv"
        scenario.write_text(document)
        command = document.split("\n", 1)[0].removeprefix("command = ")
        event(command)
        assert main([command, "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == reference_table_bytes(document)

    def test_port_bitstrings_are_one_cached_tuple_in_column_order(self):
        for k in range(1, MAX_PARTICLES + 1):
            assert port_bitstrings(k) is port_bitstrings(k)
            assert port_bitstrings(k) == tuple(map("".join, itertools.product("01", repeat=k)))


class TestEntangleCommand:
    def test_concurrence_column_tracks_transmission(self, tmp_path):
        out = tmp_path / "ent.csv"
        text = (
            "command = entangle\nscheme.n = 3\nscheme.m = 1\n"
            "target = Psi+\nentangle.grid = 0,0.4,0.8,1\n"
        )
        assert execute(parse_scenario(text), out_path=str(out)) == EXIT_OK
        header, rows = read_rows(out)
        assert header == ["transmission", "visibility", "concurrence", "fidelity", "three_tangle"]
        for row in rows:
            t = float(row[0])
            assert float(row[1]) == pytest.approx(t, abs=1e-6)
            assert float(row[2]) == pytest.approx(t, abs=1e-11)
            assert float(row[3]) == pytest.approx((1 + t) / 2, abs=1e-9)
            assert row[4] == ""  # two detected particles carry no three-tangle

    def test_three_detected_reports_tangle_when_pure(self, tmp_path):
        out = tmp_path / "ent3.csv"
        text = (
            "command = entangle\nscheme.n = 4\nscheme.m = 1\n"
            "scheme.phi0 = 1.5707963267948966\nentangle.grid = 0.5,1\n"
        )
        assert execute(parse_scenario(text), out_path=str(out)) == EXIT_OK
        _, rows = read_rows(out)
        by_t = {float(row[0]): row for row in rows}
        assert by_t[0.5][4] == ""  # mixed state, tangle undefined
        assert float(by_t[1.0][4]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "point, reason",
        [("-0.1", "must lie in [0, 1], got -0.1"), ("1.5", "must lie in [0, 1], got 1.5"),
         ("nan", "must be a finite number, got nan")],
        ids=["-0.1", "1.5", "nan"],
    )  # fmt: skip
    def test_grid_point_outside_the_unit_interval_is_rejected(
        self, tmp_path, capsys, point, reason
    ):
        scenario, out = tmp_path / "ent.scenario", tmp_path / "ent.csv"
        scenario.write_text(
            f"command = entangle\nscheme.n = 3\nscheme.m = 1\nentangle.grid = 0.5,{point}\n"
        )
        assert main(["entangle", "--scenario", str(scenario), "--out", str(out)]) == EXIT_INVALID
        assert capsys.readouterr().err == (
            f"pisim: scenario error: line 4, key 'entangle.grid': entangle.grid {reason}\n"
        )
        assert not out.exists()

    def test_entangle_needs_alignment(self):
        with pytest.raises(ScenarioParseError, match="aligned"):
            parse_scenario("command = entangle\nscheme.n = 2\nscheme.m = 0\n")

    @pytest.mark.parametrize(
        "scheme, line, key",
        [
            ("scheme.n = 3\nscheme.m = 1\nscheme.transmission.3 = 0.3\n", 4, "3"),
            ("scheme.n = 3\nscheme.m = 1\nscheme.transmission.3 = 1\n", 4, "3"),
            ("scheme.n = 4\nscheme.m = 2\nscheme.transmission.4 = 1\n"
             "scheme.transmission.3 = 0.5\n", 4, "4"),
        ],
        ids=["below-one", "at-one", "first-given"],
    )  # fmt: skip
    def test_scheme_transmission_is_rejected(self, tmp_path, scheme, line, key):
        # the grid sets every transmission, so the key would be ignored
        scenario, out = tmp_path / "ent.scenario", tmp_path / "ent.csv"
        scenario.write_text("command = entangle\n" + scheme + "entangle.grid = 1\n")
        capture = io.StringIO()
        with contextlib.redirect_stderr(capture):
            code = main(["entangle", "--scenario", str(scenario), "--out", str(out)])
        assert code == EXIT_INVALID
        assert capture.getvalue() == (
            f"pisim: scenario error: line {line}, key 'scheme.transmission.{key}': "
            "entangle takes its transmissions from entangle.grid\n"
        )
        assert not out.exists()


_ENTANGLE_TARGETS = {2: (None, "Psi+", "Phi-", "F1", "F2"), 3: (None, "GHZ3", "F3", "F4")}
_GRID_POINTS = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
_FULL_GRIDS = [DEFAULT_ENTANGLE_GRID, tuple(k / 100 for k in range(MAX_ENTANGLE_GRID))]
_REVERSED_GRID = DEFAULT_ENTANGLE_GRID[::-1]  # the golden grids, backwards


@st.composite
def entangle_documents(draw) -> str:
    """An entangle scenario with no grid: 2 or 3 detected particles and any target that fits."""
    n, m = draw(st.sampled_from([2, 3])), draw(st.integers(1, 3))
    phases = st.floats(-7.0, 7.0)
    lines = ["command = entangle", f"scheme.n = {n + m}", f"scheme.m = {m}"]
    lines += [f"scheme.phi0 = {draw(phases)!r}"]
    lines += [f"scheme.phi.{j} = {draw(phases)!r}" for j in range(1, n + 1)]
    lines += [f"scheme.theta.{l} = {draw(phases)!r}" for l in range(n + 1, n + m + 1)]
    target = draw(st.sampled_from(_ENTANGLE_TARGETS[n]))
    return "\n".join(lines + ([f"target = {target}"] if target else [])) + "\n"


@st.composite
def entangle_grids(draw) -> tuple[float, ...]:
    """Short grids with repeats, or a full one (the default or 101 points), in any order."""
    grid = draw(st.lists(_GRID_POINTS, min_size=1, max_size=6) | st.sampled_from(_FULL_GRIDS))
    repeats = draw(st.lists(st.sampled_from(grid), max_size=3))
    return tuple(draw(st.permutations((list(grid) + repeats)[-MAX_ENTANGLE_GRID:])))


class TestEntangleGridPoints:
    """The grid is evaluated in one pass (one visibility call, the pair concurrence once),
    so no grid point may see another's values."""

    @settings(max_examples=40, deadline=None)
    @given(document=entangle_documents(), grid=entangle_grids())
    @example(document=(GOLDEN / "entangle_psi_plus.scenario").read_text(), grid=_REVERSED_GRID)
    @example(document=(GOLDEN / "entangle_ghz3.scenario").read_text(), grid=_REVERSED_GRID)
    def test_each_row_is_its_point_alone(self, tmp_path_factory, document, grid):
        work = tmp_path_factory.mktemp("grid")
        scenario, out = work / "ent.scenario", work / "ent.csv"

        def rows(points) -> list[bytes]:
            values = ",".join(repr(t) for t in points)
            scenario.write_text(f"{document}entangle.grid = {values}\n")
            assert main(["entangle", "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
            return out.read_bytes().splitlines()

        together = rows(grid)
        assert len(together) == len(grid) + 1
        alone = {t: rows([t]) for t in set(grid)}
        for t, row in zip(grid, together[1:]):
            assert alone[t] == [together[0], row]


class TestNumericalFailures:
    @pytest.mark.parametrize("error", [ValidationError, NormalizationError])
    def test_numerical_errors_exit_numeric(self, tmp_path, monkeypatch, error):
        def fail(_state):
            raise error("injected failure")

        monkeypatch.setattr(interferometer.DetectedState, "density", fail)
        text = "command = entangle\nscheme.n = 3\nscheme.m = 1\nentangle.grid = 1\n"
        out = tmp_path / "ent.csv"
        assert execute(parse_scenario(text), out_path=str(out)) == EXIT_NUMERIC
        assert not out.exists()

    def test_non_finite_density_exits_numeric(self, tmp_path, monkeypatch, capsys):
        def nan_density(_state):
            basis = ((detector(1), detector(2)), (primed_detector(1), primed_detector(2)))
            return DensityMatrix((1, 2), basis, np.full((2, 2), math.nan))

        monkeypatch.setattr(interferometer.DetectedState, "density", nan_density)
        text = "command = entangle\nscheme.n = 3\nscheme.m = 1\nentangle.grid = 1\n"
        out = tmp_path / "ent.csv"
        assert execute(parse_scenario(text), out_path=str(out)) == EXIT_NUMERIC
        assert not out.exists()
        assert capsys.readouterr().err == (
            "pisim: numerical check failed: matrix has non-finite entries\n"
        )

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("run", CASE_I_RUN, "pisim: outcome probabilities do not sum to 1\n"),
            ("sweep", CASE_I_SWEEP, "pisim: probabilities at phase 0.0 do not sum to 1\n"),
        ],
    )
    def test_row_off_unity_exits_numeric(
        self, tmp_path, monkeypatch, capsys, command, text, message
    ):
        exact = interferometer.DetectedState.table

        def skewed(state):
            table = exact(state)
            return table._replace(loss_free=table.loss_free * 1.001)

        monkeypatch.setattr(interferometer.DetectedState, "table", skewed)
        scenario, out = tmp_path / "case.scenario", tmp_path / "out.csv"
        scenario.write_text(text)
        capsys.readouterr()
        assert main([command, "--scenario", str(scenario), "--out", str(out)]) == EXIT_NUMERIC
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_other_library_error_exits_invalid(self, tmp_path, monkeypatch, capsys):
        import pisim.cli as cli

        def undefined(_phases, _samples):
            raise VisibilityUndefinedError("injected failure")

        monkeypatch.setattr(cli, "visibility", undefined)
        scenario, out = tmp_path / "ent.scenario", tmp_path / "ent.csv"
        scenario.write_text("command = entangle\nscheme.n = 3\nscheme.m = 1\nentangle.grid = 1\n")
        capsys.readouterr()
        assert main(["entangle", "--scenario", str(scenario), "--out", str(out)]) == EXIT_INVALID
        assert capsys.readouterr().err == "pisim: injected failure\n"
        assert not out.exists()

    def test_entanglement_figure_out_of_range_exits_numeric(self, tmp_path, monkeypatch):
        import pisim.cli as cli

        monkeypatch.setattr(cli, "concurrence", lambda _rho: 1.5)
        text = "command = entangle\nscheme.n = 3\nscheme.m = 1\nentangle.grid = 1\n"
        out = tmp_path / "ent.csv"
        assert execute(parse_scenario(text), out_path=str(out)) == EXIT_NUMERIC
        assert not out.exists()


class TestGoldenOutputs:
    """CSV bytes of fixed scenarios; t < 1 in run and sweep, so loss rows are nonzero."""

    @pytest.mark.parametrize("scenario", GOLDENS, ids=lambda p: p.stem)
    def test_bytes_match(self, tmp_path, scenario):
        command = parse_scenario(scenario.read_text()).command
        out = tmp_path / "out.csv"
        assert main([command, "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == scenario.with_suffix(".csv").read_bytes()

    @pytest.mark.parametrize(
        "scenario", sorted(GOLDEN.glob("entangle_*.scenario")), ids=lambda p: p.stem
    )
    def test_concurrence_column_is_the_closed_form_as_printed(self, scenario):
        # T = t^m for two detected particles, 0 for three: each pair of three is separable
        scheme = parse_scenario(scenario.read_text()).scheme
        header, rows = read_rows(scenario.with_suffix(".csv"))
        assert header[2] == "concurrence" and rows
        for row in rows:
            expected = float(row[0]) ** scheme.n_aligned if scheme.n_detected == 2 else 0.0
            assert row[2] == format(expected, ".12g")


class TestModuleInAChildProcess:
    """``python -m pisim.cli`` as its own process: the one route through the ``__main__``
    guard and ``sys.argv[1:]``.  The child runs numpy without its AVX2 and AVX-512 loops,
    which the environment sets for the child alone, and BLAS on one thread."""

    @staticmethod
    def run_module(*argv: str) -> subprocess.CompletedProcess:
        src = str(Path(pisim.__file__).resolve().parents[1])
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4 X86_V3",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        command = [sys.executable, "-m", "pisim.cli", *argv]
        return subprocess.run(command, env=env, capture_output=True, timeout=60)

    @pytest.mark.parametrize("scenario", GOLDENS, ids=lambda p: p.stem)
    def test_golden_bytes_in_the_reduced_dispatch(self, tmp_path, scenario):
        out = tmp_path / "out.csv"
        command = parse_scenario(scenario.read_text()).command
        done = self.run_module(command, "--scenario", str(scenario), "--out", str(out))
        assert (done.returncode, done.stderr, done.stdout) == (EXIT_OK, b"", b"")
        assert out.read_bytes() == scenario.with_suffix(".csv").read_bytes()

    def test_help_prints_the_help_text(self):
        done = self.run_module("--help")
        assert (done.returncode, done.stderr) == (EXIT_OK, b"")
        assert done.stdout == HELP.encode()


class TestOracleCommand:
    def test_small_check_passes(self, tmp_path):
        out = tmp_path / "oracle.csv"
        text = (
            "command = oracle-check\noracle.cases = 4\n"
            "oracle.max_detected = 3\noracle.max_aligned = 2\n"
        )
        assert execute(parse_scenario(text), out_path=str(out), seed=7) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "# seed = 7"
        assert lines[1] == "n_detected,n_aligned,cases,max_infidelity,status"
        assert len(lines) == 2 + 3 * 3
        assert all(line.endswith("pass") for line in lines[2:])

    def test_seed_changes_output_deterministically(self, tmp_path):
        text = "command = oracle-check\noracle.cases = 2\noracle.max_detected = 2\noracle.max_aligned = 1\n"
        scenario = parse_scenario(text)
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        execute(scenario, out_path=str(a), seed=1)
        execute(scenario, out_path=str(b), seed=1)
        execute(scenario, out_path=str(c), seed=2)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] != c.read_text().splitlines()[0]

    def test_seed_option_heads_the_report(self, tmp_path):
        scenario, out = tmp_path / "oracle.scenario", tmp_path / "oracle.csv"
        scenario.write_text("command = oracle-check\noracle.cases = 2\n")
        argv = ["oracle-check", "--scenario", str(scenario), "--out", str(out), "--seed", "7"]
        assert main(argv) == EXIT_OK
        assert out.read_text().splitlines()[0] == "# seed = 7"

    def test_deviation_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        import pisim.cli as cli

        monkeypatch.setattr(cli, "_oracle_fidelity", lambda cfg: 0.5)
        out = tmp_path / "oracle.csv"
        capsys.readouterr()
        assert execute(parse_scenario(ONE_ORACLE_RUN), out_path=str(out)) == EXIT_NUMERIC
        assert capsys.readouterr().err == f"pisim: oracle deviation above 1e-09; see {out}\n"
        assert out.read_text().splitlines() == [
            "# seed = 42",
            "n_detected,n_aligned,cases,max_infidelity,status",
            "1,0,1,0.5,fail",
        ]


class TestMainEntryPoint:
    def test_scenario_file_roundtrip(self, tmp_path):
        scenario_path = tmp_path / "case.txt"
        scenario_path.write_text(CASE_I_SWEEP)
        out = tmp_path / "out.csv"
        code = main(["sweep", "--scenario", str(scenario_path), "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()

    def test_missing_scenario_file(self, tmp_path):
        code = main(["run", "--scenario", str(tmp_path / "absent.txt")])
        assert code == EXIT_IO

    def test_parse_error_exit(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("command = run\nscheme.n = 3\nscheme.m = 1\nscheme.transmission.3 = 2\n")
        assert main(["run", "--scenario", str(bad)]) == EXIT_INVALID

    def test_command_mismatch(self, tmp_path):
        scenario_path = tmp_path / "case.txt"
        scenario_path.write_text(CASE_I_RUN)
        assert main(["sweep", "--scenario", str(scenario_path)]) == EXIT_INVALID

    def test_unwritable_output(self, tmp_path):
        scenario_path = tmp_path / "case.txt"
        scenario_path.write_text(CASE_I_RUN)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "out.csv"  # parent is a file, so writing must fail
        assert main(["run", "--scenario", str(scenario_path), "--out", str(out)]) == EXIT_IO

    def test_missing_output_path(self, tmp_path):
        scenario_path = tmp_path / "case.txt"
        scenario_path.write_text(CASE_I_RUN)
        assert main(["run", "--scenario", str(scenario_path)]) == EXIT_INVALID

    def test_bad_usage_maps_to_invalid(self):
        assert main(["run"]) == EXIT_INVALID  # --scenario is required

    def test_bad_seed_rejected(self, tmp_path):
        scenario_path = tmp_path / "case.txt"
        scenario_path.write_text(CASE_I_RUN)
        assert main(["run", "--scenario", str(scenario_path), "--seed", "-3"]) == EXIT_INVALID

    @pytest.mark.parametrize(
        "argv",
        [[], ["bogus", "--scenario", "x"], ["run", "--scenario", "x", "--seed", str(2**64)]],
        ids=["no-arguments", "unknown-command", "seed-too-large"],
    )
    def test_usage_errors_exit_invalid(self, argv):
        assert main(argv) == EXIT_INVALID

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]], ids=lambda a: " ".join(a))
    def test_help_exits_ok_without_output(self, tmp_path, argv):
        out = tmp_path / "out.csv"
        scenario = GOLDEN / "run_lossy.scenario"
        assert main(argv + ["--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
        assert not out.exists()

    def test_options_before_the_command(self, tmp_path):
        out = tmp_path / "out.csv"
        argv = ["--scenario", str(GOLDEN / "run_lossy.scenario"), "run", "--out", str(out)]
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == (GOLDEN / "run_lossy.csv").read_bytes()

    def test_scenario_not_utf8(self, tmp_path, capsys):
        scenario_path = tmp_path / "bad.scenario"
        scenario_path.write_bytes(CASE_I_RUN.encode() + b"# \xff\xfe\n")
        out = tmp_path / "out.csv"
        assert main(["run", "--scenario", str(scenario_path), "--out", str(out)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("pisim: scenario error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("ends", ["lf", "crlf"])
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, ends):
        """Editors on Windows often start a UTF-8 file with a byte-order mark."""
        scenario_path, out = tmp_path / "bom.scenario", tmp_path / "out.csv"
        for scenario in GOLDENS:
            text = scenario.read_bytes().decode("utf-8")
            if ends == "crlf":
                text = text.replace("\n", "\r\n")
            scenario_path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
            command = parse_scenario(text).command
            assert main([command, "--scenario", str(scenario_path), "--out", str(out)]) == EXIT_OK
            assert capsys.readouterr().err == ""
            assert out.read_bytes() == scenario.with_suffix(".csv").read_bytes(), scenario.stem

    def test_byte_order_mark_before_the_command_key(self, tmp_path):
        scenario_path, out = tmp_path / "bom.scenario", tmp_path / "out.csv"
        scenario_path.write_bytes(b"\xef\xbb\xbfcommand = run\nscheme.n = 3\nscheme.m = 1\n")
        assert main(["run", "--scenario", str(scenario_path), "--out", str(out)]) == EXIT_OK
        assert out.read_text().splitlines()[0] == "outcome,probability"

    def test_nul_in_scenario_output_path(self, tmp_path, capsys):
        scenario_path = tmp_path / "case.scenario"
        scenario_path.write_text(CASE_I_RUN + "output = x\0y.csv\n")
        assert main(["run", "--scenario", str(scenario_path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err == "pisim: scenario error: line 6, key 'output': path contains a NUL byte\n"

    @pytest.mark.parametrize("option", ["--scenario", "--out"])
    def test_nul_in_path_option(self, tmp_path, capsys, option):
        out = tmp_path / "out.csv"
        argv = ["run", "--scenario", str(GOLDEN / "run_lossy.scenario"), "--out", str(out)]
        argv[argv.index(option) + 1] = str(tmp_path / "x\0y")
        assert main(argv) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.endswith(f"pisim: error: argument {option}: path contains a NUL byte\n")
        assert not out.exists()


    def test_non_ascii_digit_is_an_unknown_phase(self, tmp_path, capsys):
        scenario_path = tmp_path / "case.scenario"
        scenario_path.write_text(CASE_I_SWEEP.replace("theta.3", "phi.²"), encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--scenario", str(scenario_path), "--out", str(out)]) == EXIT_INVALID
        assert capsys.readouterr().err == (
            "pisim: scenario error: line 6, key 'sweep.variable': "
            "unknown phase variable 'phi.²' for this scheme\n"
        )
        assert not out.exists()


def _mixed_line_ends(text: str) -> str:
    """``text`` with its line ends cycling through CR LF, LF and CR; a CR is never
    followed by a LF of the next line end, so the line count stays the same."""
    ends = itertools.cycle(["\r\n", "\n", "\r"])
    return re.sub("\n", lambda _: next(ends), text)


LINE_ENDS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr": lambda text: text.replace("\n", "\r"),
    "mixed": _mixed_line_ends,
}
#: Characters at which ``str.splitlines()`` breaks but a scenario line does not end:
#: only "\n", "\r\n" and "\r" end one.
OTHER_BREAKS = {
    "ff": "\x0c", "vt": "\x0b", "fs": "\x1c", "gs": "\x1d", "rs": "\x1e",
    "nel": "\x85", "ls": "\u2028", "ps": "\u2029",
}  # fmt: skip


class TestFiles:
    """Scenarios are read and CSVs written as bytes, through the paths as given."""

    @pytest.mark.parametrize("ends", LINE_ENDS)
    @pytest.mark.parametrize("scenario", GOLDENS, ids=lambda p: p.stem)
    def test_any_line_ends_give_the_golden_bytes(self, tmp_path, scenario, ends):
        text = scenario.read_bytes().decode("utf-8")
        assert text.count("\n") >= 3 and "\r" not in text
        copy = tmp_path / scenario.name
        copy.write_bytes(LINE_ENDS[ends](text).encode("utf-8"))
        out = tmp_path / "out.csv"
        command = parse_scenario(text).command
        assert main([command, "--scenario", str(copy), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == scenario.with_suffix(".csv").read_bytes()

    @pytest.mark.parametrize("ends", ["crlf", "cr"])
    def test_parse_error_line_is_the_same_for_any_line_ends(self, tmp_path, capsys, ends):
        text = "# comment\n\ncommand = run\nscheme.n = 3\n\nscheme.m = 1\nbogus = 1\n"
        errors = []
        for name, data in (("lf", text), (ends, LINE_ENDS[ends](text))):
            path = tmp_path / f"{name}.scenario"
            path.write_bytes(data.encode("utf-8"))
            assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o.csv")]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == "pisim: scenario error: line 7, key 'bogus': unknown key\n"

    @pytest.mark.parametrize("char", OTHER_BREAKS.values(), ids=OTHER_BREAKS)
    def test_other_breaks_inside_comments_keep_the_golden_bytes(self, tmp_path, char):
        lines = (GOLDEN / "run_lossy.scenario").read_bytes().decode("utf-8").split("\n")
        lines[0] += f"{char}scheme.n = 1"  # the comment runs on past the character
        lines[3] += f"  # two{char}scheme.m = 0"
        copy, out = tmp_path / "run.scenario", tmp_path / "out.csv"
        copy.write_bytes("\n".join(lines).encode("utf-8"))
        assert main(["run", "--scenario", str(copy), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == (GOLDEN / "run_lossy.csv").read_bytes()

    @pytest.mark.parametrize("char", OTHER_BREAKS.values(), ids=OTHER_BREAKS)
    def test_other_breaks_keep_later_line_numbers(self, tmp_path, capsys, char):
        head = f"command = {{}}\n# a{char}b = 1\nscheme.n = 3\nscheme.m = 1\n"
        cases = [
            ("run", "bogus = 1", "line 5, key 'bogus': unknown key"),
            ("run", f"scheme.phi0 = 1{char}5", f"line 5, key 'scheme.phi0': phi0 must be a finite "
             f"number, got {'1' + char + '5'!r}"),
            ("entangle", f"target = Psi{char}+", f"line 5, key 'target': unknown target "
             f"{'Psi' + char + '+'!r} (expected one of {', '.join(TARGETS)})"),
        ]  # fmt: skip
        path = tmp_path / "case.scenario"
        for command, line, message in cases:
            path.write_bytes((head.format(command) + line + "\n").encode("utf-8"))
            argv = [command, "--scenario", str(path), "--out", str(tmp_path / "o.csv")]
            assert main(argv) == 1
            assert capsys.readouterr().err == f"pisim: scenario error: {message}\n"
        text = head.format("run") + f"scheme.phi0 = 1.5{char}\n"  # trailing: blank
        assert parse_scenario(text).scheme.phi0 == 1.5

    @pytest.mark.parametrize(
        "scenario, out, message",
        [
            ("{s}", "{o}/x.csv/", "pisim: cannot write output: "),
            ("{s}/", "{o}/x.csv", "pisim: cannot read scenario: "),
            ("{d}/absent.scenario", "{o}/x.csv", "pisim: cannot read scenario: "),
            ("{d}", "{o}/x.csv", "pisim: cannot read scenario: "),
        ],
        ids=["output-with-trailing-slash", "scenario-with-trailing-slash", "missing", "directory"],
    )
    def test_path_that_is_no_file_exits_io(self, tmp_path, capsys, scenario, out, message):
        """Paths reach the operating system as given: a trailing slash is kept."""
        scenario_path = tmp_path / "doc.scenario"
        (tmp_path / "out").mkdir()
        names = {"s": scenario_path, "o": tmp_path / "out", "d": tmp_path}
        for command in COMMANDS:
            if command == "oracle-check":
                scenario_path.write_text(ONE_ORACLE_RUN)
            else:
                shutil.copy(GOLDEN / f"{_SCENARIO_COPIES[command]}.scenario", scenario_path)
            argv = [command, "--scenario", scenario.format(**names), "--out", out.format(**names)]
            assert main(argv) == EXIT_IO, command
            printed = capsys.readouterr()
            assert printed.err.startswith(message) and printed.err.count("\n") == 1
            assert printed.out == ""
            assert list((tmp_path / "out").iterdir()) == [], command

    @pytest.mark.parametrize("out", ["absent/x.csv", "absent/x.csv/", "absent/deeper/x.csv"])
    def test_missing_output_directory_fails_before_the_command_runs(
        self, tmp_path, monkeypatch, capsys, out
    ):
        import pisim.cli as cli

        def never(*_args):
            raise AssertionError("the command ran although its output cannot be written")

        monkeypatch.setattr(cli, "_cmd_oracle", never)
        scenario = tmp_path / "oracle.scenario"
        scenario.write_text("command = oracle-check\n")
        path = str(tmp_path / out)
        assert main(["oracle-check", "--scenario", str(scenario), "--out", path]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"pisim: cannot write output: [Errno 2] No such file or directory: {path!r}\n"
        )
        assert list(tmp_path.iterdir()) == [scenario]

    def test_missing_output_directory_outranks_a_numerical_fault(
        self, tmp_path, monkeypatch, capsys
    ):
        exact = interferometer.DetectedState.table

        def skewed(state):  # would exit 2 with a writable output
            table = exact(state)
            return table._replace(loss_free=table.loss_free * 1.001)

        monkeypatch.setattr(interferometer.DetectedState, "table", skewed)
        scenario, out = tmp_path / "case.scenario", tmp_path / "absent" / "out.csv"
        scenario.write_text(CASE_I_RUN)
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err.startswith("pisim: cannot write output: [Errno 2]")


class TestOutputFile:
    """The CSV is written through the operating system's own calls, with the flags, mode
    and error lines of ``open(path, "wb")``."""

    def run_golden(self, tmp_path, out) -> int:
        scenario = tmp_path / "run.scenario"
        shutil.copy(GOLDEN / "run_lossy.scenario", scenario)
        return main(["run", "--scenario", str(scenario), "--out", str(out)])

    @pytest.mark.parametrize(
        "output_line", ["output = from_scenario.csv\n", ""], ids=["scenario-output", "none"]
    )
    def test_empty_out_names_no_file(self, tmp_path, monkeypatch, capsys, output_line):
        import pisim.cli as cli

        def never(*_args):
            raise AssertionError("the command ran although its output cannot be written")

        monkeypatch.setattr(cli, "_cmd_run", never)
        monkeypatch.chdir(tmp_path)  # where the scenario's relative output would land
        scenario = tmp_path / "case.scenario"
        scenario.write_text(CASE_I_RUN + output_line)
        assert main(["run", "--scenario", str(scenario), "--out", ""]) == EXIT_IO
        assert capsys.readouterr().err == (
            "pisim: cannot write output: [Errno 2] No such file or directory: ''\n"
        )
        assert list(tmp_path.iterdir()) == [scenario]

    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        import pisim.cli as cli

        write, calls = os.write, []

        def seven_bytes(fd, data):
            calls.append(len(data))
            return write(fd, data[:7])

        monkeypatch.setattr(cli.os, "write", seven_bytes)
        out = tmp_path / "out.csv"
        assert self.run_golden(tmp_path, out) == EXIT_OK
        monkeypatch.undo()
        golden = (GOLDEN / "run_lossy.csv").read_bytes()
        assert out.read_bytes() == golden
        assert calls == list(range(len(golden), 0, -7))

    def test_longer_file_is_truncated(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_bytes(b"x" * 100_000)
        assert self.run_golden(tmp_path, out) == EXIT_OK
        assert out.read_bytes() == (GOLDEN / "run_lossy.csv").read_bytes()

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode_is_that_of_open(self, tmp_path, umask):
        out, reference = tmp_path / "out.csv", tmp_path / "reference.csv"
        previous = os.umask(umask)
        try:
            open(reference, "wb").close()
            assert self.run_golden(tmp_path, out) == EXIT_OK
        finally:
            os.umask(previous)
        assert os.stat(out).st_mode == os.stat(reference).st_mode

    def test_directory_exits_io(self, tmp_path, capsys):
        out = tmp_path / "directory"
        out.mkdir()
        assert self.run_golden(tmp_path, out) == EXIT_IO
        reason = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(out)!r}"
        assert capsys.readouterr().err == f"pisim: cannot write output: {reason}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_exits_io(self, tmp_path, capsys):
        assert self.run_golden(tmp_path, "/dev/full") == EXIT_IO
        reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert capsys.readouterr().err == f"pisim: cannot write output: {reason}\n"

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0, reason="root writes")
    def test_read_only_file_exits_io(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        out.write_bytes(b"kept")
        out.chmod(0o444)
        assert self.run_golden(tmp_path, out) == EXIT_IO
        reason = f"[Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: {str(out)!r}"
        assert capsys.readouterr().err == f"pisim: cannot write output: {reason}\n"
        assert out.read_bytes() == b"kept"


#: Argument lists for ``main``: ``{s}`` is the golden ``run`` scenario, ``{o}`` the
#: output file and ``{d}`` the test's directory.  "csv" expects the golden CSV at
#: ``{o}`` and no stderr, "help" the help text on stdout, "usage" the usage line and
#: one error line on stderr; neither of the last two writes ``{o}``.
ARGUMENT_CASES = [
    (["run", "--scenario={s}", "--out={o}"], EXIT_OK, "csv"),
    (["--scenario={s}", "run", "--out={o}"], EXIT_OK, "csv"),
    (["run", "--scen", "{s}", "--o", "{o}"], EXIT_OK, "csv"),
    (["--sc={s}", "run", "--ou={o}", "--se=7"], EXIT_OK, "csv"),
    (["run", "--scenario", "{s}", "--out", "{d}/first.csv", "--out", "{o}"], EXIT_OK, "csv"),
    (["--out", "{d}/first.csv", "run", "--scenario", "{s}", "--out", "{o}"], EXIT_OK, "csv"),
    (["run", "--scenario", "{d}/absent", "--scenario", "{s}", "--out", "{o}"], EXIT_OK, "csv"),
    (["run", "--scenario", "{s}", "--out", "{o}", "--seed", "-1", "--seed", "0"], EXIT_OK, "csv"),
    (["run", "--scenario", "{s}", "--out", "{o}", "--seed", str(2**64 - 1)], EXIT_OK, "csv"),
    (["-h"], EXIT_OK, "help"),
    (["--help"], EXIT_OK, "help"),
    (["--he"], EXIT_OK, "help"),
    (["-h", "run", "--scenario", "{s}", "--out", "{o}"], EXIT_OK, "help"),
    (["run", "-h", "--scenario", "{s}", "--out", "{o}"], EXIT_OK, "help"),
    (["run", "--scenario", "{s}", "--help", "--out", "{o}"], EXIT_OK, "help"),
    (["run", "--scenario", "{s}", "--out", "{o}", "--help"], EXIT_OK, "help"),
    (["--help", "bogus"], EXIT_OK, "help"),
    ([], EXIT_INVALID, "usage"),
    (["--scenario", "{s}", "--out", "{o}"], EXIT_INVALID, "usage"),
    (["bogus", "--scenario", "{s}", "--out", "{o}"], EXIT_INVALID, "usage"),
    (["run", "--out", "{o}"], EXIT_INVALID, "usage"),
    (["run", "--scenario", "{s}", "--out", "{o}", "extra"], EXIT_INVALID, "usage"),
    (["run", "extra", "--scenario", "{s}", "--out", "{o}"], EXIT_INVALID, "usage"),
    (["run", "run", "--scenario", "{s}", "--out", "{o}"], EXIT_INVALID, "usage"),
    (["run", "extra", "--help"], EXIT_INVALID, "usage"),
    (["run", "--s", "{s}", "--out", "{o}"], EXIT_INVALID, "usage"),
    (["run", "--scenario", "{s}", "--out", "{o}", "--bogus", "x"], EXIT_INVALID, "usage"),
    (["run", "-x", "--scenario", "{s}", "--out", "{o}"], EXIT_INVALID, "usage"),
    (["run", "--out", "{o}", "--scenario"], EXIT_INVALID, "usage"),
    (["run", "--scenario", "{s}", "--out", "{o}", "--help=yes"], EXIT_INVALID, "usage"),
    (["run", "--scenario", "{s}", "--out", "{o}", "--seed", "-1"], EXIT_INVALID, "usage"),
    (["run", "--scenario", "{s}", "--out", "{o}", "--seed", str(2**64)], EXIT_INVALID, "usage"),
    (["run", "--scenario", "{s}", "--out", "{o}", "--seed", "1.5"], EXIT_INVALID, "usage"),
    (["run", "--scenario", "{s}", "--out", "{o}", "--seed="], EXIT_INVALID, "usage"),
    (["run", "--scenario", "{s}", "--out", "{d}/x\0y"], EXIT_INVALID, "usage"),
    (["run", "--scenario", "{d}/x\0y", "--out", "{o}"], EXIT_INVALID, "usage"),
]


class TestArguments:
    """How ``main`` reads its argument list, before any scenario is parsed."""

    @pytest.mark.parametrize(
        "template, code, stream", ARGUMENT_CASES, ids=[" ".join(c[0]) for c in ARGUMENT_CASES]
    )
    def test_argument_list(self, tmp_path, capsys, template, code, stream):
        out = tmp_path / "out.csv"
        names = {"s": GOLDEN / "run_lossy.scenario", "o": out, "d": tmp_path}
        assert main([word.format(**names) for word in template]) == code
        printed = capsys.readouterr()
        if stream == "csv":
            assert out.read_bytes() == (GOLDEN / "run_lossy.csv").read_bytes()
            assert printed.err == printed.out == ""
        elif stream == "help":
            assert printed.out == HELP and printed.err == ""
        else:
            first, second = printed.err.splitlines()
            assert first == USAGE and second.startswith("pisim: error: ")
            assert printed.err.endswith("\n") and printed.out == ""
        assert not (tmp_path / "first.csv").exists()
        assert out.exists() == (stream == "csv")

    def test_help_names_every_command_and_option(self):
        for word in ("run", "sweep", "entangle", "oracle-check", "--scenario", "--out", "--seed"):
            assert word in HELP

    def test_value_starting_with_a_dash_is_a_value(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--scenario", str(GOLDEN / "run_lossy.scenario"), "--out", "-x"]) == EXIT_OK
        assert (tmp_path / "-x").read_bytes() == (GOLDEN / "run_lossy.csv").read_bytes()

    def test_posixly_correct_changes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("POSIXLY_CORRECT", "1")
        out = tmp_path / "out.csv"
        argv = ["run", f"--scenario={GOLDEN / 'run_lossy.scenario'}", f"--out={out}"]
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == (GOLDEN / "run_lossy.csv").read_bytes()


#: Words that stand for files made fresh in a scratch directory for each example.
_PLACEHOLDERS = ("<run>", "<sweep>", "<entangle>", "<oracle>", "<bad>", "<out>", "<dir>")
_WORDS = st.one_of(
    st.sampled_from(
        ["run", "sweep", "entangle", "oracle-check", "bogus", "--scenario", "--out", "--seed"]
        + ["--sc", "--s", "--o", "-h", "--help", "-x", "--bogus", "=", "--", "-", ""]
        + ["0", "42", "-1", str(2**64), "abc", "x\0y", *_PLACEHOLDERS]
    ),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)
_NOISE = st.lists(st.one_of(_WORDS, st.tuples(_WORDS, _WORDS).map("=".join)), max_size=4)
#: Working argument lists, so that noise around them also reaches the commands.
_CORES = [
    [],
    ["run", "--scenario", "<run>", "--out", "<out>"],
    ["sweep", "--scenario", "<sweep>", "--out", "<out>"],
    ["--scenario", "<entangle>", "entangle", "--out", "<out>"],
    ["oracle-check", "--scenario", "<oracle>", "--out", "<out>", "--seed", "7"],
]
_ARGUMENT_LISTS = st.tuples(_NOISE, st.sampled_from(_CORES), _NOISE).map(lambda p: sum(p, []))


@pytest.fixture(scope="module")
def argument_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("arguments")


@settings(max_examples=150, deadline=None)
@given(words=_ARGUMENT_LISTS)
def test_any_argument_list_exits_with_a_documented_code(argument_dir, words):
    """Whatever the words, ``main`` returns an exit code in 0-3 and raises nothing."""
    shutil.rmtree(argument_dir)
    (argument_dir / "dir").mkdir(parents=True)
    for name, golden in _SCENARIO_COPIES.items():
        shutil.copy(GOLDEN / f"{golden}.scenario", argument_dir / name)
    (argument_dir / "oracle").write_text(ONE_ORACLE_RUN)
    (argument_dir / "bad").write_bytes(b"command = run\n\xff\n")
    paths = {word: str(argument_dir / word.strip("<>")) for word in _PLACEHOLDERS}
    here = os.getcwd()
    os.chdir(argument_dir / "dir")  # a relative --out lands in the scratch directory
    try:
        code = main([paths.get(word, word) for word in words])
        event(f"exit {code}")
        assert code in (EXIT_OK, EXIT_INVALID, EXIT_NUMERIC, EXIT_IO)
    finally:
        os.chdir(here)


#: Phase names and near misses: accepted names, non-ASCII digits, signs, spaces,
#: comments, a slot the scheme lacks and an index past int()'s digit limit.
_VARIABLE_NAMES = st.sampled_from(
    ["phi0", "phi.1", "phi.02", "phi.٢", "theta.3", "theta.03", "phi.²", "theta.³", "phi."]
    + ["phi.-1", "phi.+1", "phi. 1", "phi.3", "theta.1", "tau.1", "#", "phi.1 # c", "x=y"]
    + ["phi." + "9" * 5000, "\0", "ϕ0"]
)
_VARIABLE_PARTS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
_VARIABLE_TEXT = st.one_of(
    _VARIABLE_NAMES,
    st.tuples(st.sampled_from(["phi.", "theta."]), st.text("012²³٢ +-", max_size=3)).map("".join),
    _VARIABLE_PARTS,
    st.tuples(_VARIABLE_NAMES, _VARIABLE_PARTS).map("".join),
).filter(lambda text: "\r" not in text and "\n" not in text)  # the value keeps its line


@pytest.fixture(scope="module")
def variable_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("variables")


@settings(max_examples=200, deadline=None)
@given(variable=_VARIABLE_TEXT)
def test_any_sweep_variable_exits_ok_or_names_its_key(variable_dir, variable):
    """Whatever follows ``sweep.variable =`` on line 6, ``main`` returns 0 or 1 and raises
    nothing, and an exit 1 is one line naming that key and line: an unknown phase
    variable or, when a comment or blanks leave no value, a missing value."""
    scenario_path, out = variable_dir / "variable.scenario", variable_dir / "variable.csv"
    text = CASE_I_SWEEP.replace("sweep.variable = theta.3", f"sweep.variable = {variable}")
    scenario_path.write_bytes(text.encode("utf-8"))
    capture = io.StringIO()
    with contextlib.redirect_stderr(capture):
        code = main(["sweep", "--scenario", str(scenario_path), "--out", str(out)])
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_INVALID)
    if code == EXIT_INVALID:
        err = capture.getvalue()
        prefix = re.escape("pisim: scenario error: line 6, key 'sweep.variable': ")
        reason = "(unknown phase variable .* for this scheme|missing key or value)\n"
        assert re.fullmatch(prefix + reason, err, re.DOTALL)
        assert err.count("\n") == 1


#: Values of each scenario key: usual ones, then ones at the edges of its rules: 0, 1,
#: each cap and one past it, huge numbers, NaN, inf, non-ASCII digits (int() reads "٣"
#: but not "²") and text.
_HUGE = "9" * 5000  # past int()'s digit limit; float() reads it as inf
_FLOATS = (
    ["0", "0.5", "-1.5", "2.5"],
    ["-0", "1e308", "-1.7e308", "1e309", "nan", "inf", "-inf", "٣", "²", _HUGE, "x"],
)
_TRANSMISSIONS = (["1", "0.5", "0.9"], ["0", "-0", "1.5", "-0.1", "nan", "٠", "x"])
_DOCUMENT_VALUES = {
    "command": (["run", "sweep", "entangle", "oracle-check"], ["bogus"]),
    "scheme.n": (["2", "3", "4", "5", "6"], ["1", "0", "12", "13", "16", "17", "-1", "٤", _HUGE]),
    "scheme.m": (["1", "2"], ["0", "3", "-1", "4", "16", "17", "٢", "nan"]),
    "scheme.phi0": _FLOATS,
    "scheme.phi.<j>": _FLOATS,  # <j> and <l> become particle indices of the scheme
    "scheme.theta.<l>": _FLOATS,
    "scheme.transmission.<l>": _TRANSMISSIONS,
    "sweep.variable": (
        ["phi0", "phi.1", "theta.4"], ["phi.2", "theta.3", "theta.6", "phi.²", "phi.٢", "x"]
    ),
    "sweep.steps": (["8", "16", "64"], ["7", "17", "4096", "4097", "0", "-8", "٨", _HUGE]),
    "sweep.start": _FLOATS,
    "sweep.stop": _FLOATS,
    "entangle.grid": (
        ["1", "0,0.5,1", "0.5"],
        ["0", "1.5", "-0.1", "nan", "0,,1", "١", "x", ",".join(["1"] * MAX_ENTANGLE_GRID)]
        + [",".join(["0.5"] * (MAX_ENTANGLE_GRID + 1))],
    ),
    "target": (list(TARGETS), ["F5", "psi+"]),
    "oracle.cases": (["1", "2", "3"], ["0", "69", "70", "100000", "100001", "٣", _HUGE]),
    "oracle.max_detected": (["1", "2", "3"], ["8", "9", "0"]),
    "oracle.max_aligned": (["0", "1", "2"], ["8", "9", "-1"]),
    "output": (["x.csv"], ["a\0b"]),
    "bogus": ([], ["1"]),
    "scheme.bogus": ([], ["1"]),
}
#: Prefixes of the keys each command reads beyond ``command`` (``entangle`` rejects
#: ``scheme.transmission.<l>``); any other key is unknown to it.
_COMMAND_KEYS = {
    "run": ("scheme.", "output"),
    "sweep": ("scheme.", "sweep.", "output"),
    "entangle": ("scheme.", "entangle.", "target", "output"),
    "oracle-check": ("oracle.", "output"),
}
#: Text inside comments and values: each character ends a line for str.splitlines() alone.
_INSIDE = ["", *OTHER_BREAKS.values(), "é", "#"]


@st.composite
def _documents(draw):
    """A scenario document: usually a command with its scheme and some of its own keys,
    each with a usual value nine times in ten; sometimes a required key left out, a
    duplicate or another command's key, comments, blank and broken lines; in any order,
    with "\\n", "\\r\\n" and "\\r" line ends mixed."""
    rnd = draw(st.randoms(use_true_random=True))

    def value(key):
        usual, edges = _DOCUMENT_VALUES[key]
        return rnd.choice(usual if usual and rnd.random() < 0.9 else edges)

    def particle(key):
        """``key`` with ``<j>`` or ``<l>`` made a detected or aligned particle of the
        scheme, or one time in ten an index just outside that range."""
        if not key.endswith(">"):
            return key
        try:
            n, m = int(sizes.get("scheme.n", "3")), int(sizes.get("scheme.m", "1"))
        except ValueError:
            n, m = 3, 1
        low, high = (1, n - m) if key.endswith("<j>") else (n - m + 1, n)
        if high < low or rnd.random() < 0.1:
            return key[:-3] + str(rnd.choice([low - 1, high + 1]))
        return key[:-3] + str(rnd.randint(low, high))

    command = value("command")
    prefixes = _COMMAND_KEYS.get(command, ("scheme.",))
    required = ["command"] + ["scheme.n", "scheme.m"] * ("scheme." in prefixes)
    required += ["sweep.variable"] * (command == "sweep")
    pairs = [(key, command if key == "command" else value(key)) for key in required]
    sizes = dict(pairs)
    pairs = [pair for pair in pairs if rnd.random() < 0.95]
    own = [
        key
        for key, (usual, _) in _DOCUMENT_VALUES.items()
        if usual
        and key.startswith(prefixes)
        and key not in required
        and (command, key) != ("entangle", "scheme.transmission.<l>")
    ]
    pairs += [(particle(key), value(key)) for key in rnd.sample(own, rnd.randint(0, 4))]
    if rnd.random() < 0.2:  # a duplicate, or a key of another rule
        key = rnd.choice(sorted(_DOCUMENT_VALUES))
        pairs.append((particle(key), value(key)))
    rnd.shuffle(pairs)
    tails = ["", "", "  # note{}", "{}", " #{}x = 1"]
    lines = [f"{key} = {text}" + rnd.choice(tails) for key, text in pairs]
    for _ in range(rnd.randint(0, 2)):
        extra = rnd.choice(["", "# comment{} more", "   {}", "# {} = 1"])
        if rnd.random() < 0.1:
            extra = rnd.choice(["no equals sign", "= 1", "k ="])
        lines.insert(rnd.randint(0, len(lines)), extra)
    lines = [line.replace("{}", rnd.choice(_INSIDE)) for line in lines]
    return "".join(line + rnd.choice(["\n", "\r\n", "\r"]) for line in lines)


def _within_bounds(scenario) -> bool:
    """Whether an accepted scenario lies within every parse-time cost bound; a
    :class:`SchemeConfig` holds its own size bounds."""
    scheme = scenario.scheme
    if (scheme is None) != (scenario.command == "oracle-check"):
        return False
    if scenario.sweep is not None:
        steps = scenario.sweep.steps
        return 8 <= steps <= MAX_SWEEP_STEPS and steps * 2**scheme.n_detected <= MAX_SWEEP_CELLS
    if scenario.oracle is not None:
        spec = scenario.oracle
        return spec.cases * spec.max_detected * (spec.max_aligned + 1) <= MAX_ORACLE_RUNS
    if scenario.command == "entangle":
        grid = scenario.entangle_grid  # the parser fills in the default grid
        return len(grid) <= MAX_ENTANGLE_GRID and scheme.n_detected in (2, 3)
    return True


def _quick(scenario) -> bool:
    """Whether ``main`` runs an accepted scenario in a few milliseconds: small schemes,
    short sweeps and grids, at most three oracle cases on small schemes."""
    if scenario.scheme is not None and scenario.scheme.n_particles > 6:
        return False
    if scenario.sweep is not None:
        return scenario.sweep.steps * 2**scenario.scheme.n_detected <= 4096
    if scenario.oracle is not None:
        spec = scenario.oracle
        return spec.cases <= 3 and spec.max_detected + spec.max_aligned <= 6
    return len(scenario.entangle_grid or ()) <= len(DEFAULT_ENTANGLE_GRID)


@pytest.fixture(scope="module")
def document_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


@settings(max_examples=500, deadline=None)
@given(text=_documents())
def test_any_document_exits_with_a_documented_code(document_dir, text):
    """Whatever the document, ``main`` raises nothing and returns 0-3.  A rejected
    document exits 1 with one ``pisim: scenario error:`` line, which names the line of
    the key it names (no line only for a missing key), and a line wherever it names no
    key.  An accepted document gives only keys its command reads, lies within every
    parse-time bound, and a small one runs through ``main``."""
    path, out = document_dir / "doc.scenario", document_dir / "doc.csv"
    path.write_bytes(text.encode("utf-8"))
    lines = [line.strip() for line in re.split("\r\n|\r|\n", text)]
    given_on = [n for n, line in enumerate(lines, 1) if "=" in line and not line.startswith("#")]
    try:
        scenario = parse_scenario(text)
    except ScenarioParseError as exc:
        capture = io.StringIO()
        with contextlib.redirect_stderr(capture):
            assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_INVALID
        assert capture.getvalue() == f"pisim: scenario error: {exc}\n"
        assert "\n" not in str(exc) and "\r" not in str(exc)
        if exc.key is None:
            assert exc.line is not None
            event("rejected: no key")
            return
        lines_of_key = [n for n in given_on if lines[n - 1].partition("=")[0].strip() == exc.key]
        if str(exc).endswith("duplicate key"):
            assert exc.line == lines_of_key[1]
        elif lines_of_key:
            assert exc.line == lines_of_key[0]
        else:
            assert exc.line is None and str(exc) == f"key '{exc.key}': missing key"
        event(f"rejected: {'a line' if lines_of_key else 'no line'}")
        return
    assert _within_bounds(scenario)
    read = ("command", *_COMMAND_KEYS[scenario.command])
    for key in [lines[n - 1].partition("=")[0].strip() for n in given_on]:
        assert key.startswith(read), key
        assert not (scenario.command == "entangle" and key.startswith("scheme.transmission.")), key
    if not _quick(scenario):
        event("accepted, parsed only")
        return
    capture = io.StringIO()
    with contextlib.redirect_stderr(capture):
        code = main([scenario.command, "--scenario", str(path), "--out", str(out), "--seed", "7"])
    event(f"accepted: {scenario.command} exit {code}")
    assert (code, capture.getvalue()) == (EXIT_OK, "")
