"""Tests for scenario parsing and the command-line front end."""

from __future__ import annotations

import cmath
import contextlib
import io
import itertools
import math
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pisim import (
    DensityMatrix,
    EntangledClass,
    EntangledClassId,
    NormalizationError,
    ScenarioParseError,
    SchemeConfig,
    ValidationError,
    bell_phi_minus,
    bell_psi_plus,
    detector,
    detector_outcome,
    entangled_class_state,
    ghz_class_three,
    outcome_probabilities,
    primed_detector,
    run_scheme,
)
from pisim.cli import (
    DEFAULT_ENTANGLE_GRID,
    EXIT_INVALID,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    HELP,
    MAX_ENTANGLE_GRID,
    MAX_ENTANGLE_TERMS,
    MAX_ORACLE_RUNS,
    MAX_PARTICLES,
    MAX_SWEEP_CELLS,
    MAX_SWEEP_STEPS,
    USAGE,
    OracleSpec,
    SweepSpec,
    execute,
    main,
    parse_scenario,
)
from conftest import attenuated_coincidence

CASE_I_RUN = """
# minimal two-detected configuration
command = run
scheme.n = 3
scheme.m = 1
"""

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

    @pytest.mark.parametrize(
        "key, value", [("sweep.start", "-inf"), ("sweep.stop", "inf"), ("sweep.start", "nan")]
    )
    def test_non_finite_sweep_bounds_rejected(self, key, value):
        text = CASE_I_SWEEP + f"{key} = {value}\n"
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(text)
        assert info.value.key == key
        assert info.value.line == len(CASE_I_SWEEP.splitlines()) + 1

    def test_overflowing_sweep_range_rejected(self):
        text = CASE_I_SWEEP + "sweep.start = -1e308\nsweep.stop = 1e308\n"
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(text)
        assert info.value.key == "sweep.stop"
        assert info.value.line == len(CASE_I_SWEEP.splitlines()) + 2

    @pytest.mark.parametrize("grid", ["entangle.grid = 1,0.5\n", ""])
    def test_entangle_beyond_density_cap_rejected(self, grid):
        # 2^13 basis states once an attenuator absorbs; the default grid has t < 1
        text = "command = entangle\nscheme.n = 13\nscheme.m = 10\n" + grid
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(text)
        assert info.value.key == "scheme.n"
        assert info.value.line == 2

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
        with pytest.raises(ScenarioParseError, match="command = sweep"):
            parse_scenario(CASE_I_RUN + "sweep.steps = 64\n")

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
        with pytest.raises(ScenarioParseError, match="GHZ3"):
            parse_scenario(CASE_I_RUN + "target = GHZ3\n")

    def test_fully_aligned_scheme_rejected(self):
        with pytest.raises(ScenarioParseError, match="detected"):
            parse_scenario("command = run\nscheme.n = 2\nscheme.m = 2\n")

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
        "text, key",
        [
            ("scheme.n = 3\nscheme.m = 1\n", "command"),
            ("command = run\nscheme.m = 1\n", "scheme.n"),
            ("command = entangle\nscheme.n = 3\n", "scheme.m"),
            ("command = sweep\nscheme.m = 1\nscheme.n = 3\nsweep.steps = 8\n", "sweep.variable"),
            ("command = oracle-check\nscheme.m = 1\n", "scheme.n"),  # a scheme key needs both
            ("command = run\n", "scheme.n"),
            ("command = run\nscheme.m = x\n", "scheme.n"),  # named before scheme.m is read
        ],
        ids=[
            "command", "scheme.n", "scheme.m", "sweep.variable", "oracle-scheme.n", "no-scheme",
            "before-a-bad-scheme.m",
        ],  # fmt: skip
    )
    def test_missing_key_is_named(self, text, key):
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(text)
        assert (info.value.key, info.value.line) == (key, None)
        assert str(info.value) == f"key '{key}': missing key"

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
            (3, -1, "scheme.m", 4, "scheme.m must lie in [0, 3]"),
            (3, 4, "scheme.m", 4, "scheme.m must lie in [0, 3]"),
        ],
    )
    def test_scheme_size_bounds_name_key_and_line(self, n, m, key, line, message):
        with pytest.raises(ScenarioParseError) as info:
            parse_scenario(f"command = run\n# size\nscheme.n = {n}\nscheme.m = {m}\n")
        assert str(info.value) == f"line {line}, key '{key}': {message}"

    @pytest.mark.parametrize("detected", range(1, 6))
    @pytest.mark.parametrize("target", TARGETS)
    @pytest.mark.parametrize("command", ["run", "entangle"])
    def test_target_at_each_detected_count(self, command, target, detected):
        text = f"command = {command}\nscheme.n = {detected + 1}\nscheme.m = 1\ntarget = {target}\n"
        needs = {"Psi+": "two", "Phi-": "two", "GHZ3": "three"}.get(target)
        if needs and detected != ("two", "three").index(needs) + 2:
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
            parse_scenario(CASE_I_RUN + "target = F5\n")
        expected = f"unknown target 'F5' (expected one of {', '.join(TARGETS)})"
        assert str(info.value) == f"line 6, key 'target': {expected}"

    @pytest.mark.parametrize("target", TARGETS)
    def test_target_without_a_scheme_is_only_named(self, target):
        assert parse_scenario(f"command = oracle-check\ntarget = {target}\n").target == target


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
    # Below t = 1 the parser admits N = 12, whose scheme run stores 2^12 =
    # MAX_ENTANGLE_TERMS terms; at t = 1 alone it admits N = 16.
    PHASES = {"phi0": 0.4, "phi.1": -1.3, "phi.2": 2.2}

    @pytest.mark.parametrize(
        "n, m, grid, target, state",
        [
            (12, 10, (0.9, 1.0), "Psi+", bell_psi_plus()),
            (12, 9, (1.0, 0.9), "GHZ3", ghz_class_three()),
            (16, 14, (1.0,), "Phi-", bell_phi_minus()),
            (16, 13, (1.0,), "F3", entangled_class_state(EntangledClass(EntangledClassId.F3, 3))),
        ],
        ids=["12-10", "12-9", "16-14", "16-13"],
    )
    def test_rows_match_closed_forms(self, tmp_path, n, m, grid, target, state):
        assert min(grid) == 1.0 or 2**n == MAX_ENTANGLE_TERMS
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
                assert abs(float(conc) - total_t) <= 1e-6
            else:
                assert float(conc) <= 1e-6
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
            assert float(row[2]) == pytest.approx(t, abs=1e-6)
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


class TestNumericalFailures:
    @pytest.mark.parametrize("error", [ValidationError, NormalizationError])
    def test_numerical_errors_exit_numeric(self, tmp_path, monkeypatch, error):
        import pisim.cli as cli

        def fail(_state):
            raise error("injected failure")

        monkeypatch.setattr(cli, "conditional_detected_state", fail)
        text = "command = entangle\nscheme.n = 3\nscheme.m = 1\nentangle.grid = 1\n"
        out = tmp_path / "ent.csv"
        assert execute(parse_scenario(text), out_path=str(out)) == EXIT_NUMERIC
        assert not out.exists()

    def test_non_finite_density_exits_numeric(self, tmp_path, monkeypatch, capsys):
        import pisim.cli as cli

        def nan_density(_state):
            basis = ((detector(1), detector(2)), (primed_detector(1), primed_detector(2)))
            return DensityMatrix((1, 2), basis, np.full((2, 2), math.nan))

        monkeypatch.setattr(cli, "conditional_detected_state", nan_density)
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
        import pisim.cli as cli

        exact = cli.branch_probabilities

        def skewed(*args, **kwargs):
            table = exact(*args, **kwargs)
            return table._replace(loss_free=table.loss_free * 1.001)

        monkeypatch.setattr(cli, "branch_probabilities", skewed)
        scenario, out = tmp_path / "case.scenario", tmp_path / "out.csv"
        scenario.write_text(text)
        capsys.readouterr()
        assert main([command, "--scenario", str(scenario), "--out", str(out)]) == EXIT_NUMERIC
        assert capsys.readouterr().err == message
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

    @pytest.mark.parametrize("scenario", sorted(GOLDEN.glob("*.scenario")), ids=lambda p: p.stem)
    def test_bytes_match(self, tmp_path, scenario):
        command = parse_scenario(scenario.read_text()).command
        out = tmp_path / "out.csv"
        assert main([command, "--scenario", str(scenario), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == scenario.with_suffix(".csv").read_bytes()


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

    def test_deviation_exits_nonzero(self, tmp_path, monkeypatch):
        import pisim.cli as cli

        monkeypatch.setattr(cli, "_oracle_fidelity", lambda cfg: 0.5)
        text = "command = oracle-check\noracle.cases = 1\noracle.max_detected = 1\noracle.max_aligned = 0\n"
        out = tmp_path / "oracle.csv"
        assert execute(parse_scenario(text), out_path=str(out)) == EXIT_NUMERIC
        assert out.read_text().splitlines()[-1].endswith("fail")


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
    @pytest.mark.parametrize("scenario", sorted(GOLDEN.glob("*.scenario")), ids=lambda p: p.stem)
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
        head = f"command = run\n# a{char}b = 1\nscheme.n = 3\nscheme.m = 1\n"
        cases = [
            ("bogus = 1", "line 5, key 'bogus': unknown key"),
            (f"scheme.phi0 = 1{char}5", f"line 5, key 'scheme.phi0': expected a number, got "
             f"{'1' + char + '5'!r}"),
            (f"target = Psi{char}+", f"line 5, key 'target': unknown target {'Psi' + char + '+'!r}"
             f" (expected one of {', '.join(TARGETS)})"),
        ]  # fmt: skip
        path = tmp_path / "case.scenario"
        for line, message in cases:
            path.write_bytes((head + line + "\n").encode("utf-8"))
            assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "o.csv")]) == 1
            assert capsys.readouterr().err == f"pisim: scenario error: {message}\n"
        path.write_bytes((head + f"scheme.phi0 = 1.5{char}\n").encode("utf-8"))  # trailing: blank
        assert parse_scenario(path.read_bytes().decode("utf-8")).scheme.phi0 == 1.5

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
        scenario_path = tmp_path / "run.scenario"
        shutil.copy(GOLDEN / "run_lossy.scenario", scenario_path)
        (tmp_path / "out").mkdir()
        names = {"s": scenario_path, "o": tmp_path / "out", "d": tmp_path}
        argv = ["run", "--scenario", scenario.format(**names), "--out", out.format(**names)]
        assert main(argv) == EXIT_IO
        printed = capsys.readouterr()
        assert printed.err.startswith(message) and printed.err.count("\n") == 1
        assert printed.out == ""
        assert list((tmp_path / "out").iterdir()) == []


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
        argv = ["run", "--scenario", str(GOLDEN / "run_lossy.scenario"), f"--out={out}"]
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == (GOLDEN / "run_lossy.csv").read_bytes()


#: Words that stand for files made fresh in a scratch directory for each example.
_PLACEHOLDERS = ("<run>", "<sweep>", "<entangle>", "<oracle>", "<bad>", "<out>", "<dir>")
_SCENARIO_COPIES = {"run": "run_lossy", "sweep": "sweep_lossy", "entangle": "entangle_psi_plus"}
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
    oracle = ["command = oracle-check", "oracle.cases = 1", "oracle.max_detected = 1"]
    (argument_dir / "oracle").write_text("\n".join(oracle + ["oracle.max_aligned = 0\n"]))
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
#: Prefixes of the keys each command accepts beyond ``command``, ``scheme.n`` and
#: ``scheme.m`` (``entangle`` rejects ``scheme.transmission.<l>``).
_COMMAND_KEYS = {
    "run": ("scheme.", "target", "output"),
    "sweep": ("scheme.", "sweep.", "target", "output"),
    "entangle": ("scheme.", "entangle.", "target", "output"),
    "oracle-check": ("oracle.", "target", "output"),
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
    required = ["command", "scheme.n", "scheme.m"] + ["sweep.variable"] * (command == "sweep")
    pairs = [(key, command if key == "command" else value(key)) for key in required]
    sizes = dict(pairs)
    pairs = [pair for pair in pairs if rnd.random() < 0.95]
    prefixes = _COMMAND_KEYS.get(command, ("scheme.",))
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
    """Whether an accepted scenario lies within every parse-time cost bound."""
    scheme = scenario.scheme  # oracle-check reads a scheme only to check the target
    if scenario.command != "oracle-check" and not 1 <= scheme.n_detected <= scheme.n_particles:
        return False
    if scheme is not None and scheme.n_particles > MAX_PARTICLES:
        return False
    if scenario.sweep is not None:
        steps = scenario.sweep.steps
        return 8 <= steps <= MAX_SWEEP_STEPS and steps * 2**scheme.n_detected <= MAX_SWEEP_CELLS
    if scenario.oracle is not None:
        spec = scenario.oracle
        return spec.cases * spec.max_detected * (spec.max_aligned + 1) <= MAX_ORACLE_RUNS
    if scenario.command == "entangle":
        grid = scenario.entangle_grid  # the parser fills in the default grid
        terms_ok = min(grid) == 1.0 or 2**scheme.n_particles <= MAX_ENTANGLE_TERMS
        return len(grid) <= MAX_ENTANGLE_GRID and terms_ok and scheme.n_detected in (2, 3)
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
    key.  An accepted document lies within every parse-time bound, and a small one runs
    through ``main``."""
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
    if not _quick(scenario):
        event("accepted, parsed only")
        return
    capture = io.StringIO()
    with contextlib.redirect_stderr(capture):
        code = main([scenario.command, "--scenario", str(path), "--out", str(out), "--seed", "7"])
    event(f"accepted: {scenario.command} exit {code}")
    assert (code, capture.getvalue()) == (EXIT_OK, "")
