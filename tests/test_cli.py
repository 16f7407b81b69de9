"""Tests for scenario parsing and the command-line front end."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from pisim import NormalizationError, ScenarioParseError, ValidationError
from pisim.cli import (
    EXIT_INVALID,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    MAX_SWEEP_STEPS,
    MAX_SWEEP_TERMS,
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
        [(8, 0.5, 16), (8, 1.0, 4096), (7, 1.0, 2048), (15, 1.0, 4096)],
    )
    def test_sweep_term_bound_accepts(self, m, transmission, steps):
        text = self._large_sweep(m, transmission, steps)
        assert parse_scenario(text).sweep.steps == steps

    @pytest.mark.parametrize(
        "m, transmission, steps",
        [(8, 0.5, 17), (8, 0.5, 4096), (15, 0.999, 32), (7, 1.0, 2049)],
    )
    def test_sweep_term_bound_rejects(self, m, transmission, steps):
        text = self._large_sweep(m, transmission, steps)
        with pytest.raises(ScenarioParseError, match=f"limit of {MAX_SWEEP_TERMS}") as info:
            parse_scenario(text)
        assert info.value.key == "sweep.steps"
        assert info.value.line == text.splitlines().index(f"sweep.steps = {steps}") + 1

    @staticmethod
    def _large_sweep(m, transmission, steps):
        """A sweep at N = 16 whose last aligned particle has ``transmission``:
        2^16 stored terms per run below t = 1, 2^(16-m) at t = 1."""
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
