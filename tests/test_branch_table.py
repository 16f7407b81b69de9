"""Three routes to the coincidence probabilities agree: the two-branch table that
the CLI prints, the sparse stage-by-stage engine, and the attenuated coincidence law."""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pisim import MAX_PARTICLES, ConfigError, SchemeConfig, outcome_probabilities, run_scheme, sweep_pattern
from pisim.cli import _fmt
from pisim.interferometer import (
    DetectedState,
    apply_path_identity,
    build_two_source_state,
    detected_state,
)
from pisim.states import AMPLITUDE_EPSILON
from conftest import attenuated_coincidence

#: Where the two routes print different 12-digit texts, the values must lie this
#: close: ``TIE`` relative, plus ``TIE`` times the amplitude scale 2^(-(n+1)/2) on the
#: amplitude.  The engine multiplies n + 1 rounded factors sqrt(1/2) into every
#: amplitude (a relative bias of up to (n + 1) 1.4e-16 in its probabilities, 1.8e-15
#: at n = 12), and its amplitudes carry a rounding error of that order of the scale,
#: so near a cancellation (say 1.25e-19 printed as 1.25000006807e-19) it dominates.
TIE = 4e-15

#: t = 0 and 1, any t, and a t small enough that T = prod t sits near
#: AMPLITUDE_EPSILON, where the engine prunes the attenuated branch mid-way.
TRANSMISSIONS = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), st.floats(1e-15, 1e-13)
)
PHASES = st.floats(-7.0, 7.0)
#: Interference phases at which one parity of outcomes cancels exactly when T = 1.
CANCELLING_XI = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)


@st.composite
def schemes(draw, max_particles: int = 12) -> SchemeConfig:
    n_total = draw(st.integers(1, max_particles))
    m = draw(st.integers(0, n_total - 1))
    if draw(st.integers(0, 3)) == 0:
        return SchemeConfig(n_total, m, phi0=draw(st.sampled_from(CANCELLING_XI)))
    return SchemeConfig(
        n_total,
        m,
        phi0=draw(PHASES),
        phi=tuple(draw(PHASES) for _ in range(n_total - m)),
        theta=tuple(draw(PHASES) for _ in range(m)),
        transmission=tuple(draw(TRANSMISSIONS) for _ in range(m)),
    )


def assert_routes_agree(table: np.ndarray, sparse: np.ndarray) -> None:
    """One table row against the engine's row, column for column."""
    assert table.shape == sparse.shape
    scale = math.sqrt(0.5 / len(table))
    for x, (a, b) in enumerate(zip(table.tolist(), sparse.tolist())):
        assert (a == 0.0) == (b == 0.0), (x, a, b)
        assert abs(a - b) <= 1e-12, (x, a, b)
        if _fmt(a) != _fmt(b):
            top = max(a, b)
            assert abs(a - b) <= TIE * (top + 2 * math.sqrt(top) * scale), (x, a, b)


def assert_matches_engine(cfg: SchemeConfig, table, row: int = 0) -> None:
    sparse = outcome_probabilities(run_scheme(cfg))
    assert type(sparse) is type(table)
    assert sparse.loss_free.shape == sparse.marginal.shape == (1, table.loss_free.shape[1])
    assert_routes_agree(table.loss_free[row], sparse.loss_free[0])
    assert_routes_agree(table.marginal[row], sparse.marginal[0])
    assert abs(table.lost - sparse.lost) <= 1e-12


class TestThreeRoutes:
    @given(cfg=schemes())
    @example(cfg=SchemeConfig(12, 4, transmission=(1e-14, 1.0, 1.0, 1.0)))
    @example(cfg=SchemeConfig(12, 1, phi0=math.pi / 2, transmission=(1.0,)))
    @example(cfg=SchemeConfig(5, 2, transmission=(0.0, 0.5)))
    @settings(max_examples=80, deadline=None)
    def test_table_matches_engine_and_law(self, cfg):
        table = detected_state(cfg).table()
        assert table.loss_free.shape == table.marginal.shape == (1, 2**cfg.n_detected)
        assert_matches_engine(cfg, table)
        total_t, n = math.prod(cfg.transmission), cfg.n_detected
        for x, value in enumerate(table.loss_free[0]):
            expected = attenuated_coincidence(n, bin(x).count("1"), total_t, cfg.xi)
            assert abs(value - expected) <= 1e-12
        assert abs(table.lost - (1 - total_t**2) / 2) <= 1e-12
        assert abs(table.loss_free.sum() + table.lost - 1.0) <= 1e-12

    @given(cfg=schemes(max_particles=8), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_sweep_rows_match_engine_per_phase(self, cfg, data):
        variables = ["phi0"] + [f"phi.{j}" for j in cfg.detected_range]
        variables += [f"theta.{l}" for l in cfg.aligned_range]
        variable = data.draw(st.sampled_from(variables))
        grid = data.draw(st.lists(PHASES | st.sampled_from(CANCELLING_XI), min_size=1, max_size=4))
        table = detected_state(cfg, variable, grid).table()
        assert table.loss_free.shape == (len(grid), 2**cfg.n_detected)
        pattern = sweep_pattern(cfg, variable, grid)  # the engine's marginal, row by row
        assert pattern.shape == table.marginal.shape
        for row, value in enumerate(grid):
            assert_matches_engine(cfg.replace_phase(variable, value), table, row)
            assert_routes_agree(table.marginal[row], pattern[row])

    @pytest.mark.parametrize(
        "cfg, variable",
        [
            (SchemeConfig(3, 1), "theta.3"),
            (SchemeConfig(6, 2), "phi.4"),
            (SchemeConfig(1, 0), "phi0"),
        ],
    )
    def test_empty_sweep_has_no_rows(self, cfg, variable):
        shape = (0, 2**cfg.n_detected)
        assert sweep_pattern(cfg, variable, []).shape == shape
        table = detected_state(cfg, variable, []).table()
        assert table.loss_free.shape == table.marginal.shape == shape

    @pytest.mark.parametrize(
        "cfg",
        [
            SchemeConfig(5, 1, phi=(0.0, 0.0, -1.7e308, 0.0), theta=(0.5,)),
            SchemeConfig(3, 1, phi0=1e15, phi=(0.3, -2.0), transmission=(0.8,)),
        ],
        ids=["0.5-lost-to-1.7e308", "0.3-beside-1e15"],
    )
    def test_phase_left_over_by_a_large_sum(self, cfg):
        # the float sum of the phases drops (part of) the small one; the remainder
        # must still turn the phase, as a unit factor
        table = detected_state(cfg).table()
        assert_matches_engine(cfg, table)
        assert abs(table.loss_free.sum() + table.lost - 1.0) <= 1e-12


def parent_phases(cfg: SchemeConfig, variable: str | None, grid) -> np.ndarray:
    """The phase column of :func:`detected_state` as an earlier loop formed it, one fresh
    chain per value: the reference its bits must equal."""
    row = [cfg.phi0, *cfg.phi, *(-t for t in cfg.theta)]
    slot, values = 0, [cfg.phi0]
    if variable is not None:
        slot = cfg.phase_slot(variable)
        values = [-v if slot > cfg.n_detected else v for v in grid]
    phases = []
    for value in values:
        row[slot] = value
        try:
            hi = math.fsum(row)
            lo = math.fsum(itertools.chain(row, (-hi,)))
            phases.append(cmath.exp(-1j * hi) * cmath.exp(-1j * lo))
        except OverflowError:
            phases.append(math.prod(cmath.exp(-1j * v) for v in row))
    return np.array(phases)[:, None]


def parent_table(state: DetectedState) -> tuple[np.ndarray, np.ndarray, float]:
    """``DetectedState.table()`` written out as one expression per field: the reference
    its bits must equal."""
    n, total = state.n_detected, state.transmission
    turn = (1, -1j, -1, 1j)[n % 4] * np.array([1.0, -1.0])
    weight = np.abs(1.0 + total * state.phase * turn) ** 2 * 0.5 ** (n + 1)
    weight[weight <= AMPLITUDE_EPSILON**2] = 0.0
    loss_free = weight[:, np.array([x.bit_count() % 2 for x in range(2**n)])]
    lost = (1.0 - total * total) / 2
    return loss_free, loss_free + lost * 0.5**n, lost


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


#: Finite phases down to the bit: signed zeros, subnormals, values near the float
#: limit (where fsum overflows) and the phases at which a parity cancels.
EXTREME_PHASES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7e308, -1.7e308]),
    st.sampled_from(CANCELLING_XI),
    st.floats(1.7e308, 1.7976931348623157e308),
    st.floats(-1.7976931348623157e308, -1.7e308),
    st.floats(allow_nan=False, allow_infinity=False),
    PHASES,
)
#: Transmissions near 1 too, where |A|^2 at a cancelling phase sits near the floor.
TABLE_TRANSMISSIONS = TRANSMISSIONS | st.floats(1.0 - 1e-6, 1.0)


@st.composite
def sweeps(draw, max_detected: int = 16, phases=PHASES, max_rows: int = 4):
    """A scheme, a phase variable of every kind (or none) and its grid of values."""
    n = draw(st.integers(1, max_detected))
    m = draw(st.integers(0, MAX_PARTICLES - n))
    cfg = SchemeConfig(
        n + m,
        m,
        phi0=draw(phases),
        phi=tuple(draw(phases) for _ in range(n)),
        theta=tuple(draw(phases) for _ in range(m)),
    )
    names = ["phi0"] + [f"phi.{j}" for j in cfg.detected_range]
    variable = draw(st.sampled_from([None, *names, *(f"theta.{l}" for l in cfg.aligned_range)]))
    if variable is None:
        return cfg, None, ()
    return cfg, variable, draw(st.lists(phases, max_size=max_rows))


class TestSameBits:
    """The two-branch route gives the bits of the expressions written out above."""

    @given(sweep=sweeps(phases=EXTREME_PHASES, max_rows=6))
    @example(sweep=(SchemeConfig(5, 1, phi=(0.0, 0.0, -1.7e308, 0.0), theta=(0.5,)), None, ()))
    @example(sweep=(SchemeConfig(3, 1, phi0=-0.0, phi=(-0.0, -0.0)), "theta.3", [0.0, -0.0]))
    @example(sweep=(SchemeConfig(3, 1, phi0=1.7e308, phi=(1.7e308, 0.0)), "phi.2", [-1.7e308]))
    @settings(max_examples=300, deadline=None)
    def test_phase_column_is_the_parent_loop(self, sweep):
        cfg, variable, grid = sweep
        column = detected_state(cfg, variable, grid).phase
        assert same_bits(column, parent_phases(cfg, variable, grid))

    @given(
        sweep=sweeps(max_detected=12, phases=PHASES | st.sampled_from(CANCELLING_XI)),
        total=TABLE_TRANSMISSIONS,
    )
    @example(sweep=(SchemeConfig(3, 1), "theta.3", list(CANCELLING_XI)), total=1.0)
    @example(sweep=(SchemeConfig(4, 1), "phi0", [math.pi / 2 + 1e-9]), total=1.0 - 1e-9)
    @example(sweep=(SchemeConfig(3, 1), None, ()), total=1.0 - 2e-14)  # |A|^2 5e-29, 2e-28:
    @example(sweep=(SchemeConfig(3, 1), None, ()), total=1.0 - 4e-14)  # either side of the floor
    @settings(max_examples=200, deadline=None)
    def test_table_is_the_parent_expression(self, sweep, total):
        state = detected_state(*sweep)._replace(transmission=total)
        table = state.table()
        loss_free, marginal, lost = parent_table(state)
        assert same_bits(table.loss_free, loss_free) and same_bits(table.marginal, marginal)
        assert type(table.lost) is float and same_bits(np.array(table.lost), np.array(lost))

    @given(
        sweep=sweeps(phases=PHASES | st.sampled_from(CANCELLING_XI)),
        transmissions=st.lists(TABLE_TRANSMISSIONS, min_size=1, max_size=101),
    )
    @example(sweep=(SchemeConfig(3, 1), "theta.3", list(CANCELLING_XI)), transmissions=[0.0, 1.0])
    @settings(max_examples=80, deadline=None)
    def test_pattern_is_column_zero_of_each_table(self, sweep, transmissions):
        state = detected_state(*sweep)
        columns = [state._replace(transmission=t).table().marginal[:, 0] for t in transmissions]
        assert same_bits(state.pattern(transmissions), np.array(columns))


class TestNoDetectedParticle:
    """A scheme with every particle aligned has no coincidence to count: SchemeConfig
    refuses it under field m, so no route is ever handed one."""

    SIZES = [
        dict(n_particles=2, n_aligned=2),
        dict(n_particles=1, n_aligned=1, transmission=(0.5,)),
    ]

    @pytest.mark.parametrize("sizes", SIZES, ids=["2-2", "1-1"])
    def test_construction_rejected_under_field_m(self, sizes):
        with pytest.raises(ConfigError) as info:
            SchemeConfig(**sizes)
        assert info.value.field == "m"
        assert str(info.value) == "a scheme needs a detected particle (n_aligned < n_particles)"

    @pytest.mark.parametrize(
        "call",
        [
            run_scheme,
            lambda cfg: detected_state(cfg).table(),
            lambda cfg: detected_state(cfg, "theta.1", [0.0, 1.0]).table(),
            lambda cfg: detected_state(cfg, "theta.1", []).table(),
            lambda cfg: sweep_pattern(cfg, "theta.1", [0.0, 1.0]),
            lambda cfg: sweep_pattern(cfg, "theta.1", []),
        ],
        ids=["run_scheme", "table", "table-sweep", "table-empty-sweep", "sweep", "empty-sweep"],
    )
    @pytest.mark.parametrize("sizes", SIZES, ids=["2-2", "1-1"])
    def test_rejected_under_field_m(self, call, sizes):
        # every route's contract, wherever the check lives: the call never starts
        with pytest.raises(ConfigError, match="needs a detected particle") as info:
            call(SchemeConfig(**sizes))
        assert info.value.field == "m"


class TestRejectedInputs:
    """The two-branch route refuses what the engine route refuses, in the engine's words."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("variable", ["phi0", "phi.2", "theta.3"])
    def test_non_finite_grid_value_is_named_under_its_variable(self, variable, value):
        message = f"{variable} must be a finite number, got {value!r}"
        for route in (detected_state, sweep_pattern):
            with pytest.raises(ConfigError) as info:
                route(SchemeConfig(3, 1), variable, [0.5, value])
            assert (str(info.value), info.value.field) == (message, variable)

    @pytest.mark.parametrize("grid", [[0.5], [0.5, 1.0]])
    def test_grid_without_a_variable_is_rejected(self, grid):
        with pytest.raises(ValueError, match="^a grid needs a phase variable$"):
            detected_state(SchemeConfig(3, 1), None, grid)

    @pytest.mark.parametrize("value", [1.5, -0.1, math.nan, math.inf])
    def test_pattern_transmission_outside_the_unit_interval(self, value):
        message = f"transmission must lie in [0, 1], got {value}"
        state = detected_state(SchemeConfig(3, 1))
        with pytest.raises(ValueError) as info:
            state.pattern([0.5, value, 1.0])
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            apply_path_identity(build_two_source_state(SchemeConfig(3, 1)), 3, 0.0, value)
        assert str(info.value) == message
