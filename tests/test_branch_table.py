"""Three routes to the coincidence probabilities agree: the two-branch table that
the CLI prints, the sparse stage-by-stage engine, and the attenuated coincidence law."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pisim import SchemeConfig, outcome_probabilities, run_scheme, sweep_pattern
from pisim.cli import _fmt
from pisim.interferometer import branch_probabilities
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
        table = branch_probabilities(cfg)
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
        table = branch_probabilities(cfg, variable, grid)
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
        table = branch_probabilities(cfg, variable, [])
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
        table = branch_probabilities(cfg)
        assert_matches_engine(cfg, table)
        assert abs(table.loss_free.sum() + table.lost - 1.0) <= 1e-12
