"""Tests for pattern sweeps, visibility, and entanglement measures."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pisim import (
    DensityMatrix,
    EntangledClass,
    EntangledClassId,
    NormalizationError,
    SchemeConfig,
    VisibilityUndefinedError,
    aligned_beam,
    bell_phi_minus,
    bell_psi_plus,
    entangled_class_state,
    concurrence,
    conditional_detected_state,
    density_from_mixture,
    detector,
    detector_outcome,
    fidelity,
    ghz_class_three,
    loss,
    one_to_rest_concurrence,
    partial_trace,
    primed_detector,
    pure_state_from_density,
    pure_state_from_terms,
    run_scheme,
    state_fidelity,
    sweep_pattern,
    three_tangle,
    to_density,
    visibility,
)
from pisim.interferometer import branch_probabilities
from conftest import case_i, random_detector_state

FULL_TURN = [k * math.tau / 64 for k in range(64)]
T3_GRID = [k / 10 for k in range(11)]


def qubit_basis_pair() -> tuple:
    return (
        (detector(1), detector(2)),
        (detector(1), primed_detector(2)),
        (primed_detector(1), detector(2)),
        (primed_detector(1), primed_detector(2)),
    )


def even_parity_mixture(t3: float) -> DensityMatrix:
    return density_from_mixture(
        [((1 - t3) / 2, bell_phi_minus()), ((1 + t3) / 2, bell_psi_plus())]
    )


@st.composite
def aligned_schemes(draw) -> SchemeConfig:
    """Up to 12 particles with at least one aligned and one detected, any phases and
    transmissions, t = 0 and 1 included."""
    n_total = draw(st.integers(2, 12))
    m = draw(st.integers(1, n_total - 1))
    phases, transmissions = st.floats(-7.0, 7.0), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    return SchemeConfig(
        n_total,
        m,
        phi0=draw(phases),
        phi=tuple(draw(phases) for _ in range(n_total - m)),
        theta=tuple(draw(phases) for _ in range(m)),
        transmission=tuple(draw(transmissions) for _ in range(m)),
    )


def w_state():
    return pure_state_from_terms(
        [(detector_outcome(p), 1 / math.sqrt(3)) for p in ((0, 0, 1), (0, 1, 0), (1, 0, 0))]
    )


class TestSweepPattern:
    def test_case_i_matches_closed_pattern(self):
        phi_sum = 0.6
        rows = sweep_pattern(case_i(phi0=phi_sum), "theta.3", FULL_TURN)
        assert rows.shape == (len(FULL_TURN), 4)
        for x, sign in ((0, -1), (1, +1)):  # outcomes 00 and 01
            expected = (1 + sign * np.cos(phi_sum - np.array(FULL_TURN))) / 4
            assert np.abs(rows[:, x] - expected).max() <= 1e-10

    def test_two_aligned_pattern_shifts_by_fixed_theta(self):
        theta3 = 0.3
        cfg = SchemeConfig(4, 2, theta=(theta3, 0.0))
        samples = sweep_pattern(cfg, "theta.4", FULL_TURN)[:, 0]
        expected = (1 - np.cos(-theta3 - np.array(FULL_TURN))) / 4
        assert np.abs(samples - expected).max() <= 1e-10

    def test_blocked_attenuator_flattens_all_patterns(self):
        rows = sweep_pattern(case_i(t3=0.0), "theta.3", FULL_TURN)
        assert np.abs(rows - 0.25).max() <= 1e-12

    def test_unknown_variable_rejected(self):
        for grid in (FULL_TURN, []):  # whatever the grid
            with pytest.raises(ValueError, match="unknown phase variable 'theta.2'"):
                sweep_pattern(case_i(), "theta.2", grid)


def _pattern(phases) -> np.ndarray:
    """Outcome 00 of case I along ``phases`` of theta.3: (1 - cos theta)/4."""
    return (1 - np.cos(np.array(phases, dtype=float))) / 4


class TestVisibility:
    @pytest.mark.parametrize("t3", [0.7, 1.0])
    def test_recovers_transmission(self, t3):
        rows = sweep_pattern(case_i(t3=t3), "theta.3", FULL_TURN)
        for x in range(4):
            assert visibility(FULL_TURN, rows[:, x]) == pytest.approx(t3, abs=1e-6)

    def test_constant_nonzero_pattern_has_zero_visibility(self):
        rows = sweep_pattern(case_i(t3=0.0), "theta.3", FULL_TURN)
        assert visibility(FULL_TURN, rows[:, 3]) == pytest.approx(0.0, abs=1e-6)

    def test_zero_pattern_is_undefined(self):
        grid = tuple(k * math.tau / 16 for k in range(16))
        with pytest.raises(VisibilityUndefinedError):
            visibility(grid, np.zeros(16))

    def test_partial_period_rejected(self):
        grid = [k * math.pi / 32 for k in range(32)]  # covers only [0, pi)
        rows = sweep_pattern(case_i(), "theta.3", grid)
        with pytest.raises(ValueError, match="full 2\\*pi period"):
            visibility(grid, rows[:, 0])

    def test_grid_must_have_enough_points(self):
        for count in (0, 3, 7):
            grid = [k * math.tau / count for k in range(count)]
            with pytest.raises(ValueError) as caught:
                visibility(grid, _pattern(grid))
            assert str(caught.value) == f"a pattern needs at least 8 phases, got {count}"

    def test_eight_points_suffice(self):
        grid = [k * math.tau / 8 for k in range(8)]
        assert visibility(grid, _pattern(grid)) == pytest.approx(1.0, abs=1e-12)

    def test_grid_must_increase(self):
        for earlier in (4, 3):  # a repeated phase, then a decreasing one
            grid = list(FULL_TURN)
            grid[5] = grid[earlier]
            with pytest.raises(ValueError) as caught:
                visibility(grid, _pattern(grid))
            assert str(caught.value) == "pattern phases must be finite and strictly increasing"

    @pytest.mark.parametrize("phase", [math.nan, math.inf])
    def test_phases_must_be_finite(self, phase):
        grid = list(FULL_TURN)
        grid[-1 if phase == math.inf else 7] = phase
        with pytest.raises(ValueError) as caught:
            visibility(grid, _pattern(FULL_TURN))
        assert str(caught.value) == "pattern phases must be finite and strictly increasing"

    @pytest.mark.parametrize(
        "samples, shape",
        [(_pattern(FULL_TURN)[:-1], "(63,)"), (np.zeros((64, 1)), "(64, 1)"), (0.25, "()")],
        ids=["short", "column-matrix", "scalar"],
    )
    def test_one_sample_per_phase(self, samples, shape):
        with pytest.raises(ValueError) as caught:
            visibility(FULL_TURN, samples)
        assert str(caught.value) == f"sample shape {shape} does not match phase shape (64,)"

    @pytest.mark.parametrize("cell", [-2e-9, 1.0 + 2e-9, -1.0, math.nan])
    def test_samples_must_be_probabilities(self, cell):
        samples = _pattern(FULL_TURN)
        samples[7] = cell
        with pytest.raises(ValueError) as caught:
            visibility(FULL_TURN, samples)
        assert str(caught.value) == "pattern probabilities must lie in [0, 1]"

    def test_rounding_slack_accepted(self):
        samples = _pattern(FULL_TURN)
        samples[0], samples[32] = -1e-9, 0.5 + 1e-9  # the trough and the peak
        assert visibility(FULL_TURN, samples) == pytest.approx(1.0, abs=1e-8)

    @given(cfg=aligned_schemes(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_column_gives_the_total_transmission(self, cfg, data):
        variable = f"theta.{data.draw(st.sampled_from(cfg.aligned_range))}"
        steps = data.draw(st.integers(8, 64))
        start = data.draw(st.floats(-7.0, 7.0))
        grid = [start + k * math.tau / steps for k in range(steps)]
        pattern = branch_probabilities(cfg, variable, grid).marginal
        total_t = math.prod(cfg.transmission)
        for x in range(pattern.shape[1]):
            assert abs(visibility(grid, pattern[:, x]) - total_t) <= 1e-9


class TestConcurrence:
    def test_even_parity_mixture_equals_transmission(self):
        assert concurrence(even_parity_mixture(0.5)) == pytest.approx(0.5, abs=1e-6)

    def test_product_state_is_separable(self):
        rho = to_density(pure_state_from_terms([(detector_outcome((0, 0)), 1.0)]))
        assert concurrence(rho) == pytest.approx(0.0, abs=1e-9)

    def test_bell_state_is_maximal(self):
        assert concurrence(to_density(bell_psi_plus())) == pytest.approx(1.0, abs=1e-9)

    def test_wrong_particle_count_rejected(self):
        rho = to_density(pure_state_from_terms([(detector_outcome((0, 0, 0)), 1.0)]))
        with pytest.raises(ValueError):
            concurrence(rho)

    def test_non_detector_labels_rejected(self):
        psi = pure_state_from_terms(
            [((detector(1), primed_detector(2)), math.sqrt(0.5)),
             ((primed_detector(1), detector(2)), math.sqrt(0.5))]
        )
        rho = to_density(psi)
        bad = pure_state_from_terms(
            [((detector(1), detector(3)), 1.0)]
        )
        with pytest.raises(ValueError):
            concurrence(to_density(bad))
        assert concurrence(rho) == pytest.approx(1.0, abs=1e-9)

    def test_invariant_under_identical_port_relabeling(self):
        rho = even_parity_mixture(0.62)
        base = concurrence(rho)
        # sqrt of the spin-flip spectrum turns O(1e-17) eigenvalue noise into
        # O(1e-9) concurrence noise, so exact equality is out of reach.
        for permutation in ((1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)):
            permuted = rho.matrix[np.ix_(permutation, permutation)]
            relabeled = DensityMatrix(rho.kept_particles, rho.basis, permuted)
            assert concurrence(relabeled) == pytest.approx(base, abs=1e-7)


class TestThreeTangle:
    def test_ghz_class_is_maximal(self):
        psi = ghz_class_three()
        assert three_tangle(psi) == pytest.approx(1.0, abs=1e-9)
        full = to_density(psi)
        for pair in ((1, 2), (1, 3), (2, 3)):
            assert concurrence(partial_trace(full, pair)) <= 1e-9
        for particle in (1, 2, 3):
            assert one_to_rest_concurrence(psi, particle) == pytest.approx(1.0, abs=1e-9)

    def test_product_state_has_no_tangle(self):
        psi = pure_state_from_terms([(detector_outcome((0, 0, 0)), 1.0)])
        assert three_tangle(psi) == pytest.approx(0.0, abs=1e-12)

    def test_both_odd_classes_are_maximal_at_three_particles(self):
        for class_id in (EntangledClassId.F3, EntangledClassId.F4):
            psi = entangled_class_state(EntangledClass(class_id, 3))
            assert three_tangle(psi) == pytest.approx(1.0, abs=1e-9)

    def test_w_state_values(self):
        # Exact reduced matrices of the W state give C_1(23) = 2*sqrt(2)/3 and
        # pairwise concurrence 2/3, so the residual tangle vanishes.
        psi = w_state()
        assert three_tangle(psi) == pytest.approx(0.0, abs=1e-12)
        assert one_to_rest_concurrence(psi, 1) == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-12)
        pair = partial_trace(to_density(psi), (1, 2))
        assert concurrence(pair) == pytest.approx(2 / 3, abs=1e-9)

    def test_wrong_particle_count_rejected(self):
        with pytest.raises(ValueError):
            three_tangle(bell_psi_plus())

    def test_unnormalized_rejected(self):
        psi = pure_state_from_terms([(detector_outcome((0, 0, 0)), 0.5)])
        with pytest.raises(NormalizationError):
            three_tangle(psi)

    def test_hyperdeterminant_matches_the_residual_route(self):
        # C_{1(23)}^2 - C_12^2 - C_13^2 carries the square root of rounding noise
        # through the pair concurrences, so the two routes agree to ~1e-8 only
        rng = np.random.default_rng(20170227)
        for _ in range(1000):
            psi = random_detector_state(rng, 3)
            residual = (
                one_to_rest_concurrence(psi, 1) ** 2
                - concurrence(to_density(psi, (1, 2))) ** 2
                - concurrence(to_density(psi, (1, 3))) ** 2
            )
            tangle = three_tangle(psi)
            assert 0.0 <= tangle <= 1.0
            assert abs(tangle - residual) <= 1e-7

    def test_exact_values(self):
        assert three_tangle(w_state()) == 0.0
        maximal = [ghz_class_three()] + [
            entangled_class_state(EntangledClass(class_id, 3))
            for class_id in (EntangledClassId.F3, EntangledClassId.F4)
        ]
        for psi in maximal:
            assert abs(three_tangle(psi) - 1.0) <= 1e-15

    def test_missing_outcomes_have_zero_amplitude(self):
        half = math.sqrt(0.5)
        ghz = pure_state_from_terms(
            [(detector_outcome((0, 0, 0)), half), (detector_outcome((1, 1, 1)), half)]
        )
        assert abs(three_tangle(ghz) - 1.0) <= 1e-15
        # particle 1 in a product with a Bell pair of particles 2 and 3
        biseparable = pure_state_from_terms(
            [(detector_outcome((0, 0, 0)), half), (detector_outcome((0, 1, 1)), half)]
        )
        assert three_tangle(biseparable) == 0.0

    @pytest.mark.parametrize(
        "outcome",
        [
            (aligned_beam(1), detector(2), detector(3)),
            (detector(1), detector(2), loss(3)),
            (detector(2), detector(1), detector(3)),
            (detector(1), primed_detector(3), detector(3)),
        ],
        ids=["aligned", "loss", "swapped-particles", "foreign-port"],
    )
    def test_label_outside_its_detector_ports_rejected(self, outcome):
        psi = pure_state_from_terms([(outcome, 1.0)])
        with pytest.raises(ValueError, match="cannot be mapped to a detector port"):
            three_tangle(psi)


class TestFidelity:
    def test_projector_on_its_own_state(self):
        assert fidelity(to_density(bell_psi_plus()), bell_psi_plus()) == pytest.approx(1.0)

    def test_even_mixture_against_psi_plus(self):
        assert fidelity(even_parity_mixture(0.5), bell_psi_plus()) == pytest.approx(0.75)
        assert fidelity(even_parity_mixture(0.0), bell_psi_plus()) == pytest.approx(0.5)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fidelity(even_parity_mixture(0.5), ghz_class_three())

    def test_unnormalized_target_rejected(self):
        target = pure_state_from_terms([(detector_outcome((0, 0)), 0.3)])
        with pytest.raises(NormalizationError):
            fidelity(even_parity_mixture(0.5), target)


class TestEntanglementLaws:
    def test_concurrence_equals_visibility_equals_transmission(self):
        for t3 in T3_GRID:
            rho = conditional_detected_state(run_scheme(case_i(t3=t3)))
            rows = sweep_pattern(case_i(t3=t3), "theta.3", FULL_TURN)
            seen_c = concurrence(rho)
            seen_v = visibility(FULL_TURN, rows[:, 1])  # outcome 01
            assert abs(seen_c - t3) <= 1e-6
            assert abs(seen_v - t3) <= 1e-6

    def test_fidelity_tracks_visibility_for_both_parities(self):
        for t3 in T3_GRID:
            rows = sweep_pattern(case_i(t3=t3), "theta.3", FULL_TURN)
            seen_v = visibility(FULL_TURN, rows[:, 1])  # outcome 01
            even = conditional_detected_state(run_scheme(case_i(t3=t3)))
            odd = conditional_detected_state(run_scheme(case_i(phi0=math.pi, t3=t3)))
            assert abs(fidelity(even, bell_psi_plus()) - (1 + seen_v) / 2) <= 1e-9
            assert abs(fidelity(odd, bell_phi_minus()) - (1 + seen_v) / 2) <= 1e-9

    @pytest.mark.parametrize("t3", [0.0, 0.5, 1.0])
    def test_parity_matrices(self, t3):
        even = conditional_detected_state(run_scheme(case_i(t3=t3)))
        odd = conditional_detected_state(run_scheme(case_i(phi0=math.pi, t3=t3)))
        plus, minus = (1 + t3) / 4, (1 - t3) / 4
        expected_even = np.array(
            [
                [minus, 0, 0, -minus],
                [0, plus, plus, 0],
                [0, plus, plus, 0],
                [-minus, 0, 0, minus],
            ]
        )
        expected_odd = np.array(
            [
                [plus, 0, 0, -plus],
                [0, minus, minus, 0],
                [0, minus, minus, 0],
                [-plus, 0, 0, plus],
            ]
        )
        assert even.basis == qubit_basis_pair()
        np.testing.assert_allclose(even.matrix, expected_even, atol=1e-12)
        np.testing.assert_allclose(odd.matrix, expected_odd, atol=1e-12)


class TestPureStateFromDensity:
    def test_roundtrip(self):
        recovered = pure_state_from_density(to_density(bell_psi_plus()))
        assert state_fidelity(recovered, bell_psi_plus()) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_state_rejected(self):
        with pytest.raises(ValueError):
            pure_state_from_density(even_parity_mixture(0.5))
