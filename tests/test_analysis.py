"""Tests for pattern sweeps, visibility, and entanglement measures."""

from __future__ import annotations

import cmath
import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pisim import (
    DensityMatrix,
    EntangledClass,
    EntangledClassId,
    LabelKind,
    NormalizationError,
    SchemeConfig,
    ValidationError,
    VisibilityUndefinedError,
    aligned_beam,
    bell_phi_minus,
    bell_psi_plus,
    entangled_class_state,
    concurrence,
    conditional_detected_state,
    detector,
    detector_outcome,
    fidelity,
    ghz_class_three,
    loss,
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
from pisim.analysis import CONCURRENCE_FLOOR, _computational_matrix
from pisim.interferometer import detected_state
from pisim.states import port_outcomes
from conftest import case_i, density_from_mixture, one_to_rest_concurrence, random_detector_state

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


def port_index_reference(outcome, particles) -> int:
    """The ports of ``outcome`` read label by label as a binary number, the first of
    ``particles`` the highest bit, unprimed 0 and primed 1: independent of port_outcomes."""
    bits = {LabelKind.DETECTOR_UNPRIMED: 0, LabelKind.DETECTOR_PRIMED: 1}
    value = 0
    for label, particle in zip(outcome, particles):
        assert label.index == particle
        value = 2 * value + bits[label.kind]
    return value


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
        [
            (_pattern(FULL_TURN)[:-1], "(63,)"),
            (np.zeros((64, 1)), "(64, 1)"),
            (0.25, "()"),
            (np.zeros((2, 63)), "(2, 63)"),
        ],
        ids=["short", "column-matrix", "scalar", "stacked-short"],
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

    @given(
        cfg=aligned_schemes(),
        transmissions=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), max_size=4),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_stacked_patterns_match_one_by_one(self, cfg, transmissions, data):
        # leading axes index patterns: each one's figure keeps the bits of its own 1-D call
        grid = data.draw(st.sampled_from([FULL_TURN, [k * math.tau / 9 for k in range(9)]]))
        sweep = detected_state(cfg, f"theta.{cfg.n_particles}", grid)
        tables = [sweep._replace(transmission=t).table() for t in transmissions]
        samples = np.array([table.marginal.T for table in tables]).reshape(
            len(transmissions), 2**cfg.n_detected, len(grid)
        )
        figures = visibility(grid, samples)
        assert isinstance(figures, np.ndarray) and figures.shape == samples.shape[:-1]
        for index in np.ndindex(samples.shape[:-1]):
            alone = visibility(grid, samples[index])
            assert type(alone) is float and figures[index] == alone
            assert visibility(grid, samples[index][None]).tolist() == [alone]

    def test_stacked_zero_pattern_is_undefined(self):
        samples = np.stack([_pattern(FULL_TURN), np.zeros(64), _pattern(FULL_TURN)])
        with pytest.raises(VisibilityUndefinedError) as caught:
            visibility(FULL_TURN, samples)
        assert str(caught.value) == "pattern is identically zero; visibility is undefined"
        with pytest.raises(VisibilityUndefinedError):
            visibility(FULL_TURN, samples[1:2].reshape(1, 1, 64))

    def test_stacked_samples_must_be_probabilities(self):
        samples = np.stack([_pattern(FULL_TURN), _pattern(FULL_TURN)])
        samples[1, 7] = -1.0
        with pytest.raises(ValueError) as caught:
            visibility(FULL_TURN, samples)
        assert str(caught.value) == "pattern probabilities must lie in [0, 1]"

    @given(cfg=aligned_schemes(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_column_gives_the_total_transmission(self, cfg, data):
        variable = f"theta.{data.draw(st.sampled_from(cfg.aligned_range))}"
        steps = data.draw(st.integers(8, 64))
        start = data.draw(st.floats(-7.0, 7.0))
        grid = [start + k * math.tau / steps for k in range(steps)]
        pattern = detected_state(cfg, variable, grid).table().marginal
        total_t = math.prod(cfg.transmission)
        for x in range(pattern.shape[1]):
            assert abs(visibility(grid, pattern[:, x]) - total_t) <= 1e-9


def port_density(matrix: np.ndarray) -> DensityMatrix:
    return DensityMatrix((1, 2), port_outcomes((1, 2)), matrix)


#: Bell states in the port basis 00, 01, 10, 11: Phi+, Phi-, Psi+, Psi-.
BELL = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) * math.sqrt(0.5)
UNIT = st.floats(-1.0, 1.0)


def local_unitary(a: float, b: float, c: float) -> np.ndarray:
    return np.array(
        [[cmath.exp(1j * b) * math.cos(a), cmath.exp(1j * c) * math.sin(a)],
         [-cmath.exp(-1j * c) * math.sin(a), cmath.exp(-1j * b) * math.cos(a)]]
    )  # fmt: skip


class TestConcurrenceProperties:
    """Wootters' decomposition form against closed forms, at every rank."""

    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(st.tuples(UNIT, UNIT), min_size=4, max_size=4))
    def test_pure_state_is_twice_its_determinant(self, parts):
        amplitudes = np.array([complex(x, y) for x, y in parts])
        assume(np.linalg.norm(amplitudes) > 0.1)
        a00, a01, a10, a11 = amplitudes = amplitudes / np.linalg.norm(amplitudes)
        value = concurrence(port_density(np.outer(amplitudes, amplitudes.conj())))
        assert abs(value - 2 * abs(a00 * a11 - a01 * a10)) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.lists(st.sampled_from([0.0]) | st.floats(0.01, 1.0), min_size=4, max_size=4),
        angles=st.lists(st.floats(0.0, 7.0), min_size=6, max_size=6),
    )
    def test_bell_diagonal_state_under_local_unitaries(self, weights, angles):
        # sum_k w_k |B_k><B_k| has C = max(0, 2 max w - 1) (rank = the nonzero weights),
        # and a local unitary leaves C as it is
        assume(sum(weights) > 0)
        weights = np.array(weights) / sum(weights)
        rotate = np.kron(local_unitary(*angles[:3]), local_unitary(*angles[3:]))
        states = BELL @ rotate.T  # row k: rotate @ B_k
        matrix = (states.T * weights) @ states.conj()
        value = concurrence(port_density(matrix))
        assert abs(value - max(0.0, 2 * weights.max() - 1)) <= 1e-12

    def test_rank_two_state_takes_no_root_of_rounding(self):
        # the Psi+ golden row at t = 0.2: the two zero eigenvalues come out near 1e-17,
        # whose roots (about 5e-9) the spin-flip eigenvalue form subtracted
        rho = conditional_detected_state(run_scheme(SchemeConfig(3, 1, transmission=(0.2,))))
        assert concurrence(rho) == pytest.approx(0.2, abs=1e-15)

    def test_separable_pairs_are_exactly_zero(self):
        # every pair of three detected particles is separable; rounding leaves up to
        # about 3e-16 on 25 of these 40 engine states, which the floor reports as 0
        assert CONCURRENCE_FLOOR == 1e-12
        for k in range(40):
            cfg = SchemeConfig(4, 1, phi0=0.1 * k, transmission=(0.05 * (k % 20),))
            pair = partial_trace(conditional_detected_state(run_scheme(cfg)), (1, 2))
            assert concurrence(pair) == 0.0


class TestOneToRestConcurrence:
    """``2 s1 s2`` of the particle's amplitude matrix, the route that the residual tangle
    of ``test_hyperdeterminant_matches_the_residual_route`` takes."""

    def test_normalized_product_state_is_exactly_zero(self):
        # the determinant route gave 7.1e-9 here: the root of a rounding-level determinant
        c, s = math.cos(0.3), math.sin(0.3)
        factor = ((0, c), (1, s))
        terms = [(detector_outcome((a, b)), x * y) for a, x in factor for b, y in factor]
        psi = pure_state_from_terms(terms).normalized()
        assert one_to_rest_concurrence(psi, 1) == one_to_rest_concurrence(psi, 2) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(
        parts=st.lists(st.tuples(UNIT, UNIT) | st.just((0.0, 0.0)), min_size=4, max_size=4),
        particle=st.sampled_from([1, 2]),
    )
    def test_two_particles_give_the_pair_concurrence(self, parts, particle):
        amplitudes = [complex(x, y) for x, y in parts]
        assume(sum(abs(a) ** 2 for a in amplitudes) > 0.01)
        psi = pure_state_from_terms(zip(port_outcomes((1, 2)), amplitudes)).normalized()
        value = one_to_rest_concurrence(psi, particle)
        assert abs(value - concurrence(to_density(psi))) <= 1e-12

    def test_what_is_not_a_figure(self):
        with pytest.raises(ValueError, match=r"particles \[3\] are not part of this state"):
            one_to_rest_concurrence(bell_psi_plus(), 3)
        with pytest.raises(NormalizationError):
            one_to_rest_concurrence(pure_state_from_terms([(detector_outcome((0, 0)), 0.5)]), 1)


class TestConcurrence:
    def test_even_parity_mixture_equals_transmission(self):
        assert concurrence(even_parity_mixture(0.5)) == pytest.approx(0.5, abs=1e-12)

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
        # a label of particle 3 in particle 2's slot: no density matrix holds it
        with pytest.raises(ValidationError, match="carries d3, which is not a label of particle 2"):
            to_density(bad)
        assert concurrence(rho) == pytest.approx(1.0, abs=1e-9)

    def test_incomplete_basis_is_embedded_at_its_port_columns(self):
        # two of the four port outcomes of particles 1 and 3, so the basis is incomplete
        d1, p1, d3, p3 = detector(1), primed_detector(1), detector(3), primed_detector(3)
        basis = ((d1, p3), (p1, d3))
        matrix = np.array([[0.7, 0.3 - 0.2j], [0.3 + 0.2j, 0.3]])
        rho = DensityMatrix((1, 3), basis, matrix)
        columns = [port_index_reference(outcome, (1, 3)) for outcome in basis]
        assert columns == [1, 2]
        dense = np.zeros((4, 4), dtype=complex)
        dense[np.ix_(columns, columns)] = matrix
        assert np.array_equal(_computational_matrix(rho), dense)
        completed = DensityMatrix((1, 3), ((d1, d3), (d1, p3), (p1, d3), (p1, p3)), dense)
        assert concurrence(rho) == concurrence(completed)

    @pytest.mark.parametrize(
        "outcome, error, message",
        [
            ((detector(1), aligned_beam(2)), ValueError, "cannot be mapped to a detector port"),
            ((detector(1), loss(2)), ValueError, "cannot be mapped to a detector port"),
            ((detector(2), detector(1)), ValidationError, "carries d2, which is not a label"),
            ((detector(1), primed_detector(3)), ValidationError, "carries d3', which is not a label"),
        ],
        ids=["aligned", "loss", "swapped-particles", "foreign-port"],
    )
    def test_label_outside_its_detector_ports_rejected(self, outcome, error, message):
        # a label of another particle is rejected by DensityMatrix, a mode that is no
        # detector port by concurrence
        with pytest.raises(error, match=message):
            concurrence(DensityMatrix((1, 2), (outcome,), [[1.0]]))

    def test_invariant_under_identical_port_relabeling(self):
        rho = even_parity_mixture(0.62)
        base = concurrence(rho)
        for permutation in ((1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)):
            permuted = rho.matrix[np.ix_(permutation, permutation)]
            relabeled = DensityMatrix(rho.kept_particles, rho.basis, permuted)
            assert concurrence(relabeled) == pytest.approx(base, abs=1e-12)


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
            assert abs(tangle - residual) <= 1e-12

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

    def test_target_over_other_particles_rejected(self):
        # the target's labels are d1 and d2, the basis holds d1 and d3: no outcome overlaps
        rho = partial_trace(conditional_detected_state(run_scheme(SchemeConfig(4, 1))), (1, 3))
        with pytest.raises(ValueError) as info:
            fidelity(rho, bell_psi_plus())
        assert str(info.value) == "target covers particles (1, 2), density matrix covers (1, 3)"
        with pytest.raises(ValueError) as info:
            fidelity(even_parity_mixture(0.5), ghz_class_three())
        assert str(info.value) == "target covers particles (1, 2, 3), density matrix covers (1, 2)"

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
            assert abs(seen_c - t3) <= 1e-12
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

    def test_takes_no_tolerance(self):
        assert list(inspect.signature(pure_state_from_density).parameters) == ["rho"]

    @pytest.mark.parametrize("weight", [5e-11, 1e-10, 2e-10])
    def test_subleading_eigenvalue_bound_is_1e_10(self, weight):
        basis = ((detector(1),), (primed_detector(1),))
        rho = DensityMatrix((1,), basis, np.diag([1.0 - weight, weight]))
        if weight <= 1e-10:
            assert pure_state_from_density(rho).amplitude(basis[0]) == 1.0
            return
        message = r"density matrix is not pure within 1e-10 \(second eigenvalue 2.000e-10\)"
        with pytest.raises(ValueError, match=message):
            pure_state_from_density(rho)
