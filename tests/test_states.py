"""Tests for the sparse state algebra and density-matrix operations."""

from __future__ import annotations

import cmath
import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pisim import (
    DensityMatrix,
    EmptyStateError,
    LabelKind,
    NormalizationError,
    PathLabel,
    PureState,
    SchemeConfig,
    StructureError,
    ValidationError,
    aligned_beam,
    apply_beam_splitter,
    detector,
    inner_product,
    loss,
    partial_trace,
    primed_detector,
    primed_source_beam,
    pure_state_from_terms,
    run_scheme,
    source_beam,
    state_fidelity,
    to_density,
)
from pisim.states import (
    AMPLITUDE_EPSILON,
    EIGENVALUE_FLOOR,
    HERMITICITY_TOLERANCE,
    MAX_DENSITY_DIM,
    format_outcome,
    port_outcomes,
    pruned_state,
)
from conftest import density_from_mixture, random_detector_state, random_mode_state

ROOT_HALF = math.sqrt(0.5)


def bell_psi_plus() -> PureState:
    return pure_state_from_terms(
        [((detector(1), primed_detector(2)), ROOT_HALF), ((primed_detector(1), detector(2)), ROOT_HALF)]
    )


def bell_phi_minus() -> PureState:
    return pure_state_from_terms(
        [((detector(1), detector(2)), ROOT_HALF), ((primed_detector(1), primed_detector(2)), -ROOT_HALF)]
    )


class TestPathLabel:
    def test_unprimed_sorts_before_primed(self):
        assert detector(1) < primed_detector(1)
        assert source_beam(2) < primed_source_beam(2)

    def test_index_must_be_positive(self):
        with pytest.raises(ValueError):
            detector(0)

    def test_str_forms(self):
        assert str(source_beam(3)) == "b3"
        assert str(primed_source_beam(3)) == "b3'"
        assert str(aligned_beam(3)) == "a3"
        assert str(loss(3)) == "v3"

    @pytest.mark.parametrize("index", [True, False, 1.0, "1", None])
    def test_index_must_be_a_plain_int(self, index):
        with pytest.raises(ValueError, match="index"):
            PathLabel(LabelKind.DETECTOR_UNPRIMED, index)

    @pytest.mark.parametrize("kind", [7, 2, "d", None])
    def test_kind_must_be_a_label_kind(self, kind):
        with pytest.raises(ValueError, match="kind"):
            PathLabel(kind, 1)

    def test_rejected_on_every_call(self):
        assert PathLabel(LabelKind.DETECTOR_UNPRIMED, 1) is detector(1)
        with pytest.raises(ValueError):
            PathLabel(LabelKind.DETECTOR_UNPRIMED, True)


ALL_KINDS = st.sampled_from(list(LabelKind))
LABELS = st.builds(PathLabel, ALL_KINDS, st.integers(1, 20))


class TestPathLabelInterning:
    CONSTRUCTORS = {
        LabelKind.SOURCE_BEAM: source_beam,
        LabelKind.PRIMED_SOURCE_BEAM: primed_source_beam,
        LabelKind.DETECTOR_UNPRIMED: detector,
        LabelKind.DETECTOR_PRIMED: primed_detector,
        LabelKind.ALIGNED_BEAM: aligned_beam,
        LabelKind.LOSS: loss,
    }

    @given(kind=ALL_KINDS, index=st.integers(1, 20))
    def test_equal_pairs_give_one_object(self, kind, index):
        label = PathLabel(kind, index)
        assert PathLabel(kind, index) is label
        assert self.CONSTRUCTORS[kind](index) is label
        assert (label.kind, label.index) == (kind, index)

    @given(label=LABELS)
    def test_pickle_and_copy_return_the_same_object(self, label):
        assert pickle.loads(pickle.dumps(label)) is label
        assert copy.copy(label) is label
        assert copy.deepcopy(label) is label
        assert copy.deepcopy((label, [label]))[0] is label

    def test_attributes_are_immutable(self):
        label = detector(2)
        for name, value in (("kind", LabelKind.LOSS), ("index", 3), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(label, name, value)
        with pytest.raises(AttributeError):
            del label.index
        assert (label.kind, label.index) == (LabelKind.DETECTOR_UNPRIMED, 2)

    @given(labels=st.lists(LABELS, max_size=30))
    def test_sorted_by_kind_then_index(self, labels):
        assert sorted(labels) == sorted(labels, key=lambda label: (label.kind, label.index))

    @given(a=LABELS, b=LABELS)
    def test_order_and_equality_agree_with_pairs(self, a, b):
        pa, pb = (a.kind, a.index), (b.kind, b.index)
        assert (a == b) == (pa == pb)
        assert (a < b, a <= b, a > b, a >= b) == (pa < pb, pa <= pb, pa > pb, pa >= pb)
        if a == b:
            assert hash(a) == hash(b)

    def test_comparison_with_other_types(self):
        assert detector(1) != (LabelKind.DETECTOR_UNPRIMED, 1)
        with pytest.raises(TypeError):
            detector(1) < (LabelKind.DETECTOR_UNPRIMED, 1)

    def test_str_and_repr(self):
        assert str(primed_detector(12)) == "d12'"
        assert repr(loss(4)) == "PathLabel(v4)"


class TestPureStateConstruction:
    def test_two_term_superposition(self):
        psi = pure_state_from_terms(
            [
                ((source_beam(1), source_beam(2)), ROOT_HALF),
                ((primed_source_beam(1), primed_source_beam(2)), ROOT_HALF),
            ]
        )
        assert psi.term_count == 2
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)

    def test_duplicates_are_summed(self):
        outcome = (source_beam(1),)
        psi = pure_state_from_terms([(outcome, 0.25), (outcome, 0.5)])
        assert psi.term_count == 1
        assert psi.amplitude(outcome) == pytest.approx(0.75)

    def test_cancellation_raises_empty_state(self):
        outcome = (source_beam(1),)
        with pytest.raises(EmptyStateError):
            pure_state_from_terms([(outcome, 1.0), (outcome, -1.0)])

    def test_no_terms_raises_empty_state(self):
        with pytest.raises(EmptyStateError):
            pure_state_from_terms([])

    def test_mismatched_lengths_raise(self):
        with pytest.raises(StructureError):
            pure_state_from_terms(
                [((source_beam(1),), 1.0), ((source_beam(1), source_beam(2)), 1.0)]
            )

    @pytest.mark.parametrize("particle", [0, 3])
    def test_particle_labels_out_of_range_rejected(self, particle):
        psi = pure_state_from_terms([((detector(1), detector(2)), 1.0)])
        with pytest.raises(ValueError) as info:
            psi.particle_labels(particle)
        assert str(info.value) == f"particle {particle} out of range 1..2"

    def test_repr_shows_four_terms_then_an_ellipsis(self):
        ports = [(detector(p), primed_detector(p)) for p in (1, 2, 3)]
        psi = pure_state_from_terms((o, 1.0) for o in itertools.product(*ports)).normalized()
        assert repr(psi) == (
            "PureState((0.3536+0j)|d1 d2 d3> + (0.3536+0j)|d1 d2 d3'> + "
            "(0.3536+0j)|d1 d2' d3> + (0.3536+0j)|d1 d2' d3'> + ...)"
        )

    def test_two_source_emission_state(self):
        phi0 = 0.8
        unprimed = tuple(source_beam(j) for j in (1, 2, 3))
        primed = tuple(primed_source_beam(j) for j in (1, 2, 3))
        psi = pure_state_from_terms(
            [(unprimed, ROOT_HALF), (primed, ROOT_HALF * cmath.exp(1j * phi0))]
        )
        assert psi.is_normalized
        assert psi.amplitude(primed) == pytest.approx(ROOT_HALF * cmath.exp(1j * phi0))

    def test_tiny_amplitudes_are_pruned(self):
        outcome_big = (detector(1),)
        outcome_tiny = (primed_detector(1),)
        psi = pure_state_from_terms([(outcome_big, 1.0), (outcome_tiny, 1e-15)])
        assert psi.term_count == 1
        assert psi.amplitude(outcome_tiny) == 0

    @pytest.mark.parametrize(
        "amp", [math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(math.inf, 0.0)]
    )
    def test_non_finite_amplitude_rejected_on_construction(self, amp):
        with pytest.raises(ValueError, match=r"amplitude for \|d1'> is not finite"):
            PureState(1, {(detector(1),): 0.5, (primed_detector(1),): amp})

    @pytest.mark.parametrize(
        "terms",
        [
            [((detector(1),), math.nan)],
            # a NaN next to a cancelled term is not pruned away with it
            [((detector(1),), 1.0), ((detector(1),), -1.0), ((primed_detector(1),), math.nan)],
            # every term is finite; their sum is not
            [((detector(1),), 1e308), ((detector(1),), 1e308)],
            [((detector(1),), math.inf), ((detector(1),), -math.inf)],
        ],
    )
    def test_non_finite_sum_rejected_from_terms(self, terms):
        with pytest.raises(ValueError, match="is not finite"):
            pure_state_from_terms(terms)

    def test_non_finite_stage_output_rejected(self):
        # Finite inputs whose beam-splitter outputs add past the float range.
        psi = PureState(1, {(source_beam(1),): 1.7e308, (primed_source_beam(1),): 1.7e308})
        with pytest.raises(ValueError, match="is not finite"):
            apply_beam_splitter(psi, 1, -math.pi / 2)

    @settings(max_examples=300, deadline=None)
    @given(
        count=st.integers(0, 3),
        terms=st.lists(
            st.tuples(
                st.lists(st.sampled_from([detector(1), primed_detector(2), loss(3)]), max_size=4),
                st.one_of(
                    st.sampled_from(
                        [0j, 1e-15, AMPLITUDE_EPSILON, -AMPLITUDE_EPSILON, 1.5e-14, 0.5j, 1e308,
                         math.nan, math.inf, -math.inf, complex(math.nan, 1.0),
                         complex(1.0, math.inf), complex(1e-15, 1e-15)]
                    ),
                    st.complex_numbers(max_magnitude=2.0),
                ),
            ),
            max_size=8,
        ),
    )
    def test_one_pass_stage_state_matches_pruning_then_construction(self, count, terms):
        """``pruned_state`` raises what pruning followed by ``PureState(count, dict(...))``
        raises, type and message, or gives an equal state with the same term order; so
        does ``PureState`` of the unpruned mapping.  The reference writes both steps out."""

        def two_steps(accumulated, prune):
            if prune:
                for outcome in [o for o, a in accumulated.items() if abs(a) <= AMPLITUDE_EPSILON]:
                    del accumulated[outcome]
                if not accumulated:
                    raise EmptyStateError("all amplitudes cancelled")
            if count < 1:
                raise StructureError("a state needs at least one particle")
            if not accumulated:
                raise EmptyStateError("state has no terms")
            for outcome, amp in accumulated.items():
                if len(outcome) != count:
                    raise StructureError(
                        f"outcome {format_outcome(outcome)} has {len(outcome)} labels, "
                        f"expected {count}"
                    )
                if not AMPLITUDE_EPSILON < abs(amp) < math.inf:
                    if not cmath.isfinite(amp):
                        raise ValueError(f"amplitude for {format_outcome(outcome)} is not finite")
                    raise ValueError(f"amplitude {amp!r} is below the pruning threshold")
            return PureState(count, dict(accumulated))

        def outcome(route, accumulated):
            try:
                state = route(dict(accumulated))
            except Exception as exc:  # noqa: BLE001 - compared by type and message
                return type(exc), str(exc)
            return state.particle_count, list(state.amplitudes.items())

        accumulated = {tuple(outcome): complex(amp) for outcome, amp in terms}
        assert outcome(lambda a: pruned_state(count, a), accumulated) == outcome(
            lambda a: two_steps(a, prune=True), accumulated
        )
        assert outcome(lambda a: PureState(count, a), accumulated) == outcome(
            lambda a: two_steps(a, prune=False), accumulated
        )

    def test_normalized_copy(self):
        psi = pure_state_from_terms([((detector(1),), 2.0)])
        assert not psi.is_normalized
        assert psi.normalized().is_normalized

    def test_normalized_prunes_terms_scaled_below_threshold(self):
        # 1.2e-14 survives pruning, but scaled by 1/norm ~ 0.5 it falls below it.
        tiny, big = (detector(1),), (primed_detector(1),)
        psi = pure_state_from_terms([(tiny, 1.2e-14), (big, 2.0)]).normalized()
        assert psi.term_count == 1
        assert psi.amplitude(tiny) == 0
        assert psi.amplitude(big) == pytest.approx(1.0, abs=1e-15)


class TestInnerProduct:
    def test_normalized_self_overlap(self):
        psi = bell_psi_plus()
        assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_basis_kets_are_exactly_orthonormal(self):
        a = pure_state_from_terms([((source_beam(1),), 1.0)])
        b = pure_state_from_terms([((primed_source_beam(1),), 1.0)])
        assert inner_product(a, b) == 0
        assert inner_product(a, a) == 1

    def test_distinct_bell_states_are_orthogonal(self):
        assert inner_product(bell_psi_plus(), bell_phi_minus()) == 0

    def test_conjugate_linear_in_first_argument(self):
        a = pure_state_from_terms([((detector(1),), 0.5 + 0.5j)])
        b = pure_state_from_terms([((detector(1),), 1.0)])
        assert inner_product(a, b) == pytest.approx((0.5 + 0.5j).conjugate())

    def test_particle_count_mismatch(self):
        a = pure_state_from_terms([((detector(1),), 1.0)])
        b = bell_psi_plus()
        with pytest.raises(StructureError):
            inner_product(a, b)


@st.composite
def small_states(draw):
    particles = draw(st.integers(1, 3))
    n_terms = draw(st.integers(1, 4))
    terms = []
    for _ in range(n_terms):
        outcome = tuple(
            detector(p) if draw(st.booleans()) else primed_detector(p)
            for p in range(1, particles + 1)
        )
        real = draw(st.floats(-2, 2, allow_nan=False))
        imag = draw(st.floats(-2, 2, allow_nan=False))
        terms.append((outcome, complex(real, imag)))
    total = sum(abs(a) ** 2 for _, a in terms)
    if total < 1e-6:
        terms[0] = (terms[0][0], terms[0][1] + 1.0)
    return pure_state_from_terms(terms).normalized()


class TestInnerProductProperties:
    @given(small_states(), small_states())
    @settings(max_examples=80, deadline=None)
    def test_conjugate_symmetry(self, a, b):
        if a.particle_count != b.particle_count:
            return
        assert inner_product(a, b) == pytest.approx(inner_product(b, a).conjugate(), abs=1e-12)

    @given(small_states(), small_states())
    @settings(max_examples=80, deadline=None)
    def test_fidelity_bounded(self, a, b):
        if a.particle_count != b.particle_count:
            return
        overlap = state_fidelity(a, b)
        assert -1e-12 <= overlap <= 1.0 + 1e-9


class TestToDensity:
    def test_bell_projector_matrix(self):
        rho = to_density(bell_psi_plus())
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = 0.5
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)
        assert rho.basis == (
            (detector(1), detector(2)),
            (detector(1), primed_detector(2)),
            (primed_detector(1), detector(2)),
            (primed_detector(1), primed_detector(2)),
        )

    def test_single_term_projector(self):
        rho = to_density(pure_state_from_terms([((detector(1), detector(2)), 1.0)]))
        assert rho.dim == 1
        np.testing.assert_allclose(rho.matrix, [[1.0]], atol=1e-15)

    def test_unnormalized_input_rejected(self):
        psi = pure_state_from_terms([((detector(1),), 0.5)])
        with pytest.raises(NormalizationError):
            to_density(psi)

    def test_basis_over_the_cap_rejected_before_any_matrix(self, monkeypatch):
        psi = run_scheme(SchemeConfig(13, 0))  # 2^13 = 8,192 port outcomes

        def refuse(*args, **kwargs):
            raise AssertionError("a matrix was allocated before the cap was checked")

        with monkeypatch.context() as patch, pytest.raises(ValueError) as info:
            patch.setattr(np, "zeros", refuse)
            to_density(psi)
        assert str(info.value) == (
            f"density matrix basis would have 8192 states (cap {MAX_DENSITY_DIM})"
        )

    def test_repr(self):
        assert repr(to_density(bell_psi_plus())) == "DensityMatrix(particles=(1, 2), dim=4)"

    def test_full_transmission_output_is_rank_one(self):
        # Hand expansion of the attenuated three-particle output at T=1 and
        # zero interference phase: the loss branch vanishes and the detected
        # pair factorizes against the aligned beam.
        psi = pure_state_from_terms(
            [
                ((detector(1), primed_detector(2), aligned_beam(3)), 1j * ROOT_HALF),
                ((primed_detector(1), detector(2), aligned_beam(3)), 1j * ROOT_HALF),
            ]
        )
        rho = to_density(psi)
        eigenvalues = np.linalg.eigvalsh(rho.matrix)
        assert eigenvalues[-1] == pytest.approx(1.0, abs=1e-10)
        assert abs(eigenvalues[:-1]).max() <= 1e-10
        target = pure_state_from_terms(
            [
                ((detector(1), primed_detector(2), aligned_beam(3)), ROOT_HALF),
                ((primed_detector(1), detector(2), aligned_beam(3)), ROOT_HALF),
            ]
        )
        vector = np.array([target.amplitude(o) for o in rho.basis])
        assert (vector.conj() @ rho.matrix @ vector).real == pytest.approx(1.0, abs=1e-12)


@st.composite
def mode_states(draw):
    """Normalized states whose particles each carry detector, aligned or loss
    labels, so the detected particles need not come first."""
    count = draw(st.integers(1, 5))
    pools = [
        st.sampled_from((detector(p), primed_detector(p), aligned_beam(p), loss(p)))
        for p in range(1, count + 1)
    ]
    outcomes = draw(st.lists(st.tuples(*pools), min_size=1, max_size=12, unique=True))
    magnitude = st.floats(0.1, 1.0)
    amps = [complex(draw(magnitude), draw(magnitude)) for _ in outcomes]
    return pure_state_from_terms(zip(outcomes, amps)).normalized()


class TestReducedDensity:
    """``to_density(psi, keep)`` against the full projector reduced by ``partial_trace``."""

    @staticmethod
    def assert_matches_reference(psi: PureState, keep) -> None:
        direct = to_density(psi, keep)
        reference = partial_trace(to_density(psi), keep)
        assert direct.kept_particles == reference.kept_particles
        assert direct.basis == reference.basis
        assert np.array_equal(direct.matrix, reference.matrix)

    @given(
        n_total=st.integers(1, 8),
        data=st.data(),
        transmission=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_scheme_output_matches_partial_trace(self, n_total, data, transmission):
        m = data.draw(st.integers(0, n_total - 1), label="m")
        phase = st.floats(-2 * math.pi, 2 * math.pi)
        cfg = SchemeConfig(
            n_total,
            m,
            phi0=data.draw(phase, label="phi0"),
            phi=tuple(data.draw(phase) for _ in range(n_total - m)),
            theta=tuple(data.draw(phase) for _ in range(m)),
            transmission=(transmission,) * m,
        )
        keep = data.draw(st.sets(st.integers(1, n_total), min_size=1), label="keep")
        self.assert_matches_reference(run_scheme(cfg), keep)

    @given(psi=mode_states(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_mode_state_matches_partial_trace(self, psi, data):
        particles = st.integers(1, psi.particle_count)
        keep = data.draw(st.sets(particles, min_size=1), label="keep")
        self.assert_matches_reference(psi, keep)

    def test_detected_particles_after_an_aligned_one(self):
        psi = pure_state_from_terms(
            [
                ((aligned_beam(1), detector(2), loss(3), primed_detector(4)), 0.6),
                ((loss(1), primed_detector(2), aligned_beam(3), detector(4)), 0.8j),
            ]
        )
        rho = to_density(psi, (2, 4))
        assert rho.kept_particles == (2, 4)
        np.testing.assert_allclose(np.diag(rho.matrix).real, [0.0, 0.36, 0.64, 0.0])
        self.assert_matches_reference(psi, (2, 4))

    @pytest.mark.parametrize("keep", [(), (3,), (0, 1)])
    def test_keep_must_name_particles_of_the_state(self, keep):
        with pytest.raises(ValueError):
            to_density(bell_psi_plus(), keep)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        reduced = partial_trace(to_density(bell_psi_plus()), (1,))
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-15)

    def test_keep_everything_is_identity(self):
        rho = to_density(bell_psi_plus())
        assert partial_trace(rho, (1, 2)) is rho

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(to_density(bell_psi_plus()), ())

    def test_keep_must_be_subset(self):
        with pytest.raises(ValueError):
            partial_trace(to_density(bell_psi_plus()), (3,))

    @staticmethod
    def _attenuated_output(t3: float, zeta: float) -> PureState:
        """Three-particle attenuated output in its Bell decomposition."""
        lost = math.sqrt(1 - t3**2)
        phi_minus_coeff = (t3 - cmath.exp(1j * zeta)) / 2
        psi_plus_coeff = 1j * (t3 + cmath.exp(1j * zeta)) / 2
        terms = []
        for (o1, o2), bell_amp in (
            ((detector(1), detector(2)), ROOT_HALF),
            ((primed_detector(1), primed_detector(2)), -ROOT_HALF),
        ):
            terms.append(((o1, o2, aligned_beam(3)), phi_minus_coeff * bell_amp))
            terms.append(((o1, o2, loss(3)), lost / 2 * bell_amp))
        for (o1, o2), bell_amp in (
            ((detector(1), primed_detector(2)), ROOT_HALF),
            ((primed_detector(1), detector(2)), ROOT_HALF),
        ):
            terms.append(((o1, o2, aligned_beam(3)), psi_plus_coeff * bell_amp))
            terms.append(((o1, o2, loss(3)), 1j * lost / 2 * bell_amp))
        return pure_state_from_terms(terms)

    def test_attenuated_output_reduces_to_bell_mixture(self):
        # At zeta = 0 tracing the aligned and loss modes leaves the
        # two-component Bell mixture with weights (1 -+ T)/2.
        t3 = 0.7
        psi = self._attenuated_output(t3, 0.0)
        assert psi.is_normalized
        reduced = partial_trace(to_density(psi), (1, 2))
        expected = density_from_mixture(
            [((1 - t3) / 2, bell_phi_minus()), ((1 + t3) / 2, bell_psi_plus())]
        )
        np.testing.assert_allclose(reduced.matrix, expected.matrix, atol=1e-12)

    def test_attenuated_output_general_phase(self):
        # Hand-computed reduced state at generic zeta: Bell weights
        # (1 -+ T cos zeta)/2 plus the coherence -(T sin zeta / 2) between the
        # two Bell components.
        t3, zeta = 0.7, 0.9
        psi = self._attenuated_output(t3, zeta)
        assert psi.is_normalized
        reduced = partial_trace(to_density(psi), (1, 2))

        v_phi = np.array([1, 0, 0, -1]) / math.sqrt(2)
        v_psi = np.array([0, 1, 1, 0]) / math.sqrt(2)
        expected = (
            (1 - t3 * math.cos(zeta)) / 2 * np.outer(v_phi, v_phi)
            + (1 + t3 * math.cos(zeta)) / 2 * np.outer(v_psi, v_psi)
            - t3 * math.sin(zeta) / 2 * (np.outer(v_phi, v_psi) + np.outer(v_psi, v_phi))
        )
        np.testing.assert_allclose(reduced.matrix, expected, atol=1e-12)


    @staticmethod
    def _per_group_reference(rho: DensityMatrix, keep: tuple[int, ...]):
        """The reduction built as it was before the pairs came from the group sizes:
        one ``np.array``, ``repeat`` and ``tile`` per group of rows sharing their traced
        labels, groups in order of first appearance, then ``np.add.at``."""
        columns = list(zip(*rho.basis))
        kept_parts = list(zip(*(columns[rho.kept_particles.index(p)] for p in keep)))
        traced_parts = zip(*(c for c, p in zip(columns, rho.kept_particles) if p not in keep))
        new_basis = tuple(sorted(set(kept_parts)))
        new_index = {o: i for i, o in enumerate(new_basis)}
        targets = np.fromiter(map(new_index.__getitem__, kept_parts), np.intp)
        groups: dict = {}
        for row, traced in enumerate(traced_parts):
            groups.setdefault(traced, []).append(row)
        blocks = [np.array(rows) for rows in groups.values()]
        i = np.concatenate([np.repeat(rows, len(rows)) for rows in blocks])
        j = np.concatenate([np.tile(rows, len(rows)) for rows in blocks])
        reduced = np.zeros((len(new_basis), len(new_basis)), dtype=complex)
        np.add.at(reduced, (targets[i], targets[j]), rho.matrix[i, j])
        return new_basis, reduced, [len(rows) for rows in groups.values()], list(groups)

    @staticmethod
    def _generic_density(basis, rng: np.random.Generator) -> DensityMatrix:
        """A full-rank density matrix on ``basis`` whose entries have no common scale,
        so that summing them in another order changes their bits."""
        dim = len(basis)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a *= np.exp(rng.uniform(-6, 6, size=(dim, 1)))
        matrix = a @ a.conj().T
        return DensityMatrix(
            tuple(range(1, len(basis[0]) + 1)), basis, matrix / matrix.trace().real
        )

    def test_unequal_groups_sum_in_order_of_first_appearance(self):
        # particle 1 is kept, particles 2 and 3 traced; kept d1 meets the traced labels
        # (d2', a3) and (v2, a3) first, so kept d1' reads its rows (d2, a3), (d2', a3),
        # (d2', v3), (v2, a3) in another order than the groups appear
        d1, d1p = detector(1), primed_detector(1)
        d2, d2p, v2 = detector(2), primed_detector(2), loss(2)
        a3, v3 = aligned_beam(3), loss(3)
        basis = (
            (d1, d2p, a3),
            (d1, v2, a3),
            (d1p, d2, a3),
            (d1p, d2p, a3),
            (d1p, d2p, v3),
            (d1p, v2, a3),
            (aligned_beam(1), d2p, a3),
            (aligned_beam(1), d2p, v3),
            (aligned_beam(1), v2, a3),
            (loss(1), d2p, a3),
        )
        rng = np.random.default_rng(1466)
        for _ in range(20):
            rho = self._generic_density(basis, rng)
            new_basis, expected, sizes, order = self._per_group_reference(rho, (1,))
            assert order == [(d2p, a3), (v2, a3), (d2, a3), (d2p, v3)]
            assert sizes == [4, 3, 1, 2]
            reduced = partial_trace(rho, (1,))
            assert reduced.basis == new_basis
            assert reduced.matrix.tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_basis_matches_the_per_group_construction(self, data):
        """A random ascending subset of a 3- or 4-particle product basis, any kept
        subset: the reduced matrix has the bytes of the per-group construction."""
        count = data.draw(st.integers(3, 4), label="particles")
        kinds = (detector, primed_detector, loss)
        product = list(itertools.product(*[[k(p) for k in kinds] for p in range(1, count + 1)]))
        chosen = data.draw(st.sets(st.sampled_from(range(len(product))), min_size=2, max_size=40))
        basis = tuple(product[k] for k in sorted(chosen))
        keep = tuple(
            sorted(data.draw(st.sets(st.integers(1, count), min_size=1, max_size=count - 1)))
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        rho = self._generic_density(basis, rng)
        new_basis, expected, _, _ = self._per_group_reference(rho, keep)
        reduced = partial_trace(rho, keep)
        assert reduced.basis == new_basis
        assert reduced.matrix.tobytes() == expected.tobytes()


class TestDensityMatrixValidation:
    def test_non_hermitian_rejected(self):
        basis = ((detector(1),), (primed_detector(1),))
        with pytest.raises(ValidationError):
            DensityMatrix((1,), basis, np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_wrong_trace_rejected(self):
        basis = ((detector(1),), (primed_detector(1),))
        with pytest.raises(ValidationError):
            DensityMatrix((1,), basis, np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        basis = ((detector(1),), (primed_detector(1),))
        with pytest.raises(ValidationError):
            DensityMatrix((1,), basis, np.array([[1.5, 0.0], [0.0, -0.5]]))

    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.integers(2, 64),
        smallest=st.sampled_from(
            [EIGENVALUE_FLOOR * (1 + 1e-3), EIGENVALUE_FLOOR * (1 - 1e-3), 0.0, 1e-17, -1e-17]
        ),
        repeats=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_accepted_exactly_above_the_eigenvalue_floor(self, dim, smallest, repeats, seed):
        """Q diag(lambda) Q^dagger with unit trace and ``repeats`` eigenvalues equal to
        ``smallest``, 1e-3 of the floor on either side of it or at zero: accepted exactly
        when ``smallest`` is at least the floor, else rejected naming it."""
        rng = np.random.default_rng(seed)
        repeats = min(repeats, dim - 1)
        rest = rng.uniform(0.1, 1.0, dim - repeats)
        eigenvalues = np.concatenate(
            [np.full(repeats, smallest), rest * (1 - repeats * smallest) / rest.sum()]
        )
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        matrix = (q * eigenvalues) @ q.conj().T
        matrix = (matrix + matrix.conj().T) / 2
        particles = tuple(range(1, 7))
        basis = port_outcomes(particles)[:dim]
        if smallest >= EIGENVALUE_FLOOR:
            assert DensityMatrix(particles, basis, matrix).dim == dim
        else:
            with pytest.raises(ValidationError) as info:
                DensityMatrix(particles, basis, matrix)
            assert str(info.value) == f"matrix has negative eigenvalue {smallest:.3e}"

    @pytest.mark.parametrize("at", range(3))
    def test_eigenvalue_at_the_floor_accepted_one_ulp_below_rejected(self, at):
        # rho - floor * I then has an exact zero (or negative) pivot, so Cholesky fails
        # and eigvalsh, exact on a diagonal matrix, decides
        basis = port_outcomes((1, 2))[:3]
        below = float(np.nextafter(EIGENVALUE_FLOOR, -1.0))
        for smallest in (EIGENVALUE_FLOOR, below):
            diagonal = [0.5, 0.5 - smallest]
            diagonal.insert(at, smallest)
            matrix = np.diag(np.array(diagonal, dtype=complex))
            if smallest == EIGENVALUE_FLOOR:
                assert DensityMatrix((1, 2), basis, matrix).dim == 3
            else:
                with pytest.raises(ValidationError, match="negative eigenvalue -1.000e-10"):
                    DensityMatrix((1, 2), basis, matrix)

    @pytest.mark.parametrize(
        "kept, basis, slot, carried",
        [
            ((1, 2), ((detector(3), detector(4)),), 1, "d3"),
            ((1, 3), ((detector(1), loss(2)),), 3, "v2"),
            ((1,), ((detector(1),), (primed_detector(2),)), 1, "d2'"),
            ((1,), ((detector(1),), (loss(2),), (loss(3),)), 1, "v2"),
            ((1,), (("d1",),), 1, "d1"),
        ],
        ids=["both-slots", "second-slot", "one-row", "first-of-two", "not-a-label"],
    )
    def test_basis_label_of_another_particle_rejected(self, kept, basis, slot, carried):
        with pytest.raises(ValidationError) as info:
            DensityMatrix(kept, basis, np.eye(len(basis)) / len(basis))
        assert str(info.value) == (
            f"basis slot of particle {slot} carries {carried}, "
            f"which is not a label of particle {slot}"
        )

    @pytest.mark.parametrize(
        "kept, basis, matrix, message",
        [
            ((2, 1), ((detector(2), detector(1)),), np.eye(1),
             "kept_particles must be a nonempty ascending tuple"),
            ((1, 1), ((detector(1), detector(1)),), np.eye(1),
             "kept_particles must be a nonempty ascending tuple"),
            ((), ((),), np.eye(1), "kept_particles must be a nonempty ascending tuple"),
            ((1, 2), ((detector(1),), (primed_detector(1),)), np.eye(2) / 2,
             "every basis outcome must cover exactly the kept particles"),
            ((1,), ((detector(1),), (primed_detector(1),)), np.eye(3) / 3,
             "matrix shape (3, 3) does not match basis size 2"),
        ],
        ids=["descending", "repeated", "no-particle", "short-outcome", "matrix-shape"],
    )  # fmt: skip
    def test_shapes_that_do_not_fit_rejected(self, kept, basis, matrix, message):
        with pytest.raises(ValidationError) as info:
            DensityMatrix(kept, basis, matrix)
        assert str(info.value) == message

    @pytest.mark.parametrize("kept", [(1,), (1, 2)])
    def test_empty_basis_rejected(self, kept):
        with pytest.raises(ValidationError, match="^basis must be nonempty$"):
            DensityMatrix(kept, (), np.zeros((0, 0)))

    def test_hermiticity_gap_at_half_the_tolerance_in_each_part_accepted(self):
        # |Re| = |Im| = tol / 2, the edge of the test on the real and imaginary parts
        basis = ((detector(1),), (primed_detector(1),))
        gap = 0.5 * HERMITICITY_TOLERANCE * (1 + 1j)
        assert DensityMatrix((1,), basis, np.array([[0.5, gap], [0.0, 0.5]])).dim == 2

    def test_hermiticity_gap_above_half_the_tolerance_judged_by_its_magnitude(self):
        # each part is 0.75 tol, below the tolerance, but |gap| = 0.75 sqrt(2) tol is above it
        basis = ((detector(1),), (primed_detector(1),))
        gap = 0.75 * HERMITICITY_TOLERANCE * (1 + 1j)
        with pytest.raises(ValidationError) as info:
            DensityMatrix((1,), basis, np.array([[0.5, gap], [0.0, 0.5]]))
        assert str(info.value) == "matrix is not Hermitian (max deviation 1.061e-12)"

    def test_unsorted_basis_rejected(self):
        basis = ((primed_detector(1),), (detector(1),))
        with pytest.raises(ValidationError):
            DensityMatrix((1,), basis, np.eye(2) / 2)

    def test_duplicate_basis_rejected(self):
        basis = ((detector(1),), (detector(1),))
        with pytest.raises(ValidationError, match="strictly ascending"):
            DensityMatrix((1,), basis, np.eye(2) / 2)

    @pytest.mark.parametrize(
        "matrix",
        [
            [[math.nan, 0.0], [0.0, math.nan]],
            [[0.5, math.nan], [math.nan, 0.5]],
            [[0.5, complex(0.0, math.inf)], [complex(0.0, -math.inf), 0.5]],
        ],
    )
    def test_non_finite_matrix_rejected(self, matrix):
        basis = ((detector(1),), (primed_detector(1),))
        with pytest.raises(ValidationError, match="non-finite"):
            DensityMatrix((1,), basis, np.array(matrix))


class TestDensityFromMixture:
    @pytest.mark.parametrize(
        "components, error, message",
        [
            ([], ValueError, "mixture needs at least one component"),
            (
                [(1.5, bell_psi_plus()), (-0.5, bell_phi_minus())],
                ValueError,
                "mixture weights must be nonnegative",
            ),
            (
                [(0.5, bell_psi_plus()), (0.5, pure_state_from_terms([((detector(1),), 1.0)]))],
                StructureError,
                "mixture components must share a particle count",
            ),
            (
                [(1.0, pure_state_from_terms([((detector(1), detector(2)), 0.5)]))],
                NormalizationError,
                "mixture components must be normalized",
            ),
        ],
        ids=["empty", "negative-weight", "particle-counts", "unnormalized"],
    )
    def test_input_errors(self, components, error, message):
        with pytest.raises(error) as info:
            density_from_mixture(components)
        assert str(info.value) == message

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            density_from_mixture([(0.6, bell_psi_plus()), (0.6, bell_phi_minus())])

    def test_equal_bell_mixture(self):
        rho = density_from_mixture([(0.5, bell_psi_plus()), (0.5, bell_phi_minus())])
        assert rho.matrix.trace() == pytest.approx(1.0, abs=1e-12)
        assert rho.dim == 4


class TestRandomizedInvariants:
    def test_density_chain_preserves_trace_and_positivity(self):
        rng = np.random.default_rng(2081)
        for _ in range(120):
            psi = random_mode_state(rng, particles=int(rng.integers(2, 5)))
            rho = to_density(psi)
            assert abs(rho.matrix.trace() - 1.0) <= 1e-12
            keep = sorted(
                rng.choice(psi.particle_count, size=rng.integers(1, psi.particle_count + 1), replace=False)
                + 1
            )
            reduced = partial_trace(rho, keep)
            assert abs(reduced.matrix.trace() - 1.0) <= 1e-12
            assert np.abs(reduced.matrix - reduced.matrix.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh(reduced.matrix).min() >= -1e-10

    def test_nested_partial_trace_matches_direct(self):
        rng = np.random.default_rng(5150)
        for _ in range(100):
            psi = random_detector_state(rng, particles=4)
            rho = to_density(psi)
            first = sorted(rng.choice(4, size=3, replace=False) + 1)
            second = sorted(rng.choice(first, size=2, replace=False))
            chained = partial_trace(partial_trace(rho, first), second)
            direct = partial_trace(rho, second)
            assert chained.basis == direct.basis
            np.testing.assert_allclose(chained.matrix, direct.matrix, atol=1e-12)
