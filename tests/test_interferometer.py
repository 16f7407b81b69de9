"""Tests for the stage engine: configuration, evolution, probabilities."""

from __future__ import annotations

import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pisim import (
    MAX_PARTICLES,
    ConfigError,
    DetectionOutcome,
    LabelKind,
    SchemeConfig,
    StageOrderError,
    StructureError,
    aligned_beam,
    apply_beam_splitter,
    apply_path_identity,
    bell_phi_minus,
    bell_psi_plus,
    build_two_source_state,
    conditional_detected_state,
    detected_particles,
    detection_table,
    detector,
    fidelity,
    inner_product,
    joint_probability,
    loss,
    outcome_probabilities,
    partial_trace,
    primed_detector,
    primed_source_beam,
    pure_state_from_terms,
    run_scheme,
    source_beam,
    state_fidelity,
)
from pisim.analysis import pure_state_from_density, three_tangle
from pisim.closed_form import predicted_output_state
from pisim.interferometer import DetectedState, detected_state
from pisim.states import MAX_DENSITY_DIM, port_columns, port_outcomes
from conftest import assert_states_close, attenuated_coincidence, case_i, density_from_mixture

ROOT_HALF = math.sqrt(0.5)


class TestSchemeConfig:
    def test_defaults_fill_phases_and_transmissions(self):
        cfg = SchemeConfig(4, 2)
        assert cfg.phi == (0.0, 0.0)
        assert cfg.theta == (0.0, 0.0)
        assert cfg.transmission == (1.0, 1.0)
        assert cfg.n_detected == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_particles=0, n_aligned=0),
            dict(n_particles=17, n_aligned=0),
            dict(n_particles=3, n_aligned=4),
            dict(n_particles=3, n_aligned=-1),
            dict(n_particles=3, n_aligned=1, phi=(0.0,)),
            dict(n_particles=3, n_aligned=1, theta=(0.0, 0.0)),
            dict(n_particles=3, n_aligned=1, transmission=(1.5,)),
            dict(n_particles=3, n_aligned=1, transmission=(-0.1,)),
            dict(n_particles=3, n_aligned=1, phi0=math.inf),
            dict(n_particles=3, n_aligned=1, theta=(math.nan,)),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SchemeConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(n_particles=True, n_aligned=0), "n"),
            (dict(n_particles=3, n_aligned=False), "m"),
            (dict(n_particles=3.0, n_aligned=1), "n"),
            (dict(n_particles=17, n_aligned=0), "n"),
            (dict(n_particles=3, n_aligned=4), "m"),
            (dict(n_particles=3, n_aligned=1, phi0=math.inf), "phi0"),
            (dict(n_particles=3, n_aligned=1, phi0="half"), "phi0"),
            (dict(n_particles=4, n_aligned=1, phi=(0.0, math.nan, 0.0)), "phi.2"),
            (dict(n_particles=4, n_aligned=1, phi=(0.0, None, 0.0)), "phi.2"),
            (dict(n_particles=4, n_aligned=2, theta=(0.0, -math.inf)), "theta.4"),
            (dict(n_particles=4, n_aligned=2, theta=(1j, 0.0)), "theta.3"),
            (dict(n_particles=4, n_aligned=2, transmission=(0.5, 1.5)), "transmission.4"),
            (dict(n_particles=4, n_aligned=2, transmission=("x", 0.5)), "transmission.3"),
            (dict(n_particles=4, n_aligned=2, transmission=(math.nan, 0.5)), "transmission.3"),
            (dict(n_particles=2, n_aligned=0, phi0=10**400), "phi0"),  # past the float range
            (dict(n_particles=4, n_aligned=2, theta=(0.0, -(10**400))), "theta.4"),
        ],
    )
    def test_config_error_names_the_field(self, kwargs, field):
        with pytest.raises(ConfigError) as info:
            SchemeConfig(**kwargs)
        assert info.value.field == field
        assert field in str(info.value)

    def test_replace_phase_rejects_non_numeric_value(self):
        with pytest.raises(ConfigError) as info:
            SchemeConfig(3, 1).replace_phase("theta.3", "pi")
        assert info.value.field == "theta.3"

    def test_phase_accessors_use_particle_indices(self):
        cfg = SchemeConfig(4, 2, phi0=0.1, phi=(0.2, 0.3), theta=(0.4, 0.5), transmission=(0.8, 0.9))
        assert cfg.xi == pytest.approx(0.1 + 0.2 + 0.3 - 0.4 - 0.5)

    def test_replace_phase(self):
        cfg = SchemeConfig(3, 1)
        assert cfg.replace_phase("phi0", 1.0).phi0 == 1.0
        assert cfg.replace_phase("phi.2", 1.0).phi == (0.0, 1.0)
        assert cfg.replace_phase("theta.3", 1.0).theta == (1.0,)
        for bad in ("phi.3", "theta.1", "tau.1", "phi.x"):
            with pytest.raises(ValueError):
                cfg.replace_phase(bad, 1.0)

    @pytest.mark.parametrize(
        "variable, slot",
        [("phi0", 0), ("phi.1", 1), ("phi.2", 2), ("phi.01", 1), ("phi.٢", 2)]
        + [("theta.3", 3), ("theta.4", 4), ("theta.004", 4)],
    )
    def test_phase_slot_accepts(self, variable, slot):
        """Detected particles 1-2, aligned 3-4; the slot indexes (phi0, *phi, *theta)."""
        cfg = SchemeConfig(4, 2, phi0=0.1, phi=(0.2, 0.3), theta=(0.4, 0.5))
        assert cfg.phase_slot(variable) == slot
        moved = cfg.replace_phase(variable, 9.0)
        expected = [9.0 if k == slot else v for k, v in enumerate([0.1, 0.2, 0.3, 0.4, 0.5])]
        assert [moved.phi0, *moved.phi, *moved.theta] == expected

    @pytest.mark.parametrize(
        "variable",
        ["phi.²", "theta.³", "phi.", "theta.", "phi.-1", "phi.+1", "phi. 1", "phi.1 ", "phi.0"]
        + ["theta.1", "theta.2", "phi.3", "phi.4", "theta.5", "tau.1", "phi", "phi0.1", ""]
        + ["phi." + "9" * 5000],
        ids=lambda v: repr(v[:12]),
    )
    def test_phase_slot_rejects(self, variable):
        cfg = SchemeConfig(4, 2)
        for call in (
            lambda: cfg.phase_slot(variable),
            lambda: cfg.replace_phase(variable, 1.0),
            lambda: detected_state(cfg, variable, [0.0, 1.0]).table(),
        ):
            with pytest.raises(ValueError, match="unknown phase variable"):
                call()


class TestBuildTwoSourceState:
    def test_three_particle_emission(self):
        psi = build_two_source_state(SchemeConfig(3, 1))
        assert psi.term_count == 2
        unprimed = tuple(source_beam(j) for j in (1, 2, 3))
        primed = tuple(primed_source_beam(j) for j in (1, 2, 3))
        assert psi.amplitude(unprimed) == pytest.approx(ROOT_HALF)
        assert psi.amplitude(primed) == pytest.approx(ROOT_HALF)

    def test_single_particle_opposite_phase(self):
        psi = build_two_source_state(SchemeConfig(1, 0, phi0=math.pi))
        assert psi.amplitude((source_beam(1),)) == pytest.approx(ROOT_HALF)
        assert psi.amplitude((primed_source_beam(1),)) == pytest.approx(-ROOT_HALF, abs=1e-15)

    def test_four_particle_phase_factor(self):
        psi = build_two_source_state(SchemeConfig(4, 2, phi0=math.pi / 3))
        primed = tuple(primed_source_beam(j) for j in range(1, 5))
        assert psi.amplitude(primed) == pytest.approx(ROOT_HALF * cmath.exp(1j * math.pi / 3))


class TestApplyPathIdentity:
    def _emission(self) -> tuple:
        return build_two_source_state(SchemeConfig(3, 1, phi0=0.4))

    def test_full_transmission_keeps_two_terms(self):
        theta = 0.7
        after = apply_path_identity(self._emission(), 3, theta, 1.0)
        assert after.term_count == 2
        expected = ROOT_HALF * cmath.exp(1j * theta)
        assert after.amplitude(
            (source_beam(1), source_beam(2), aligned_beam(3))
        ) == pytest.approx(expected)
        # primed branch amplitude is untouched by the alignment
        assert after.amplitude(
            (primed_source_beam(1), primed_source_beam(2), aligned_beam(3))
        ) == pytest.approx(ROOT_HALF * cmath.exp(1j * 0.4))

    def test_zero_transmission_moves_unprimed_branch_to_loss(self):
        after = apply_path_identity(self._emission(), 3, 0.0, 0.0)
        assert after.norm() == pytest.approx(1.0, abs=1e-12)
        assert after.amplitude(
            (source_beam(1), source_beam(2), loss(3))
        ) == pytest.approx(ROOT_HALF)
        assert after.amplitude(
            (primed_source_beam(1), primed_source_beam(2), aligned_beam(3))
        ) == pytest.approx(ROOT_HALF * cmath.exp(1j * 0.4))

    def test_partial_transmission_amplitudes(self):
        after = apply_path_identity(self._emission(), 3, 0.0, 0.6)
        assert after.amplitude(
            (source_beam(1), source_beam(2), aligned_beam(3))
        ) == pytest.approx(0.6 * ROOT_HALF)
        assert after.amplitude(
            (source_beam(1), source_beam(2), loss(3))
        ) == pytest.approx(0.8 * ROOT_HALF)
        assert after.norm() == pytest.approx(1.0, abs=1e-12)

    def test_transmission_bounds(self):
        with pytest.raises(ValueError):
            apply_path_identity(self._emission(), 3, 0.0, 1.2)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(ValueError) as info:
            apply_path_identity(self._emission(), 3, theta, 1.0)
        assert str(info.value) == f"theta must be a finite number, got {theta!r}"

    def test_double_alignment_rejected(self):
        once = apply_path_identity(self._emission(), 3, 0.0, 0.9)
        with pytest.raises(StageOrderError, match="already aligned"):
            apply_path_identity(once, 3, 0.0, 0.9)

    def test_alignment_after_detection_rejected(self):
        detected = apply_beam_splitter(self._emission(), 1, 0.0)
        with pytest.raises(StageOrderError, match="already detected"):
            apply_path_identity(detected, 1, 0.0, 1.0)

    def test_label_index_mismatch_rejected(self):
        crossed = pure_state_from_terms([((source_beam(2), source_beam(1)), 1.0)])
        with pytest.raises(StructureError):
            apply_path_identity(crossed, 1, 0.0, 1.0)


class TestApplyBeamSplitter:
    def test_unprimed_input_splits(self):
        psi = pure_state_from_terms([((source_beam(1),), 1.0)])
        after = apply_beam_splitter(psi, 1, 0.0)
        assert after.amplitude((detector(1),)) == pytest.approx(ROOT_HALF)
        assert after.amplitude((primed_detector(1),)) == pytest.approx(1j * ROOT_HALF)

    def test_primed_input_splits_with_phase(self):
        psi = pure_state_from_terms([((primed_source_beam(1),), 1.0)])
        after = apply_beam_splitter(psi, 1, 0.9)
        phase = cmath.exp(1j * 0.9)
        assert after.amplitude((primed_detector(1),)) == pytest.approx(phase * ROOT_HALF)
        assert after.amplitude((detector(1),)) == pytest.approx(1j * phase * ROOT_HALF)

    def test_unitarity_preserves_inner_products(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            amps = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a = pure_state_from_terms(
                [((source_beam(1),), amps[0, 0]), ((primed_source_beam(1),), amps[0, 1])]
            )
            b = pure_state_from_terms(
                [((source_beam(1),), amps[1, 0]), ((primed_source_beam(1),), amps[1, 1])]
            )
            before = inner_product(a, b)
            after = inner_product(
                apply_beam_splitter(a, 1, 0.7), apply_beam_splitter(b, 1, 0.7)
            )
            assert after == pytest.approx(before, abs=1e-12)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phi_rejected(self, phi):
        psi = pure_state_from_terms([((source_beam(1),), 1.0)])
        with pytest.raises(ValueError) as info:
            apply_beam_splitter(psi, 1, phi)
        assert str(info.value) == f"phi must be a finite number, got {phi!r}"

    def test_double_splitting_rejected(self):
        psi = pure_state_from_terms([((source_beam(1),), 1.0)])
        once = apply_beam_splitter(psi, 1, 0.0)
        with pytest.raises(StageOrderError, match="already detected"):
            apply_beam_splitter(once, 1, 0.0)

    def test_splitting_aligned_particle_rejected(self):
        psi = pure_state_from_terms([((source_beam(1),), 1.0)])
        alignedpsi = apply_path_identity(psi, 1, 0.0, 0.5)
        with pytest.raises(StageOrderError, match="already aligned"):
            apply_beam_splitter(alignedpsi, 1, 0.0)


_STAGES = {
    "align": lambda psi, particle: apply_path_identity(psi, particle, 0.3, 0.5),
    "apply a beam splitter to": lambda psi, particle: apply_beam_splitter(psi, particle, 0.3),
}


class TestStageErrors:
    """Both stages act on particle 1 only while its slot carries b1 or b1'."""

    @pytest.mark.parametrize("operation", list(_STAGES))
    @pytest.mark.parametrize(
        "label, error, reason",
        [
            (detector(1), StageOrderError, "already detected"),
            (primed_detector(1), StageOrderError, "already detected"),
            (detector(2), StageOrderError, "already detected"),
            (aligned_beam(1), StageOrderError, "already aligned"),
            (loss(1), StageOrderError, "already aligned"),
            (source_beam(2), StructureError, None),
            (primed_source_beam(2), StructureError, None),
        ],
    )
    def test_offending_label_in_a_later_term(self, operation, label, error, reason):
        psi = pure_state_from_terms(
            [
                ((source_beam(1), source_beam(2)), ROOT_HALF),
                ((primed_source_beam(1), primed_source_beam(2)), ROOT_HALF),
                ((label, primed_source_beam(2)), ROOT_HALF),
            ]
        )
        if reason is None:
            message = f"slot 1 carries label {label}, which belongs to particle {label.index}"
        else:
            message = f"cannot {operation} particle 1: it is {reason}"
        with pytest.raises(error) as caught:
            _STAGES[operation](psi, 1)
        assert type(caught.value) is error
        assert str(caught.value) == message

    @pytest.mark.parametrize("operation", list(_STAGES))
    @pytest.mark.parametrize("particle", [0, 3, -1])
    def test_particle_out_of_range(self, operation, particle):
        psi = build_two_source_state(SchemeConfig(2, 1))
        with pytest.raises(ValueError) as caught:
            _STAGES[operation](psi, particle)
        assert str(caught.value) == f"particle {particle} out of range 1..2"


AMPLITUDES = Path(__file__).parent / "data" / "run_scheme_amplitudes.json"


class TestPinnedAmplitudes:
    """``run_scheme`` amplitudes bit for bit, in insertion order.

    Each amplitude is a product of stage factors taken in a fixed order;
    ``tests/data/run_scheme_amplitudes.json`` stores their ``float.hex`` forms,
    so a reordered product shows here even where the 12 CSV digits hide it.
    """

    @pytest.mark.parametrize(
        "case",
        json.loads(AMPLITUDES.read_text()),
        ids=lambda case: f"n{case['n']}-m{case['m']}",
    )
    def test_amplitudes_match_bit_for_bit(self, case):
        cfg = SchemeConfig(
            case["n"],
            case["m"],
            phi0=case["phi0"],
            phi=tuple(case["phi"]),
            theta=tuple(case["theta"]),
            transmission=tuple(case["transmission"]),
        )
        got = [
            [[str(label) for label in outcome], amp.real.hex(), amp.imag.hex()]
            for outcome, amp in run_scheme(cfg).amplitudes.items()
        ]
        assert got == case["terms"]


CONDITIONAL_STATES = Path(__file__).parent / "data" / "conditional_states.json"


def _density_record(rho) -> dict:
    return {
        "particles": list(rho.kept_particles),
        "basis": [[str(label) for label in outcome] for outcome in rho.basis],
        "matrix": [[[z.real.hex(), z.imag.hex()] for z in row] for row in rho.matrix.tolist()],
    }


class TestPinnedDensity:
    """The detected-particle density matrix and its two-particle reduction, bit for bit.

    ``tests/data/conditional_states.json`` stores the ``float.hex`` forms of
    ``conditional_detected_state(run_scheme(cfg))`` and of its
    ``partial_trace`` onto particles 1 and 2, for transmissions 0, 0.5, 1 and
    1e-14 (below the pruning threshold), with none, one and several aligned
    particles.  The golden concurrence digits of the ``entangle`` CSVs depend
    on the rounding of this matrix, so any reordered sum shows here first.
    """

    @pytest.mark.parametrize(
        "case",
        json.loads(CONDITIONAL_STATES.read_text()),
        ids=lambda case: f"n{case['n']}-m{case['m']}-t{'_'.join(map(str, case['transmission']))}",
    )
    def test_density_matches_bit_for_bit(self, case):
        cfg = SchemeConfig(
            case["n"],
            case["m"],
            phi0=case["phi0"],
            phi=tuple(case["phi"]),
            theta=tuple(case["theta"]),
            transmission=tuple(case["transmission"]),
        )
        rho = conditional_detected_state(run_scheme(cfg))
        assert _density_record(rho) == case["rho"]
        assert _density_record(partial_trace(rho, (1, 2))) == case["pair"]


class TestRunScheme:
    def test_zero_phase_sum_yields_psi_plus(self):
        rho = conditional_detected_state(run_scheme(case_i()))
        assert fidelity(rho, bell_psi_plus()) >= 1 - 1e-12

    def test_pi_phase_sum_yields_phi_minus(self):
        rho = conditional_detected_state(run_scheme(case_i(phi0=math.pi)))
        assert fidelity(rho, bell_phi_minus()) >= 1 - 1e-12

    def test_all_aligned_rejected(self):
        with pytest.raises(ConfigError):
            run_scheme(SchemeConfig(2, 2))

    def test_no_alignment_runs(self):
        state = run_scheme(SchemeConfig(2, 0, phi0=0.3, phi=(0.1, 0.2)))
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert detected_particles(state) == (1, 2)

    def test_four_particle_two_aligned_depends_on_theta_sum(self):
        base = dict(phi0=0.3, phi=(0.2, 0.5))
        a = run_scheme(SchemeConfig(4, 2, theta=(0.1, 0.6), **base))
        b = run_scheme(SchemeConfig(4, 2, theta=(0.45, 0.25), **base))
        assert state_fidelity(a, b) == pytest.approx(1.0, abs=1e-12)
        for outcome in DetectionOutcome.all_outcomes(2):
            assert joint_probability(a, outcome) == pytest.approx(
                joint_probability(b, outcome), abs=1e-12
            )


class TestJointProbability:
    def test_case_i_values_at_zero_phase_sum(self):
        state = run_scheme(case_i())
        assert joint_probability(state, DetectionOutcome((0, 0))) == pytest.approx(0.0, abs=1e-14)
        assert joint_probability(state, DetectionOutcome((0, 1))) == pytest.approx(0.5)
        assert joint_probability(state, DetectionOutcome((1, 0))) == pytest.approx(0.5)
        assert joint_probability(state, DetectionOutcome((1, 1))) == pytest.approx(0.0, abs=1e-14)

    def test_completeness_inclusive_and_exclusive(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n_total = int(rng.integers(1, 7))
            m = int(rng.integers(0, n_total))
            cfg = SchemeConfig(
                n_total,
                m,
                phi0=rng.uniform(0, 2 * math.pi),
                phi=tuple(rng.uniform(0, 2 * math.pi, n_total - m)),
                theta=tuple(rng.uniform(0, 2 * math.pi, m)),
                transmission=tuple(rng.uniform(0, 1, m)),
            )
            state = run_scheme(cfg)
            outcomes = DetectionOutcome.all_outcomes(cfg.n_detected)
            inclusive = [joint_probability(state, o) for o in outcomes]
            assert sum(inclusive) == pytest.approx(1.0, abs=1e-12)
            table, lost = detection_table(state)
            assert sum(table.values()) + lost == pytest.approx(1.0, abs=1e-12)
            # both read the cells of the one table, column x for outcome x
            probs = outcome_probabilities(state)
            assert inclusive == probs.marginal[0].tolist()
            assert list(table) == list(outcomes)
            assert list(table.values()) == probs.loss_free[0].tolist() and lost == probs.lost

    @given(
        n_total=st.integers(1, 8),
        data=st.data(),
        transmission=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_pass_matches_brute_force_sums(self, n_total, data, transmission):
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
        state = run_scheme(cfg)
        probs = outcome_probabilities(state)

        def ports(full):
            primed = LabelKind.DETECTOR_PRIMED
            return tuple(int(full[j - 1].kind == primed) for j in cfg.detected_range)

        def absorbed(full):
            return any(label.kind == LabelKind.LOSS for label in full)

        def total(keep):
            # a left-to-right sum in term order, so the pass must match it exactly
            acc = 0.0
            for full, amp in state.amplitudes.items():
                if keep(full):
                    acc += abs(amp) ** 2
            return acc

        outcomes = [o.ports for o in DetectionOutcome.all_outcomes(cfg.n_detected)]
        assert probs.marginal.shape == probs.loss_free.shape == (1, len(outcomes))
        for x, target in enumerate(outcomes):  # column x is outcome x
            assert probs.marginal[0, x] == total(lambda o: ports(o) == target)
            assert probs.loss_free[0, x] == total(lambda o: ports(o) == target and not absorbed(o))
        assert probs.lost == total(absorbed)
        if transmission == 1.0 or m == 0:
            assert probs.lost == 0.0 and np.array_equal(probs.loss_free, probs.marginal)

    def test_column_is_the_outcome_read_as_bits(self):
        # the engine's states are symmetric under port permutations that keep the
        # number of primed ports, so a hand-made state pins the column order
        psi = pure_state_from_terms(
            [((detector(1), primed_detector(2), primed_detector(3), loss(4)), 0.6),
             ((primed_detector(1), detector(2), detector(3), aligned_beam(4)), 0.8)]
        )  # fmt: skip
        probs = outcome_probabilities(psi)
        assert probs.marginal[0].tolist() == pytest.approx([0, 0, 0, 0.36, 0.64, 0, 0, 0])
        assert probs.loss_free[0].tolist() == pytest.approx([0, 0, 0, 0, 0.64, 0, 0, 0])
        assert probs.lost == pytest.approx(0.36)
        assert joint_probability(psi, DetectionOutcome((0, 1, 1))) == pytest.approx(0.36)
        assert joint_probability(psi, DetectionOutcome((1, 0, 0))) == pytest.approx(0.64)
        table, _ = detection_table(psi)
        assert table[DetectionOutcome((1, 0, 0))] == pytest.approx(0.64)
        assert table[DetectionOutcome((0, 0, 1))] == 0.0

    def test_outcome_length_must_match(self):
        state = run_scheme(case_i())
        with pytest.raises(ValueError):
            joint_probability(state, DetectionOutcome((0, 1, 0)))

    def test_needs_detected_particles(self):
        psi = pure_state_from_terms([((source_beam(1),), 1.0)])
        with pytest.raises(ValueError):
            joint_probability(psi, DetectionOutcome((0,)))

    def test_slot_with_another_particles_detector_rejected(self):
        # slot 1 carries d2: it is a detector label, but not a port of particle 1
        psi = pure_state_from_terms([((detector(2), aligned_beam(2)), 1.0)])
        with pytest.raises(ValueError) as info:
            outcome_probabilities(psi)
        assert str(info.value) == "outcome |d2> cannot be mapped to a detector port"

    @pytest.mark.parametrize("ports", [(0.7, 1.9), (0.7, 1), ("1", "0"), (0, 2)])
    def test_ports_are_checked_before_int(self, ports):
        # int() would read 0.7 as 0, 1.9 as 1 and "1" as 1
        with pytest.raises(ValueError) as info:
            DetectionOutcome(ports)
        assert str(info.value) == f"ports must be 0 or 1, got {ports}"

    def test_outcome_needs_a_port(self):
        with pytest.raises(ValueError) as info:
            DetectionOutcome(())
        assert str(info.value) == "a detection outcome needs at least one port"

    @pytest.mark.parametrize("n_detected", [0, -1])
    def test_all_outcomes_needs_a_detected_particle(self, n_detected):
        with pytest.raises(ValueError) as info:
            DetectionOutcome.all_outcomes(n_detected)
        assert str(info.value) == "n_detected must be >= 1"

    def test_slot_mixing_detector_and_other_labels_rejected(self):
        psi = pure_state_from_terms(
            [((detector(1),), ROOT_HALF), ((aligned_beam(1),), ROOT_HALF)]
        )
        with pytest.raises(StructureError) as info:
            detected_particles(psi)
        assert str(info.value) == "particle 1 mixes detector and non-detector labels"

    @pytest.mark.parametrize("route", [outcome_probabilities, conditional_detected_state])
    def test_routes_reading_the_detected_particles_reject_a_mixed_slot(self, route):
        psi = pure_state_from_terms(
            [((detector(1),), ROOT_HALF), ((aligned_beam(1),), ROOT_HALF)]
        )
        with pytest.raises(StructureError) as info:
            route(psi)
        assert str(info.value) == "particle 1 mixes detector and non-detector labels"

    def test_integral_ports_are_stored_as_int(self):
        outcome = DetectionOutcome((True, 0.0, np.int64(1)))
        assert outcome.ports == (1, 0, 1)
        assert all(type(p) is int for p in outcome.ports)

    def test_matches_brute_force_branch_expansion(self):
        # Independent oracle: expand the two emission branches through the
        # beam-splitter maps literally, term by term.
        rng = np.random.default_rng(2401)
        for _ in range(20):
            phi0 = rng.uniform(0, 2 * math.pi)
            phis = rng.uniform(0, 2 * math.pi, 3)
            thetas = rng.uniform(0, 2 * math.pi, 2)
            cfg = SchemeConfig(5, 2, phi0=phi0, phi=tuple(phis), theta=tuple(thetas))
            state = run_scheme(cfg)
            for outcome in DetectionOutcome.all_outcomes(3):
                unprimed = cmath.exp(1j * sum(thetas)) * math.prod(
                    (1j if p else 1) * ROOT_HALF for p in outcome.ports
                )
                primed = cmath.exp(1j * (phi0 + sum(phis))) * math.prod(
                    (1 if p else 1j) * ROOT_HALF for p in outcome.ports
                )
                expected = abs(ROOT_HALF * (unprimed + primed)) ** 2
                assert joint_probability(state, outcome) == pytest.approx(expected, abs=1e-12)


EDGE_OR_ANY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestClosedFormAtLargeN:
    @given(
        n_total=st.integers(2, 14),
        m_draw=st.integers(1, 13),
        trans=st.lists(EDGE_OR_ANY, min_size=13, max_size=13),
        xi_parts=st.tuples(*[st.floats(-2 * math.pi, 2 * math.pi)] * 3),
    )
    @example(n_total=14, m_draw=7, trans=[0.9, 0.7, 1.0] * 4 + [0.5], xi_parts=(0.4, 1.1, -0.3))
    @example(n_total=14, m_draw=1, trans=[0.0] * 13, xi_parts=(2.0, 0.0, 0.5))
    @example(n_total=14, m_draw=13, trans=[1.0] * 12 + [0.3], xi_parts=(-1.0, 3.0, 0.2))
    @settings(max_examples=12, deadline=None)
    def test_detection_table_matches_attenuated_law(self, n_total, m_draw, trans, xi_parts):
        m = 1 + (m_draw - 1) % (n_total - 1)  # M in 1..N-1 without st.data, so @example works
        n, trans = n_total - m, tuple(trans[:m])
        phi0, phi1, theta = xi_parts
        cfg = SchemeConfig(
            n_total, m, phi0=phi0, phi=(phi1,) + (0.0,) * (n - 1),
            theta=(theta,) + (0.0,) * (m - 1), transmission=trans,
        )
        table, lost = detection_table(run_scheme(cfg))
        total_t = math.prod(trans)
        assert len(table) == 2**n
        for outcome, p in table.items():
            expected = attenuated_coincidence(n, sum(outcome.ports), total_t, cfg.xi)
            assert abs(p - expected) <= 1e-12, outcome.bitstring()
        assert abs(lost - (1 - total_t**2) / 2) <= 1e-12


class TestConditionalDetectedState:
    def test_pure_at_full_transmission(self):
        rho = conditional_detected_state(run_scheme(case_i(theta3=0.8)))
        eigenvalues = np.linalg.eigvalsh(rho.matrix)
        assert eigenvalues[-1] == pytest.approx(1.0, abs=1e-10)

    def test_half_transmission_bell_mixture(self):
        rho = conditional_detected_state(run_scheme(case_i(t3=0.5)))
        expected = density_from_mixture(
            [(0.25, bell_phi_minus()), (0.75, bell_psi_plus())]
        )
        np.testing.assert_allclose(rho.matrix, expected.matrix, atol=1e-12)

    def test_zero_transmission_equal_mixture(self):
        rho = conditional_detected_state(run_scheme(case_i(t3=0.0)))
        expected = density_from_mixture(
            [(0.5, bell_phi_minus()), (0.5, bell_psi_plus())]
        )
        np.testing.assert_allclose(rho.matrix, expected.matrix, atol=1e-12)

    def test_requires_detected_particles(self):
        psi = pure_state_from_terms([((aligned_beam(1),), 1.0)])
        with pytest.raises(ValueError):
            conditional_detected_state(psi)

    def test_reduces_without_the_full_projector(self):
        # 2^13 outcomes span the joint state, above the density cap; the
        # detected state over 2^8 outcomes is built without it
        cfg = SchemeConfig(13, 5, phi0=0.3, transmission=(0.5,) * 5)
        rho = conditional_detected_state(run_scheme(cfg))
        assert rho.kept_particles == tuple(range(1, 9))
        assert rho.dim == 256
        assert rho.matrix.trace().real == pytest.approx(1.0, abs=1e-12)


def port_matrix(rho) -> np.ndarray:
    """``rho`` over the whole port basis of its particles, zero outside its own basis."""
    k = len(rho.kept_particles)
    columns = port_columns(zip(*rho.basis), rho.kept_particles)
    dense = np.zeros((2**k, 2**k), dtype=complex)
    dense[np.ix_(columns, columns)] = rho.matrix
    return dense


#: t = 0 and 1 exactly, and any t.
FORM_TRANSMISSIONS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
#: Interference phases at which one parity of outcomes cancels exactly at T = 1.
FORM_CANCELLING_XI = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)


@st.composite
def form_schemes(draw) -> SchemeConfig:
    """Schemes of 1-6 detected and 0-2 aligned particles; one in four at a cancelling
    phase, with every other phase zero."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(0, 2))
    trans = tuple(draw(FORM_TRANSMISSIONS) for _ in range(m))
    if draw(st.integers(0, 3)) == 0:
        return SchemeConfig(n + m, m, phi0=draw(st.sampled_from(FORM_CANCELLING_XI)), transmission=trans)
    phases = st.floats(-7.0, 7.0)
    phi, theta = tuple(draw(phases) for _ in range(n)), tuple(draw(phases) for _ in range(m))
    return SchemeConfig(n + m, m, phi0=draw(phases), phi=phi, theta=theta, transmission=trans)


class TestDetectedState:
    """The two-branch form of the detected state against the sparse engine and the
    closed form: (n, T, e^(-i xi)) fixes rho."""

    @settings(max_examples=200, deadline=None)
    @given(cfg=form_schemes())
    def test_three_routes_agree(self, cfg):
        # closed form: rho = (1 + T)/2 |psi(xi)><psi(xi)| + (1 - T)/2 |psi(xi + pi)><psi(xi + pi)|
        total = math.prod(cfg.transmission)
        predicted = density_from_mixture([
            ((1 + total) / 2, predicted_output_state(cfg.n_detected, cfg.xi)),
            ((1 - total) / 2, predicted_output_state(cfg.n_detected, cfg.xi + math.pi)),
        ])  # fmt: skip
        form = detected_state(cfg).density()
        engine = conditional_detected_state(run_scheme(cfg))
        assert form.kept_particles == engine.kept_particles == tuple(cfg.detected_range)
        assert form.basis == port_outcomes(cfg.detected_range)
        assert np.abs(form.matrix - port_matrix(engine)).max() <= 1e-12
        assert np.abs(form.matrix - port_matrix(predicted)).max() <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(cfg=form_schemes().filter(lambda cfg: cfg.n_detected >= 3))
    def test_pair_is_the_engine_partial_trace(self, cfg):
        engine = partial_trace(conditional_detected_state(run_scheme(cfg)), (1, 2))
        pair = detected_state(cfg).pair()
        assert pair.kept_particles == (1, 2)
        assert np.abs(pair.matrix - port_matrix(engine)).max() <= 1e-12

    @pytest.mark.parametrize("xi", [0.0, 0.7, math.pi / 2, math.pi])
    def test_pure_state_at_full_transmission(self, xi):
        cfg = SchemeConfig(4, 1, phi0=xi)
        pure = detected_state(cfg).pure_state()
        engine = conditional_detected_state(run_scheme(cfg))
        assert state_fidelity(pure, pure_state_from_density(engine)) == pytest.approx(1.0, abs=1e-12)
        assert three_tangle(pure) == pytest.approx(1.0, abs=1e-12)

    def test_what_is_not_built(self):
        one = np.ones((1, 1))
        with pytest.raises(ValueError, match="mixed at T = 0.5"):
            DetectedState(3, 0.5, one).pure_state()
        with pytest.raises(ValueError, match="a pair of 2 particles is the whole state"):
            DetectedState(2, 1.0, one).pair()
        too_many = MAX_DENSITY_DIM.bit_length()  # 2^13 > 4096
        with pytest.raises(ValueError, match=f"of {too_many} particles exceeds {MAX_DENSITY_DIM}"):
            DetectedState(too_many, 1.0, one).density()

    @pytest.mark.parametrize("n", [0, -1, MAX_PARTICLES + 1])
    def test_particle_count_outside_the_scheme_is_refused(self, n):
        # refused before a 2^n array is sized; at n = 17 the density cap speaks first
        state = DetectedState(n, 1.0, np.ones((1, 1)))
        refused = f"n_detected must lie in [1, {MAX_PARTICLES}], got {n}"
        too_large = f"a density matrix of {n} particles exceeds {MAX_DENSITY_DIM}"
        for build, message in [
            (state.table, refused),
            (state.pure_state, refused),
            (state.density, refused if n < 1 else too_large),
        ]:
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message

    def test_equality_is_by_value(self):
        cfg = SchemeConfig(4, 1, phi0=0.3, transmission=(0.5,))
        sweep = detected_state(cfg, "theta.4", [0.0, 1.0])
        same = detected_state(cfg, "theta.4", [0.0, 1.0])
        assert sweep.phase is not same.phase
        assert (sweep == same) is True and (sweep != same) is False
        others = [
            detected_state(cfg, "theta.4", [0.0, 2.0]),  # another phase
            detected_state(cfg, "theta.4", [0.0]),  # another row count
            DetectedState(4, 0.5, sweep.phase),  # another n
            sweep._replace(transmission=0.25),
            sweep._replace(phase=sweep.phase.reshape(1, 2)),  # the same values as a row
            tuple(sweep),
        ]
        for other in others:
            assert (sweep == other) is False and (sweep != other) is True
            assert (other == sweep) is False and (other != sweep) is True
        with pytest.raises(TypeError):
            hash(sweep)
        with pytest.raises(TypeError):
            hash(detected_state(cfg))

    @pytest.mark.parametrize("n", [2, 3])
    def test_state_of_a_sweep_has_no_single_phase(self, n):
        # a column of two phases is a table, not a state: density() and pure_state() read one
        sweep = detected_state(SchemeConfig(n + 1, 1), f"theta.{n + 1}", [0.0, 1.0])
        assert sweep.phase.shape == (2, 1)
        assert sweep.table().loss_free.shape == (2, 2**n)
        for build in (sweep.density, sweep.pure_state):
            with pytest.raises(ValueError, match="size 1"):
                build()
        if n == 3:  # the pair reads no phase
            assert sweep.pair() is detected_state(SchemeConfig(4, 1)).pair()


class TestStageInvariants:
    def test_every_stage_preserves_norm(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n_total = int(rng.integers(2, 7))
            m = int(rng.integers(1, n_total))
            cfg = SchemeConfig(
                n_total,
                m,
                phi0=rng.uniform(0, 2 * math.pi),
                phi=tuple(rng.uniform(0, 2 * math.pi, n_total - m)),
                theta=tuple(rng.uniform(0, 2 * math.pi, m)),
                transmission=tuple(rng.uniform(0, 1, m)),
            )
            state = build_two_source_state(cfg)
            for l, theta, transmission in zip(cfg.aligned_range, cfg.theta, cfg.transmission):
                state = apply_path_identity(state, l, theta, transmission)
                assert abs(state.norm() - 1.0) <= 1e-12
            for j, phi in zip(cfg.detected_range, cfg.phi):
                state = apply_beam_splitter(state, j, phi)
                assert abs(state.norm() - 1.0) <= 1e-12

    def test_alignment_order_commutes(self):
        cfg = SchemeConfig(4, 2, theta=(0.3, 0.9), transmission=(0.7, 0.4))
        start = build_two_source_state(cfg)
        forward = apply_path_identity(
            apply_path_identity(start, 3, 0.3, 0.7), 4, 0.9, 0.4
        )
        backward = apply_path_identity(
            apply_path_identity(start, 4, 0.9, 0.4), 3, 0.3, 0.7
        )
        assert_states_close(forward, backward)

    def test_beam_splitter_order_commutes(self):
        cfg = SchemeConfig(3, 1, phi=(0.2, 1.1))
        start = apply_path_identity(build_two_source_state(cfg), 3, 0.0, 1.0)
        forward = apply_beam_splitter(apply_beam_splitter(start, 1, 0.2), 2, 1.1)
        backward = apply_beam_splitter(apply_beam_splitter(start, 2, 1.1), 1, 0.2)
        assert_states_close(forward, backward)

    def test_output_depends_only_on_phase_sum(self):
        # Same xi through different phase decompositions, including different
        # splits over theta (which also shifts the global phase, hence the
        # fidelity comparison rather than amplitude equality).
        xi = 1.3
        configs = [
            SchemeConfig(3, 1, phi0=xi),
            SchemeConfig(3, 1, phi=(xi / 2, xi / 2)),
            SchemeConfig(3, 1, phi0=xi + 0.8, theta=(0.8,)),
            SchemeConfig(3, 1, phi0=-0.4, phi=(1.0, 1.5), theta=(0.8,)),
        ]
        states = [run_scheme(c) for c in configs]
        for other in states[1:]:
            assert state_fidelity(states[0], other) == pytest.approx(1.0, abs=1e-12)

    def test_detector_pattern_symmetry(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            cfg = case_i(
                phi0=rng.uniform(0, 2 * math.pi),
                phi1=rng.uniform(0, 2 * math.pi),
                phi2=rng.uniform(0, 2 * math.pi),
                theta3=rng.uniform(0, 2 * math.pi),
                t3=rng.uniform(0, 1),
            )
            state = run_scheme(cfg)
            p = {o.bitstring(): joint_probability(state, o) for o in DetectionOutcome.all_outcomes(2)}
            assert p["00"] == pytest.approx(p["11"], abs=1e-12)
            assert p["01"] == pytest.approx(p["10"], abs=1e-12)

    def test_complementarity_at_full_transmission(self):
        rng = np.random.default_rng(78)
        for _ in range(20):
            cfg = case_i(
                phi0=rng.uniform(0, 2 * math.pi),
                theta3=rng.uniform(0, 2 * math.pi),
            )
            state = run_scheme(cfg)
            total = joint_probability(state, DetectionOutcome((0, 0))) + joint_probability(
                state, DetectionOutcome((0, 1))
            )
            assert total == pytest.approx(0.5, abs=1e-12)
