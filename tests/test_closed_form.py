"""Tests for the closed-form states and probabilities."""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np
import pytest

from pisim import (
    EntangledClass,
    EntangledClassId,
    SchemeConfig,
    bell_phi_minus,
    bell_psi_plus,
    conditional_detected_state,
    detector_outcome,
    dicke_state,
    entangled_class_state,
    fidelity,
    ghz_class_three,
    inner_product,
    predicted_output_state,
    predicted_probability,
    run_scheme,
    state_fidelity,
    xi_for_class,
)

F1, F2, F3, F4 = (
    EntangledClassId.F1,
    EntangledClassId.F2,
    EntangledClassId.F3,
    EntangledClassId.F4,
)


def all_valid_classes(max_n: int):
    for class_id in EntangledClassId:
        ns = range(2, max_n + 1, 2) if class_id in (F1, F2) else range(1, max_n + 1, 2)
        for n in ns:
            yield class_id, n


class TestDickeState:
    def test_single_excitation_pair(self):
        psi = dicke_state(2, 1)
        assert psi.amplitude(detector_outcome((0, 1))) == pytest.approx(math.sqrt(0.5))
        assert psi.amplitude(detector_outcome((1, 0))) == pytest.approx(math.sqrt(0.5))
        assert psi.term_count == 2

    def test_extreme_indices_have_one_term(self):
        assert dicke_state(3, 0).term_count == 1
        assert dicke_state(3, 0).amplitude(detector_outcome((0, 0, 0))) == pytest.approx(1.0)
        assert dicke_state(3, 3).term_count == 1

    def test_three_choose_two(self):
        psi = dicke_state(3, 2)
        assert psi.term_count == 3
        for outcome, amp in psi.terms():
            assert amp == pytest.approx(1 / math.sqrt(3))

    def test_orthogonal_across_excitation_number(self):
        for r, s in itertools.combinations(range(5), 2):
            assert inner_product(dicke_state(4, r), dicke_state(4, s)) == 0

    @pytest.mark.parametrize("n,r", [(0, 0), (2, -1), (2, 3)])
    def test_invalid_index_rejected(self, n, r):
        with pytest.raises(ValueError):
            dicke_state(n, r)
        with pytest.raises(ValueError):
            predicted_probability(n, r, 0.0)


class TestPredictedOutputState:
    def test_unprimed_pair_amplitude_vanishes_at_zero_phase(self):
        psi = predicted_output_state(2, 0.0)
        assert abs(psi.amplitude(detector_outcome((0, 0)))) <= 1e-14

    def test_pi_phase_gives_phi_minus(self):
        assert state_fidelity(predicted_output_state(2, math.pi), bell_phi_minus()) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_zero_phase_gives_psi_plus(self):
        assert state_fidelity(predicted_output_state(2, 0.0), bell_psi_plus()) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_quarter_turn_gives_ghz_class(self):
        assert state_fidelity(
            predicted_output_state(3, math.pi / 2), ghz_class_three()
        ) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_normalized_for_any_phase(self, n):
        rng = np.random.default_rng(n)
        for xi in rng.uniform(-10, 10, size=8):
            assert abs(predicted_output_state(n, xi).norm() - 1.0) <= 1e-12

    def test_rejects_empty_detected_set(self):
        with pytest.raises(ValueError):
            predicted_output_state(0, 0.0)

    def test_amplitude_pattern(self):
        n, xi = 4, 1.234
        psi = predicted_output_state(n, xi)
        scale = 0.5 ** ((n + 1) / 2)
        for ports in itertools.product((0, 1), repeat=n):
            r = sum(ports)
            expected = scale * (1j**r + 1j ** (n - r) * cmath.exp(1j * xi))
            assert psi.amplitude(detector_outcome(ports)) == pytest.approx(expected, abs=1e-14)


class TestEntangledClassState:
    def test_f2_pair_is_psi_plus(self):
        psi = entangled_class_state(EntangledClass(F2, 2))
        assert state_fidelity(psi, bell_psi_plus()) == pytest.approx(1.0, abs=1e-12)

    def test_f1_pair_is_phi_minus(self):
        psi = entangled_class_state(EntangledClass(F1, 2))
        assert state_fidelity(psi, bell_phi_minus()) == pytest.approx(1.0, abs=1e-12)

    def test_f3_triple_is_ghz_class(self):
        psi = entangled_class_state(EntangledClass(F3, 3))
        assert state_fidelity(psi, ghz_class_three()) == pytest.approx(1.0, abs=1e-12)

    def test_alternating_signs(self):
        psi = entangled_class_state(EntangledClass(F1, 4))
        amp = 1 / math.sqrt(8)  # C(4,0)+C(4,2)+C(4,4) outcomes
        assert psi.amplitude(detector_outcome((0, 0, 0, 0))) == pytest.approx(amp)
        assert psi.amplitude(detector_outcome((1, 1, 0, 0))) == pytest.approx(-amp)
        assert psi.amplitude(detector_outcome((1, 1, 1, 1))) == pytest.approx(amp)

    @pytest.mark.parametrize(
        "class_id,n", [(F1, 3), (F2, 0), (F3, 2), (F4, 4), (F1, 0), (F3, -1)]
    )
    def test_parity_rule_enforced(self, class_id, n):
        with pytest.raises(ValueError):
            EntangledClass(class_id, n)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_amplitude_is_one_rounding_of_the_root(self, n):
        # a class holds 2^(n-1) outcomes; 0.5^(n-1) is exact, so only the root rounds
        amp = math.sqrt(0.5 ** (n - 1))
        for class_id in (F3, F4) if n % 2 else (F1, F2):
            psi = entangled_class_state(EntangledClass(class_id, n))
            assert psi.term_count == 2 ** (n - 1)
            assert {complex(a) for a in psi.amplitudes.values()} <= {amp, -amp}


class TestNamedTargets:
    """Psi+, Phi- and GHZ3 keep their exact amplitudes."""

    @pytest.mark.parametrize(
        "make, amplitudes",
        [
            (bell_psi_plus, {(0, 1): math.sqrt(0.5), (1, 0): math.sqrt(0.5)}),
            (bell_phi_minus, {(0, 0): math.sqrt(0.5), (1, 1): -math.sqrt(0.5)}),
            (ghz_class_three, {(0, 0, 0): 0.5, (1, 1, 0): -0.5, (1, 0, 1): -0.5, (0, 1, 1): -0.5}),
        ],
        ids=["Psi+", "Phi-", "GHZ3"],
    )
    def test_exact_amplitudes(self, make, amplitudes):
        psi = make()
        assert psi.term_count == len(amplitudes)
        for ports, amp in amplitudes.items():
            assert psi.amplitude(detector_outcome(ports)) == amp

    @pytest.mark.parametrize(
        "make, class_id, n",
        [(bell_psi_plus, F2, 2), (bell_phi_minus, F1, 2), (ghz_class_three, F3, 3)],
        ids=["Psi+", "Phi-", "GHZ3"],
    )
    def test_named_target_is_its_class_member(self, make, class_id, n):
        assert make().amplitudes == entangled_class_state(EntangledClass(class_id, n)).amplitudes


class TestXiForClass:
    @pytest.mark.parametrize(
        "n,class_id,m,expected",
        [
            (2, F2, 0, 0.0),
            (2, F1, 0, math.pi),
            (4, F1, 0, 0.0),
            (4, F2, 0, math.pi),
            (3, F3, 0, math.pi / 2),
            (3, F4, 0, -math.pi / 2),
            (1, F3, 0, -math.pi / 2),
            (1, F4, 0, math.pi / 2),
            (2, F2, 1, 2 * math.pi),
            (5, F3, -1, -2.5 * math.pi),
        ],
    )
    def test_table(self, n, class_id, m, expected):
        assert xi_for_class(n, class_id, m) == pytest.approx(expected)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(ValueError):
            xi_for_class(3, F1, 0)

    @pytest.mark.parametrize("class_id,n", list(all_valid_classes(6)))
    def test_every_phase_produces_its_class(self, class_id, n):
        target = entangled_class_state(EntangledClass(class_id, n))
        for m in range(-2, 3):
            produced = predicted_output_state(n, xi_for_class(n, class_id, m))
            assert state_fidelity(produced, target) >= 1 - 1e-9


class TestPredictedProbability:
    def test_pair_values_at_zero_phase(self):
        # Per-outcome values of the two-detected pattern at zero phase: the
        # aligned-port outcome is dark, each crossed outcome carries 1/2.
        assert predicted_probability(2, 0, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert predicted_probability(2, 1, 0.0) == pytest.approx(0.5)
        assert predicted_probability(2, 2, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_completeness(self):
        rng = np.random.default_rng(99)
        for n in range(1, 7):
            for xi in rng.uniform(-8, 8, size=5):
                total = sum(math.comb(n, r) * predicted_probability(n, r, xi) for r in range(n + 1))
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_amplitudes_of_predicted_state(self):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            xi = float(rng.uniform(0, 2 * math.pi))
            psi = predicted_output_state(n, xi)
            for ports in itertools.product((0, 1), repeat=n):
                amp = psi.amplitude(detector_outcome(ports))
                assert abs(amp) ** 2 == pytest.approx(
                    predicted_probability(n, sum(ports), xi), abs=1e-12
                )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            predicted_probability(2, 3, 0.0)


class TestOracleEquivalence:
    def test_simulation_matches_closed_form(self):
        rng = np.random.default_rng(20260810)
        for n in range(1, 5):
            for m in range(0, 3):
                for _ in range(10):
                    phases = rng.uniform(0, 2 * math.pi, size=1 + n + m)
                    cfg = SchemeConfig(
                        n + m,
                        m,
                        phi0=phases[0],
                        phi=tuple(phases[1 : 1 + n]),
                        theta=tuple(phases[1 + n :]),
                    )
                    rho = conditional_detected_state(run_scheme(cfg))
                    predicted = predicted_output_state(n, cfg.xi)
                    assert fidelity(rho, predicted) >= 1 - 1e-9
