"""Tests for the closed-form states and probabilities."""

from __future__ import annotations

import cmath
import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pisim import (
    DetectionOutcome,
    EntangledClass,
    EntangledClassId,
    SchemeConfig,
    bell_phi_minus,
    bell_psi_plus,
    conditional_detected_state,
    detector,
    detector_outcome,
    dicke_state,
    entangled_class_state,
    fidelity,
    ghz_class_three,
    inner_product,
    outcome_probabilities,
    predicted_output_state,
    predicted_probability,
    primed_detector,
    pure_state_from_terms,
    run_scheme,
    state_fidelity,
    xi_for_class,
)
from pisim.states import port_bitstrings, port_outcomes

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


def _ports_of_combination(n: int, primed_slots: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(1 if k in primed_slots else 0 for k in range(n))


def _dicke_reference(n: int, r: int):
    """dicke_state written out independently of port_outcomes: one outcome per
    combination of r primed slots."""
    amp = 1.0 / math.sqrt(math.comb(n, r))
    slots = itertools.combinations(range(n), r)
    outcomes = [detector_outcome(_ports_of_combination(n, c)) for c in slots]
    return pure_state_from_terms((outcome, amp) for outcome in outcomes)


def _predicted_reference(n: int, xi: float):
    """predicted_output_state written out independently of port_outcomes: the product of
    each particle's two ports, with its primed-port count from a parallel product of bits."""
    phase = cmath.exp(1j * float(xi))
    scale = 0.5 ** ((n + 1) / 2)
    i_pow = (1 + 0j, 1j, -1 + 0j, -1j)
    by_r = [scale * (i_pow[r % 4] + i_pow[(n - r) % 4] * phase) for r in range(n + 1)]
    outcomes = itertools.product(*((detector(j), primed_detector(j)) for j in range(1, n + 1)))
    primed = map(sum, itertools.product((0, 1), repeat=n))
    return pure_state_from_terms(zip(outcomes, map(by_r.__getitem__, primed)))


def _class_reference(cls: EntangledClass):
    """entangled_class_state written out independently of port_outcomes: each Dicke
    component of the class in turn, one outcome per combination, the sign alternating."""
    r_values = cls.dicke_r_values
    amp = math.sqrt(1.0 / sum(math.comb(cls.n, r) for r in r_values))
    terms = []
    for position, r in enumerate(r_values):
        sign = -amp if position % 2 else amp
        for primed_slots in itertools.combinations(range(cls.n), r):
            terms.append((detector_outcome(_ports_of_combination(cls.n, primed_slots)), sign))
    return pure_state_from_terms(terms)


def assert_same_amplitudes(psi, reference) -> None:
    """The same outcomes, and the same amplitude at each, compared with ``==``."""
    assert set(psi.amplitudes) == set(reference.amplitudes)
    for outcome, amp in reference.amplitudes.items():
        assert psi.amplitudes[outcome] == amp, outcome


class TestPortOrder:
    """The builders read their outcomes from port_outcomes in column order, the order of the
    engine's tables, and keep every amplitude of the per-combination constructions."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_predicted_output_state_bits(self, n):
        for xi in (0.0, 0.3, math.pi / 2, math.pi, 2.0, -5.1):
            assert_same_amplitudes(predicted_output_state(n, xi), _predicted_reference(n, xi))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_dicke_state_bits(self, n):
        for r in range(n + 1):
            assert_same_amplitudes(dicke_state(n, r), _dicke_reference(n, r))

    @pytest.mark.parametrize("class_id,n", list(all_valid_classes(8)))
    def test_entangled_class_state_bits(self, class_id, n):
        cls = EntangledClass(class_id, n)
        assert_same_amplitudes(entangled_class_state(cls), _class_reference(cls))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_column_x_is_detection_outcome_x(self, n):
        outcomes, detections = port_outcomes(range(1, n + 1)), DetectionOutcome.all_outcomes(n)
        assert len(outcomes) == len(detections) == 2**n
        for x, outcome in enumerate(outcomes):
            assert outcome == detector_outcome(detections[x].ports)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_bitstring_x_marks_the_primed_ports_of_outcome_x(self, k):
        strings, outcomes = list(port_bitstrings(k)), port_outcomes(range(1, k + 1))
        assert len(strings) == len(outcomes) == 2**k
        for bits, outcome in zip(strings, outcomes):
            assert len(bits) == k
            primed = {j for j, label in enumerate(outcome) if label == primed_detector(j + 1)}
            unprimed = {j for j, label in enumerate(outcome) if label == detector(j + 1)}
            assert {j for j, c in enumerate(bits) if c == "1"} == primed
            assert {j for j, c in enumerate(bits) if c == "0"} == unprimed

    @pytest.mark.parametrize("n", range(1, 9))
    def test_column_order_is_the_sorted_order(self, n):
        # so oracle-check reads the predicted terms in dict order, with no sort
        outcomes = port_outcomes(range(1, n + 1))
        assert outcomes == tuple(sorted(outcomes))
        for xi in (0.0, 0.3, math.pi / 2):  # some xi prune one parity
            predicted = predicted_output_state(n, xi)
            assert list(predicted.amplitudes.items()) == predicted.terms()

    def test_particles_keep_their_labels(self):
        d2, d4, p2, p4 = detector(2), detector(4), primed_detector(2), primed_detector(4)
        assert port_outcomes((2, 4)) == ((d2, d4), (d2, p4), (p2, d4), (p2, p4))
        assert port_outcomes(()) == ((),)

    def test_detector_outcome_takes_only_ports(self):
        assert list(inspect.signature(detector_outcome).parameters) == ["ports"]
        assert detector_outcome((1, 0)) == (primed_detector(1), detector(2))
        with pytest.raises(ValueError, match="port must be 0 or 1, got 2"):
            detector_outcome((0, 2))

    @given(
        n_total=st.integers(1, 9),
        data=st.data(),
        phases=st.lists(st.floats(-7.0, 7.0), min_size=10, max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_engine_column_is_closed_form_probability(self, n_total, data, phases):
        m = data.draw(st.integers(0, n_total - 1))
        n = n_total - m
        phi, theta = tuple(phases[1 : n + 1]), tuple(phases[n + 1 : n_total + 1])
        cfg = SchemeConfig(n_total, m, phi0=phases[0], phi=phi, theta=theta)
        row = outcome_probabilities(run_scheme(cfg)).loss_free[0]
        psi = predicted_output_state(n, cfg.xi)
        assert len(row) == 2**n
        for x, outcome in enumerate(port_outcomes(range(1, n + 1))):
            assert abs(row[x] - abs(psi.amplitude(outcome)) ** 2) <= 1e-12, x


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
