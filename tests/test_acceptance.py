"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

from __future__ import annotations

import math
import time

import numpy as np

from pisim import (
    DetectionOutcome,
    EntangledClass,
    EntangledClassId,
    SchemeConfig,
    bell_phi_minus,
    bell_psi_plus,
    concurrence,
    conditional_detected_state,
    detection_table,
    entangled_class_state,
    fidelity,
    joint_probability,
    partial_trace,
    predicted_output_state,
    pure_state_from_density,
    run_scheme,
    state_fidelity,
    sweep_pattern,
    three_tangle,
    to_density,
    visibility,
    xi_for_class,
)
from conftest import case_i, one_to_rest_concurrence

FULL_TURN = [k * math.tau / 64 for k in range(64)]
T3_GRID = [k / 10 for k in range(11)]


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_01_case_i_pattern():
    started = time.perf_counter()
    phi_sum = 0.6
    rows = sweep_pattern(case_i(phi0=phi_sum), "theta.3", FULL_TURN)
    worst = 0.0
    thetas = np.array(FULL_TURN)
    for x, outcome in enumerate(DetectionOutcome.all_outcomes(2)):
        sign = -1 if outcome.ports[0] == outcome.ports[1] else +1
        expected = (1 + sign * np.cos(phi_sum - thetas)) / 4
        worst = max(worst, np.abs(rows[:, x] - expected).max())
    elapsed = time.perf_counter() - started
    report(
        1,
        "two-detected pattern",
        worst <= 1e-10 and elapsed < 1.0,
        f"max deviation {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_02_bell_state_switching():
    even = fidelity(conditional_detected_state(run_scheme(case_i())), bell_psi_plus())
    odd = fidelity(
        conditional_detected_state(run_scheme(case_i(phi0=math.pi))), bell_phi_minus()
    )
    report(
        2,
        "Bell-state switching",
        even >= 1 - 1e-10 and odd >= 1 - 1e-10,
        f"fidelities {even:.12f} / {odd:.12f}",
    )


def test_criterion_03_theta_sum_dependence():
    rng = np.random.default_rng(40302)
    worst_infidelity = 0.0
    worst_probability = 0.0
    for _ in range(20):
        total = float(rng.uniform(0, 4 * math.pi))
        splits = rng.uniform(0, 2 * math.pi, size=2)
        base = dict(phi0=float(rng.uniform(0, 2 * math.pi)))
        a = run_scheme(SchemeConfig(4, 2, theta=(splits[0], total - splits[0]), **base))
        b = run_scheme(SchemeConfig(4, 2, theta=(splits[1], total - splits[1]), **base))
        worst_infidelity = max(worst_infidelity, 1 - state_fidelity(a, b))
        for outcome in DetectionOutcome.all_outcomes(2):
            gap = abs(joint_probability(a, outcome) - joint_probability(b, outcome))
            worst_probability = max(worst_probability, gap)
    report(
        3,
        "theta-sum dependence",
        worst_infidelity <= 1e-10 and worst_probability <= 1e-12,
        f"max infidelity {worst_infidelity:.3e}, max probability gap {worst_probability:.3e}",
    )


def test_criterion_04_general_scheme_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(1859)
    worst = 0.0
    for n in range(1, 6):
        for m in range(0, 4):
            for _ in range(100):
                phases = rng.uniform(0, 2 * math.pi, size=1 + n + m)
                cfg = SchemeConfig(
                    n + m,
                    m,
                    phi0=phases[0],
                    phi=tuple(phases[1 : 1 + n]),
                    theta=tuple(phases[1 + n :]),
                )
                rho = conditional_detected_state(run_scheme(cfg))
                worst = max(worst, 1 - fidelity(rho, predicted_output_state(n, cfg.xi)))
    elapsed = time.perf_counter() - started
    report(
        4,
        "general-scheme oracle",
        worst <= 1e-9 and elapsed < 30.0,
        f"max infidelity {worst:.3e} over 2000 cases, {elapsed:.1f}s",
    )


def test_criterion_05_class_attainment():
    worst = 0.0
    for class_id in EntangledClassId:
        even = class_id in (EntangledClassId.F1, EntangledClassId.F2)
        for n in range(2 if even else 1, 7, 2):
            target = entangled_class_state(EntangledClass(class_id, n))
            for m in range(-2, 3):
                produced = predicted_output_state(n, xi_for_class(n, class_id, m))
                worst = max(worst, 1 - state_fidelity(produced, target))
    report(5, "class attainment", worst <= 1e-9, f"max infidelity {worst:.3e}")


def test_criterion_06_ghz_class_measures():
    produced = predicted_output_state(3, math.pi / 2)
    tangle = three_tangle(produced)
    full = to_density(produced)
    pairwise = max(
        concurrence(partial_trace(full, pair)) for pair in ((1, 2), (1, 3), (2, 3))
    )
    one_rest = [one_to_rest_concurrence(produced, k) for k in (1, 2, 3)]

    # simulated route: one aligned particle with the matching phase sum
    simulated = conditional_detected_state(
        run_scheme(SchemeConfig(4, 1, phi0=math.pi / 2))
    )
    sim_tangle = three_tangle(pure_state_from_density(simulated))

    ok = (
        abs(tangle - 1) <= 1e-9
        and abs(sim_tangle - 1) <= 1e-9
        and pairwise <= 1e-9
        and all(abs(c - 1) <= 1e-9 for c in one_rest)
    )
    report(
        6,
        "GHZ-class measures",
        ok,
        f"tangle {tangle:.12f} (simulated {sim_tangle:.12f}), "
        f"max pairwise {pairwise:.2e}, one-vs-rest {min(one_rest):.12f}",
    )


def test_criterion_07_concurrence_visibility_transmission():
    worst_c = 0.0
    worst_v = 0.0
    for t3 in T3_GRID:
        seen_c = concurrence(conditional_detected_state(run_scheme(case_i(t3=t3))))
        rows = sweep_pattern(case_i(t3=t3), "theta.3", FULL_TURN)
        seen_v = visibility(FULL_TURN, rows[:, 1])  # outcome 01
        worst_c = max(worst_c, abs(seen_c - t3))
        worst_v = max(worst_v, abs(seen_v - t3))
    report(
        7,
        "concurrence = visibility = transmission",
        worst_c <= 1e-12 and worst_v <= 1e-6,
        f"max |C-T| {worst_c:.2e}, max |V-T| {worst_v:.2e}",
    )


def test_criterion_08_fidelity_visibility_law():
    worst = 0.0
    for t3 in T3_GRID:
        rows = sweep_pattern(case_i(t3=t3), "theta.3", FULL_TURN)
        seen_v = visibility(FULL_TURN, rows[:, 1])  # outcome 01
        even = fidelity(
            conditional_detected_state(run_scheme(case_i(t3=t3))), bell_psi_plus()
        )
        odd = fidelity(
            conditional_detected_state(run_scheme(case_i(phi0=math.pi, t3=t3))),
            bell_phi_minus(),
        )
        worst = max(worst, abs(even - (1 + seen_v) / 2), abs(odd - (1 + seen_v) / 2))
    report(8, "fidelity law", worst <= 1e-9, f"max |F-(1+V)/2| {worst:.2e}")


def test_criterion_09_parity_matrix_regression():
    worst = 0.0
    for t3 in (0.0, 0.5, 1.0):
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
        even = conditional_detected_state(run_scheme(case_i(t3=t3)))
        odd = conditional_detected_state(run_scheme(case_i(phi0=math.pi, t3=t3)))
        worst = max(
            worst,
            np.abs(even.matrix - expected_even).max(),
            np.abs(odd.matrix - expected_odd).max(),
        )
    report(9, "parity matrix regression", worst <= 1e-12, f"max entry deviation {worst:.2e}")


def test_criterion_10_conservation_suite():
    rng = np.random.default_rng(77001)
    worst_total = 0.0
    worst_hermiticity = 0.0
    worst_trace = 0.0
    smallest_eigenvalue = 0.0
    for _ in range(200):
        n_total = int(rng.integers(1, 9))
        m = int(rng.integers(0, n_total))
        cfg = SchemeConfig(
            n_total,
            m,
            phi0=float(rng.uniform(-2 * math.pi, 2 * math.pi)),
            phi=tuple(rng.uniform(-2 * math.pi, 2 * math.pi, n_total - m)),
            theta=tuple(rng.uniform(-2 * math.pi, 2 * math.pi, m)),
            transmission=tuple(rng.uniform(0, 1, m)),
        )
        state = run_scheme(cfg)
        inclusive = sum(
            joint_probability(state, o) for o in DetectionOutcome.all_outcomes(cfg.n_detected)
        )
        table, lost = detection_table(state)
        exclusive = sum(table.values()) + lost
        worst_total = max(worst_total, abs(inclusive - 1), abs(exclusive - 1))

        rho = conditional_detected_state(state)
        worst_hermiticity = max(
            worst_hermiticity, np.abs(rho.matrix - rho.matrix.conj().T).max()
        )
        worst_trace = max(worst_trace, abs(rho.matrix.trace().real - 1))
        smallest_eigenvalue = min(smallest_eigenvalue, np.linalg.eigvalsh(rho.matrix).min())
    ok = (
        worst_total <= 1e-12
        and worst_hermiticity <= 1e-12
        and worst_trace <= 1e-12
        and smallest_eigenvalue >= -1e-10
    )
    report(
        10,
        "conservation suite",
        ok,
        f"max |sum-1| {worst_total:.2e}, hermiticity {worst_hermiticity:.2e}, "
        f"trace {worst_trace:.2e}, min eigenvalue {smallest_eigenvalue:.2e}",
    )
