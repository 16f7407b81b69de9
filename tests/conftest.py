"""Shared builders for the test suite."""

from __future__ import annotations

import math

import numpy as np

from pisim import (
    PureState,
    SchemeConfig,
    aligned_beam,
    detector,
    primed_detector,
    pure_state_from_terms,
)


def case_i(
    phi0: float = 0.0,
    phi1: float = 0.0,
    phi2: float = 0.0,
    theta3: float = 0.0,
    t3: float = 1.0,
) -> SchemeConfig:
    """Three particles, one aligned: the workhorse two-detected configuration."""
    return SchemeConfig(3, 1, phi0=phi0, phi=(phi1, phi2), theta=(theta3,), transmission=(t3,))


def attenuated_coincidence(n: int, r: int, total_t: float, xi: float) -> float:
    """Loss-free probability of one outcome with ``r`` primed ports out of ``n``
    detected, at total transmission ``total_t`` = prod(t_l) and phase ``xi``:
    (1 + T^2 + 2T cos(xi + (n - 2r) pi/2)) / 2^(n+1).  The loss is (1 - T^2)/2."""
    return (1 + total_t**2 + 2 * total_t * math.cos(xi + (n - 2 * r) * math.pi / 2)) / 2 ** (n + 1)


def random_detector_state(rng: np.random.Generator, particles: int) -> PureState:
    """Normalized random superposition over detector labels of 1..particles."""
    pool = [(detector(p), primed_detector(p)) for p in range(1, particles + 1)]
    terms = []
    for _ in range(rng.integers(2, 2**particles + 2)):
        outcome = tuple(pool[p][rng.integers(0, 2)] for p in range(particles))
        amp = complex(rng.normal(), rng.normal())
        terms.append((outcome, amp))
    return pure_state_from_terms(terms).normalized()


def random_mode_state(rng: np.random.Generator, particles: int) -> PureState:
    """Normalized random state mixing detector and aligned/loss labels."""
    terms = []
    for _ in range(rng.integers(2, 10)):
        outcome = []
        for p in range(1, particles + 1):
            choice = rng.integers(0, 3)
            outcome.append(
                detector(p) if choice == 0 else primed_detector(p) if choice == 1 else aligned_beam(p)
            )
        terms.append((tuple(outcome), complex(rng.normal(), rng.normal())))
    return pure_state_from_terms(terms).normalized()


def assert_states_close(a: PureState, b: PureState, tol: float = 1e-12) -> None:
    """Entrywise amplitude comparison of two sparse states."""
    assert a.particle_count == b.particle_count
    outcomes = set(a.amplitudes) | set(b.amplitudes)
    for outcome in outcomes:
        assert abs(a.amplitude(outcome) - b.amplitude(outcome)) <= tol, outcome
