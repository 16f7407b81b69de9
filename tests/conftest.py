"""Shared builders for the test suite, and the reference routes that only tests call."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from pisim import (
    AMPLITUDE_EPSILON,
    DensityMatrix,
    NormalizationError,
    PathLabel,
    PureState,
    SchemeConfig,
    StructureError,
    aligned_beam,
    detector,
    primed_detector,
    pure_state_from_terms,
)
from pisim.analysis import CONCURRENCE_FLOOR
from pisim.states import TRACE_TOLERANCE, _product_basis, port_columns


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


def density_from_mixture(components: Iterable[tuple[float, PureState]]) -> DensityMatrix:
    """Convex mixture ``sum_k w_k |psi_k><psi_k|`` of normalized pure states."""
    components = list(components)
    if not components:
        raise ValueError("mixture needs at least one component")
    weights = [float(w) for w, _ in components]
    if any(w < -AMPLITUDE_EPSILON for w in weights):
        raise ValueError("mixture weights must be nonnegative")
    if abs(sum(weights) - 1.0) > TRACE_TOLERANCE:
        raise ValueError(f"mixture weights sum to {sum(weights):.15g}, expected 1")
    count = components[0][1].particle_count
    label_sets: list[set[PathLabel]] = [set() for _ in range(count)]
    for _, psi in components:
        if psi.particle_count != count:
            raise StructureError("mixture components must share a particle count")
        if not psi.is_normalized:
            raise NormalizationError("mixture components must be normalized")
        for p in range(1, count + 1):
            label_sets[p - 1].update(psi.particle_labels(p))
    basis = _product_basis([sorted(s) for s in label_sets])
    matrix = np.zeros((len(basis), len(basis)), dtype=complex)
    for weight, psi in components:
        vector = np.array([psi.amplitude(o) for o in basis], dtype=complex)
        matrix += weight * np.outer(vector, vector.conj())
    return DensityMatrix(tuple(range(1, count + 1)), basis, matrix)


def one_to_rest_concurrence(psi: PureState, particle: int) -> float:
    """Concurrence of one particle with the rest, ``2 s1 s2`` from the singular values of its
    2 x k amplitude matrix (rows its port bits, columns the other particles' distinct label
    tuples, at least two): no root of rounding noise; at or below CONCURRENCE_FLOOR it is 0."""
    if not psi.is_normalized:
        raise NormalizationError(f"state norm is {psi.norm():.15g}, expected 1")
    if particle not in range(1, psi.particle_count + 1):
        raise ValueError(f"particles {[particle]} are not part of this state")
    slot = particle - 1
    rows = port_columns([[outcome[slot] for outcome in psi.amplitudes]], (particle,))
    rest: dict[tuple, int] = {}
    columns = [rest.setdefault(o[:slot] + o[slot + 1 :], len(rest)) for o in psi.amplitudes]
    matrix = np.zeros((2, max(2, len(rest))), dtype=complex)
    matrix[rows, columns] = list(psi.amplitudes.values())
    s1, s2 = np.linalg.svd(matrix, compute_uv=False)
    value = 2.0 * s1 * s2
    return float(value) if value > CONCURRENCE_FLOOR else 0.0


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
