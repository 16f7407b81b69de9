"""Quantitative observables: interference patterns, visibility, entanglement measures."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import NormalizationError, VisibilityUndefinedError
from .interferometer import SchemeConfig, outcome_probabilities, run_scheme
from .states import (
    DensityMatrix,
    LabelKind,
    Outcome,
    PureState,
    pure_state_from_terms,
    to_density,
)

_PROBABILITY_SLACK = 1e-9
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


def sweep_pattern(cfg: SchemeConfig, variable: str, grid: Sequence[float]) -> np.ndarray:
    """Loss-inclusive probabilities of every coincidence outcome along a phase sweep,
    from one scheme run per phase of ``variable`` (as in :meth:`SchemeConfig.replace_phase`):
    one row per ``grid`` value, column x the outcome ``DetectionOutcome.all_outcomes(n)[x]``,
    as in :func:`branch_probabilities`."""
    cfg.phase_slot(variable)  # an unknown variable is rejected whatever the grid
    states = (run_scheme(cfg.replace_phase(variable, float(v))) for v in grid)
    rows = [outcome_probabilities(state).marginal[0] for state in states]
    return np.array(rows).reshape(len(rows), 2**cfg.n_detected)


def visibility(phases: Sequence[float], samples: Sequence[float]) -> float:
    """(max - min)/(max + min) of the least-squares sinusoid through one pattern: the
    probability ``samples`` of one outcome at the finite, strictly increasing ``phases`` of the
    sweep variable, such as a column of :func:`sweep_pattern`.

    The fit model is ``offset + a cos(phase) + b sin(phase)``, which recovers
    the ideal pattern exactly on a uniform full-period grid.  The phases must
    be at least 8 and cover a full 2 pi period (endpoint-exclusive grids
    qualify), with one sample in [0, 1] per phase.
    """
    phases, samples = np.asarray(phases, dtype=float), np.asarray(samples, dtype=float)
    if len(phases) < 8:
        raise ValueError(f"a pattern needs at least 8 phases, got {len(phases)}")
    gaps = np.diff(phases)
    if not ((gaps > 0).all() and np.isfinite(phases).all()):
        raise ValueError("pattern phases must be finite and strictly increasing")
    if phases.ndim != 1 or samples.shape != phases.shape:
        raise ValueError(f"sample shape {samples.shape} does not match phase shape {phases.shape}")
    if not (samples.min() >= -_PROBABILITY_SLACK and samples.max() <= 1.0 + _PROBABILITY_SLACK):
        raise ValueError("pattern probabilities must lie in [0, 1]")
    if phases[-1] - phases[0] + gaps.max() < 2 * math.pi - 1e-9:
        raise ValueError("visibility needs a pattern covering a full 2*pi period")
    design = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    (offset, a, b), *_ = np.linalg.lstsq(design, samples, rcond=None)
    amplitude = math.hypot(a, b)
    peak, trough = offset + amplitude, offset - amplitude
    if peak + trough <= 1e-12:
        raise VisibilityUndefinedError("pattern is identically zero; visibility is undefined")
    return float((peak - trough) / (peak + trough))


_PORT_BITS = {LabelKind.DETECTOR_UNPRIMED: 0, LabelKind.DETECTOR_PRIMED: 1}


def _port_index(outcome: Outcome, particles: Sequence[int]) -> int:
    """The 0/1 ports of ``outcome`` (unprimed -> 0, primed -> 1) read as a binary
    number, the first of ``particles`` the highest bit; each label must be a
    detector port of its own particle."""
    value = 0
    for label, particle in zip(outcome, particles):
        if label.kind not in _PORT_BITS or label.index != particle:
            raise ValueError(
                f"label {label} cannot be mapped to a detector port of particle {particle}"
            )
        value = (value << 1) | _PORT_BITS[label.kind]
    return value


def _computational_matrix(rho: DensityMatrix) -> np.ndarray:
    """Embed a detector-label density matrix into the dense 0/1 port basis."""
    k = len(rho.kept_particles)
    indices = [_port_index(outcome, rho.kept_particles) for outcome in rho.basis]
    dense = np.zeros((2**k, 2**k), dtype=complex)
    dense[np.ix_(indices, indices)] = rho.matrix
    return dense


def concurrence(rho: DensityMatrix) -> float:
    """Spin-flip concurrence of a two-particle detector-port density matrix.

    Computes ``max(0, l1 - l2 - l3 - l4)`` from the decreasing square roots of
    the eigenvalues of ``rho (Y x Y) rho* (Y x Y)``, with ports mapped
    unprimed -> 0 and primed -> 1.
    """
    if len(rho.kept_particles) != 2:
        raise ValueError(f"concurrence needs exactly two particles, got {rho.kept_particles}")
    matrix = _computational_matrix(rho)
    flipped = _SPIN_FLIP @ matrix.conj() @ _SPIN_FLIP
    # sqrt(rho) @ flipped @ sqrt(rho) is Hermitian and similar to rho @ flipped,
    # so it has the same spectrum but admits a stable eigensolver.
    evals, evecs = np.linalg.eigh(matrix)
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    spectrum = np.linalg.eigvalsh(root @ flipped @ root)
    roots = np.sort(np.sqrt(np.clip(spectrum, 0.0, None)))[::-1]
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def one_to_rest_concurrence(psi: PureState, particle: int) -> float:
    """Concurrence of one particle with the rest: ``2 sqrt(det rho_k)``."""
    reduced = to_density(psi, (particle,))
    matrix = _computational_matrix(reduced)
    determinant = np.linalg.det(matrix).real
    return 2.0 * math.sqrt(max(0.0, determinant))


def three_tangle(psi: PureState) -> float:
    """Three-tangle of a pure three-particle detector-port state.

    Cayley's hyperdeterminant of the eight port amplitudes ``a_ijk``,
    ``tau = 4 |d1 - 2 d2 + 4 d3|`` (Coffman, Kundu, Wootters, PRA 61, 052306
    (2000)), which equals the residual ``C_{1(23)}^2 - C_{12}^2 - C_{13}^2``.
    Outcomes missing from ``psi`` have amplitude zero.
    """
    if psi.particle_count != 3:
        raise ValueError(f"three_tangle needs a three-particle state, got {psi.particle_count}")
    if not psi.is_normalized:
        raise NormalizationError("three_tangle needs a normalized state")
    a = [0j] * 8
    for outcome, amp in psi.amplitudes.items():
        a[_port_index(outcome, (1, 2, 3))] = amp
    a000, a001, a010, a011, a100, a101, a110, a111 = a
    p, q, r, s = a000 * a111, a001 * a110, a010 * a101, a100 * a011
    d1 = p * p + q * q + r * r + s * s
    d2 = p * q + p * r + p * s + q * r + q * s + r * s
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    return 4 * abs(d1 - 2 * d2 + 4 * d3)


def fidelity(rho: DensityMatrix, target: PureState) -> float:
    """Overlap ``<target|rho|target>`` of a mixed state with a pure target."""
    if target.particle_count != len(rho.kept_particles):
        raise ValueError(
            f"target covers {target.particle_count} particles, "
            f"density matrix covers {len(rho.kept_particles)}"
        )
    if not target.is_normalized:
        raise NormalizationError("fidelity target must be normalized")
    vector = np.array([target.amplitude(o) for o in rho.basis], dtype=complex)
    return float((vector.conj() @ rho.matrix @ vector).real)


def pure_state_from_density(rho: DensityMatrix, tol: float = 1e-10) -> PureState:
    """Extract the pure state of a rank-one density matrix.

    The returned state's global phase is fixed by making its largest
    amplitude real and positive.  Raises ``ValueError`` when any subleading
    eigenvalue exceeds ``tol``.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(rho.matrix)
    if eigenvalues[:-1].size and eigenvalues[:-1].max() > tol:
        raise ValueError(
            f"density matrix is not pure within {tol:g} "
            f"(second eigenvalue {eigenvalues[-2]:.3e})"
        )
    vector = eigenvectors[:, -1]
    anchor = vector[int(np.argmax(np.abs(vector)))]
    vector = vector * (anchor.conjugate() / abs(anchor))
    return pure_state_from_terms(zip(rho.basis, vector))
