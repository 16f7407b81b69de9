"""Quantitative observables: interference patterns, visibility, entanglement measures."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import NormalizationError, VisibilityUndefinedError
from .interferometer import SchemeConfig, outcome_probabilities, run_scheme
from .states import DensityMatrix, PureState, port_columns, pure_state_from_terms

_PROBABILITY_SLACK = 1e-9
#: Largest subleading eigenvalue :func:`pure_state_from_density` accepts.
_PURITY_TOLERANCE = 1e-10
#: Eigenvalues that :func:`concurrence` treats as rounding noise, and the concurrence it
#: reports as 0: separable pairs give up to about 1e-15 without it.
_RANK_FLOOR = CONCURRENCE_FLOOR = 1e-12
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y).real  # its imaginary parts are all 0


def sweep_pattern(cfg: SchemeConfig, variable: str, grid: Sequence[float]) -> np.ndarray:
    """Loss-inclusive probabilities of every coincidence outcome along a phase sweep,
    from one scheme run per phase of ``variable`` (as in :meth:`SchemeConfig.replace_phase`):
    one row per ``grid`` value, column x the outcome ``port_outcomes(range(1, n + 1))[x]``,
    as in ``detected_state(cfg, variable, grid).table().marginal`` of the two-branch form.  An
    unknown variable is rejected whatever the grid."""
    cfg.phase_slot(variable)
    states = (run_scheme(cfg.replace_phase(variable, v)) for v in grid)
    rows = [outcome_probabilities(state).marginal[0] for state in states]
    return np.array(rows).reshape(len(rows), 2**cfg.n_detected)


def visibility(phases: Sequence[float], samples: Sequence[float]) -> float | np.ndarray:
    """(max - min)/(max + min) of the least-squares sinusoid ``offset + a cos(phase) +
    b sin(phase)`` through each pattern: the probabilities ``samples`` in [0, 1] of one outcome
    at the finite, strictly increasing ``phases`` of the sweep variable, at least 8 covering a
    full 2 pi period (endpoint-exclusive grids qualify), such as a column of :func:`sweep_pattern`.
    As in numpy, the last axis of ``samples`` runs over ``phases`` and leading axes index
    independent patterns, each solved on the one design: a float for one pattern, else an array
    of shape ``samples.shape[:-1]``.  The fit is exact on a uniform full-period grid."""
    phases, samples = np.asarray(phases, dtype=float), np.asarray(samples, dtype=float)
    if len(phases) < 8:
        raise ValueError(f"a pattern needs at least 8 phases, got {len(phases)}")
    gaps = np.diff(phases)
    if not ((gaps > 0).all() and np.isfinite(phases).all()):
        raise ValueError("pattern phases must be finite and strictly increasing")
    if phases.ndim != 1 or samples.shape[-1:] != phases.shape:
        raise ValueError(f"sample shape {samples.shape} does not match phase shape {phases.shape}")
    if not ((samples >= -_PROBABILITY_SLACK) & (samples <= 1.0 + _PROBABILITY_SLACK)).all():
        raise ValueError("pattern probabilities must lie in [0, 1]")
    if phases[-1] - phases[0] + gaps.max() < 2 * math.pi - 1e-9:
        raise ValueError("visibility needs a pattern covering a full 2*pi period")
    design = np.column_stack([np.ones_like(phases), np.cos(phases), np.sin(phases)])
    values = []
    for pattern in samples.reshape(-1, len(phases)):
        (offset, a, b), *_ = np.linalg.lstsq(design, pattern, rcond=None)
        amplitude = math.hypot(a, b)
        peak, trough = offset + amplitude, offset - amplitude
        if peak + trough <= 1e-12:
            raise VisibilityUndefinedError("pattern is identically zero; visibility is undefined")
        values.append(float((peak - trough) / (peak + trough)))
    return values[0] if samples.ndim == 1 else np.array(values).reshape(samples.shape[:-1])


def _computational_matrix(rho: DensityMatrix) -> np.ndarray:
    """Embed a detector-label density matrix into the dense 0/1 port basis."""
    k = len(rho.kept_particles)
    indices = port_columns(zip(*rho.basis), rho.kept_particles)
    dense = np.zeros((2**k, 2**k), dtype=complex)
    dense[np.ix_(indices, indices)] = rho.matrix
    return dense


def concurrence(rho: DensityMatrix) -> float:
    """Concurrence of a two-particle detector-port density matrix (ports mapped unprimed -> 0,
    primed -> 1) in Wootters' form (PRL 80, 2245 (1998)): with ``rho = X X^dagger`` over the
    eigenvalues above :data:`_RANK_FLOOR`, the l_i are the singular values of
    ``X^T (Y x Y) X`` and ``C = max(0, l1 - l2 - ...)``; no root of rounding noise is taken.
    A value at or below :data:`CONCURRENCE_FLOOR` is 0."""
    if len(rho.kept_particles) != 2:
        raise ValueError(f"concurrence needs exactly two particles, got {rho.kept_particles}")
    evals, evecs = np.linalg.eigh(_computational_matrix(rho))
    kept = evals > _RANK_FLOOR
    factor = evecs[:, kept] * np.sqrt(evals[kept])
    lambdas = np.linalg.svd(factor.T @ _SPIN_FLIP @ factor, compute_uv=False)  # descending
    value = lambdas[0] - lambdas[1:].sum()
    return float(value) if value > CONCURRENCE_FLOOR else 0.0


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
    a = dict(zip(port_columns(zip(*psi.amplitudes), (1, 2, 3)).tolist(), psi.amplitudes.values()))
    a000, a001, a010, a011, a100, a101, a110, a111 = (a.get(x, 0j) for x in range(8))
    p, q, r, s = a000 * a111, a001 * a110, a010 * a101, a100 * a011
    d1 = p * p + q * q + r * r + s * s
    d2 = p * q + p * r + p * s + q * r + q * s + r * s
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    return 4 * abs(d1 - 2 * d2 + 4 * d3)


def fidelity(rho: DensityMatrix, target: PureState) -> float:
    """Overlap ``<target|rho|target>`` of a mixed state with a pure target."""
    particles = tuple(label.index for label in next(iter(target.amplitudes)))
    if particles != rho.kept_particles:  # each slot of a state carries one particle's labels
        raise ValueError(
            f"target covers particles {particles}, density matrix covers {rho.kept_particles}"
        )
    if not target.is_normalized:
        raise NormalizationError("fidelity target must be normalized")
    get = target.amplitudes.get  # the basis outcomes are tuples already
    vector = np.array([get(o, 0j) for o in rho.basis], dtype=complex)
    return float((vector.conj() @ rho.matrix @ vector).real)


def pure_state_from_density(rho: DensityMatrix) -> PureState:
    """Extract the pure state of a rank-one density matrix.

    The returned state's global phase is fixed by making its largest
    amplitude real and positive.  Raises ``ValueError`` when any subleading
    eigenvalue exceeds :data:`_PURITY_TOLERANCE`.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(rho.matrix)
    if eigenvalues[:-1].size and eigenvalues[:-1].max() > _PURITY_TOLERANCE:
        raise ValueError(
            f"density matrix is not pure within {_PURITY_TOLERANCE:g} "
            f"(second eigenvalue {eigenvalues[-2]:.3e})"
        )
    vector = eigenvectors[:, -1]
    anchor = vector[int(np.argmax(np.abs(vector)))]
    vector = vector * (anchor.conjugate() / abs(anchor))
    return pure_state_from_terms(zip(rho.basis, vector))
