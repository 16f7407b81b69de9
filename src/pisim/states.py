"""Sparse algebra of multi-particle path states.

Particles are distinguishable, labelled subsystems carrying a single path
degree of freedom.  A pure state is a sparse complex superposition over
product assignments of :class:`PathLabel` values; density matrices are dense
arrays over the product basis actually spanned by their source states.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from enum import IntEnum
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptyStateError, NormalizationError, StructureError, ValidationError

#: Amplitudes at or below this magnitude are treated as exact cancellations.
AMPLITUDE_EPSILON = 1e-14
#: Tolerance on |<psi|psi> - 1| wherever a normalized state is required.
NORM_TOLERANCE = 1e-12
HERMITICITY_TOLERANCE = 1e-12
TRACE_TOLERANCE = 1e-12
#: Eigenvalues of a density matrix may dip this far below zero numerically.
#: :class:`DensityMatrix` tests it by one Cholesky factorisation of rho - floor * I,
#: which exists exactly when every eigenvalue of rho exceeds the floor; ``eigvalsh``
#: runs only when that fails, to accept a smallest eigenvalue equal to the floor and
#: to word the rejection.  Both are backward stable, with errors of order
#: dim * 1e-16 * ||rho|| (Higham, *Accuracy and Stability of Numerical Algorithms*,
#: 2nd ed., ch. 10), so they decide alike unless the smallest eigenvalue lies within
#: that rounding band of the floor.
EIGENVALUE_FLOOR = -1e-10
#: Refuse to materialize density matrices beyond this dimension.
MAX_DENSITY_DIM = 4096


class LabelKind(IntEnum):
    """Kinds of single-particle modes.

    The enum order fixes the canonical basis ordering: unprimed before primed,
    detector ports before the undetected aligned/loss modes they follow.
    """

    SOURCE_BEAM = 0
    PRIMED_SOURCE_BEAM = 1
    DETECTOR_UNPRIMED = 2
    DETECTOR_PRIMED = 3
    ALIGNED_BEAM = 4
    LOSS = 5


_KIND_GLYPHS = {
    LabelKind.SOURCE_BEAM: "b{0}",
    LabelKind.PRIMED_SOURCE_BEAM: "b{0}'",
    LabelKind.DETECTOR_UNPRIMED: "d{0}",
    LabelKind.DETECTOR_PRIMED: "d{0}'",
    LabelKind.ALIGNED_BEAM: "a{0}",
    LabelKind.LOSS: "v{0}",
}


@functools.total_ordering
class PathLabel:
    """A single-particle mode: source beam, detector port, aligned beam, or loss mode.

    Labels are interned: ``PathLabel(kind, index)`` returns the one instance
    for that pair, so equality and hashing are object identity and outcome
    tuples hash and compare without calling back into Python.  Immutable,
    ordered by the ``(kind, index)`` key each label stores once; pickling and
    copying return the same object.
    """

    __slots__ = ("kind", "index", "_key")
    kind: LabelKind
    index: int

    def __new__(cls, kind: LabelKind, index: int) -> PathLabel:
        if type(kind) is LabelKind and type(index) is int:  # a bool or float index is rejected below
            label = _LABELS.get((kind, index))
            if label is not None:
                return label
        if type(kind) is not LabelKind:
            raise ValueError(f"label kind must be a LabelKind member, got {kind!r}")
        if isinstance(index, bool) or not isinstance(index, int) or index < 1:
            raise ValueError(f"label index must be a positive integer, got {index!r}")
        key = (kind, index)
        label = object.__new__(cls)
        object.__setattr__(label, "kind", kind)
        object.__setattr__(label, "index", index)
        object.__setattr__(label, "_key", key)
        # setdefault: two threads building one label both get the first instance
        return _LABELS.setdefault(key, label)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable PathLabel")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable PathLabel")

    def __reduce__(self) -> tuple[type[PathLabel], tuple[LabelKind, int]]:
        return PathLabel, (self.kind, self.index)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not PathLabel:
            return NotImplemented
        return self._key < other._key

    def __str__(self) -> str:
        return _KIND_GLYPHS[self.kind].format(self.index)

    def __repr__(self) -> str:
        return f"PathLabel({self})"


#: The one :class:`PathLabel` built for each ``(kind, index)`` pair.
_LABELS: dict[tuple[LabelKind, int], PathLabel] = {}


def source_beam(j: int) -> PathLabel:
    """Beam of particle ``j`` emitted by the first source."""
    return PathLabel(LabelKind.SOURCE_BEAM, j)


def primed_source_beam(j: int) -> PathLabel:
    """Beam of particle ``j`` emitted by the second source."""
    return PathLabel(LabelKind.PRIMED_SOURCE_BEAM, j)


def detector(j: int) -> PathLabel:
    """Unprimed output port of beam splitter ``j``."""
    return PathLabel(LabelKind.DETECTOR_UNPRIMED, j)


def primed_detector(j: int) -> PathLabel:
    """Primed output port of beam splitter ``j``."""
    return PathLabel(LabelKind.DETECTOR_PRIMED, j)


def aligned_beam(j: int) -> PathLabel:
    """Beam of particle ``j`` downstream of the alignment region.

    Both emission branches feed this mode once the paths of particle ``j``
    have been made identical, so carrying a dedicated kind keeps the stage
    history readable off the state itself.
    """
    return PathLabel(LabelKind.ALIGNED_BEAM, j)


def loss(j: int) -> PathLabel:
    """Mode of particle ``j`` absorbed by the attenuator; orthogonal to all beams."""
    return PathLabel(LabelKind.LOSS, j)


#: One basis ket of the joint space: one label per particle, slots 1..N.
Outcome = tuple[PathLabel, ...]


def detector_outcome(ports: Sequence[int]) -> Outcome:
    """Product outcome of detector labels for 0/1 ``ports`` (0 -> d_k, 1 -> d_k'), k = 1, 2, ..."""
    labels = []
    for particle, port in enumerate(ports, 1):
        if port not in (0, 1):
            raise ValueError(f"port must be 0 or 1, got {port!r}")
        labels.append(detector(particle) if port == 0 else primed_detector(particle))
    return tuple(labels)


def port_outcomes(particles: Iterable[int]) -> tuple[Outcome, ...]:
    """The 2^k detector outcomes of the k ``particles`` in column order: outcome x reads
    its ports as the bits of x, the first particle the highest bit, unprimed d_k = 0 and
    primed d_k' = 1.  This is the order of every table column and port basis in pisim."""
    return tuple(itertools.product(*((detector(j), primed_detector(j)) for j in particles)))


@functools.cache
def port_bitstrings(k: int) -> tuple[str, ...]:
    """The :func:`port_outcomes` of k particles as k-bit strings, 1 for a primed port.
    Cached: one tuple of 2^k strings per k asked for, and pisim asks for k up to
    ``MAX_PARTICLES`` only."""
    return tuple(map("".join, itertools.product("01", repeat=k)))


def port_columns(slots: Iterable[Sequence[PathLabel]], particles: Sequence[int]) -> np.ndarray:
    """The column among :func:`port_outcomes` of ``particles`` of each outcome, given by slot
    as ``zip(*outcomes)`` gives them: slot s must carry particle ``particles[s]``'s unprimed
    (bit 0) or primed (bit 1) detector label, the first slot the highest bit; ValueError
    for an outcome that does not."""
    slots, ports = list(slots), [{detector(j): 0, primed_detector(j): 1} for j in particles]
    columns = np.zeros(len(slots[0]) if slots else 0, np.intp)
    try:  # a strict zip raises ValueError when the slots are not one per particle
        for bit, labels in zip(ports, slots, strict=True):
            columns = 2 * columns + np.fromiter(map(bit.__getitem__, labels), np.intp, len(labels))
    except (KeyError, ValueError):
        fits = lambda o: len(o) == len(ports) and all(map(dict.__contains__, ports, o))
        outcome = format_outcome(next((o for o in zip(*slots) if not fits(o)), ()))
        raise ValueError(f"outcome {outcome} cannot be mapped to a detector port") from None
    return columns


def format_outcome(outcome: Outcome) -> str:
    return "|" + " ".join(str(label) for label in outcome) + ">"


@dataclass(frozen=True)
class PureState:
    """Sparse superposition over product path labels, one label per particle.

    Immutable after construction; every stored amplitude is finite, with
    magnitude above :data:`AMPLITUDE_EPSILON`.  Build instances with
    :func:`pure_state_from_terms`; a mapping given here directly is copied.
    """

    particle_count: int
    amplitudes: Mapping[Outcome, complex]

    def __post_init__(self) -> None:
        if self.particle_count < 1:  # reported before the terms, for an empty mapping too
            raise StructureError("a state needs at least one particle")
        frozen = _frozen_terms(self.particle_count, dict(self.amplitudes), prune=False)
        object.__setattr__(self, "amplitudes", frozen)

    def amplitude(self, outcome: Outcome) -> complex:
        """Amplitude of ``outcome``; zero when the outcome is absent."""
        return self.amplitudes.get(tuple(outcome), 0j)

    def terms(self) -> list[tuple[Outcome, complex]]:
        """Terms in canonical (label-sorted) order."""
        return sorted(self.amplitudes.items(), key=lambda item: item[0])

    @property
    def term_count(self) -> int:
        return len(self.amplitudes)

    @functools.cached_property
    def slot_labels(self) -> tuple[tuple[PathLabel, ...], ...]:
        """The labels of each slot, one per term in term order: ``zip(*amplitudes)``,
        formed once per state for the routes that read it in turn."""
        return tuple(zip(*self.amplitudes))

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm() - 1.0) <= NORM_TOLERANCE

    def normalized(self) -> PureState:
        """Unit-norm copy of this state; terms scaled below the threshold are pruned."""
        scale = 1.0 / self.norm()
        return pure_state_from_terms((o, a * scale) for o, a in self.amplitudes.items())

    def particle_labels(self, particle: int) -> tuple[PathLabel, ...]:
        """Sorted distinct labels carried by 1-based ``particle`` across all terms."""
        if not 1 <= particle <= self.particle_count:
            raise ValueError(f"particle {particle} out of range 1..{self.particle_count}")
        slot = particle - 1
        return tuple(sorted({outcome[slot] for outcome in self.amplitudes}))

    def __repr__(self) -> str:
        body = " + ".join(f"({a:.4g}){format_outcome(o)}" for o, a in self.terms()[:4])
        tail = " + ..." if self.term_count > 4 else ""
        return f"PureState({body}{tail})"


def pure_state_from_terms(terms: Iterable[tuple[Outcome, complex]]) -> PureState:
    """Superpose ``(outcome, amplitude)`` pairs, summing duplicates and pruning
    amplitudes that cancel below :data:`AMPLITUDE_EPSILON`."""
    accumulated: dict[Outcome, complex] = {}
    length: int | None = None
    for outcome, amp in terms:
        outcome = tuple(outcome)
        if length is None:
            length = len(outcome)
        elif len(outcome) != length:
            raise StructureError(
                f"outcome {format_outcome(outcome)} has {len(outcome)} labels, expected {length}"
            )
        accumulated[outcome] = accumulated.get(outcome, 0j) + complex(amp)
    if length is None:
        raise EmptyStateError("no terms provided")
    return pruned_state(length, accumulated)


def pruned_state(particle_count: int, accumulated: dict[Outcome, complex]) -> PureState:
    """The state of the summed ``accumulated`` amplitudes, after deleting from
    ``accumulated`` those that cancel below :data:`AMPLITUDE_EPSILON`; the state
    keeps ``accumulated`` itself, read-only, so the caller hands it over.  A NaN
    is kept, and rejected as :class:`PureState` rejects it."""
    frozen = _frozen_terms(particle_count, accumulated, prune=True)
    state = object.__new__(PureState)  # _frozen_terms has made the checks of __post_init__
    object.__setattr__(state, "particle_count", particle_count)
    object.__setattr__(state, "amplitudes", frozen)
    return state


def _frozen_terms(
    count: int, amplitudes: dict[Outcome, complex], prune: bool
) -> Mapping[Outcome, complex]:
    """``amplitudes`` read-only, after one walk that holds every term to the rule of
    :class:`PureState`: ``count`` labels and a finite amplitude above
    :data:`AMPLITUDE_EPSILON`.  With ``prune``, the terms at or below it are deleted
    first (a NaN is not); then the first term left that breaks the rule raises, or
    a ``count`` below 1 once some term is left."""
    cancelled, low, high = [], AMPLITUDE_EPSILON, math.inf
    for outcome, amp in amplitudes.items():
        if len(outcome) != count or not low < abs(amp) < high:  # false for NaN too
            if prune and abs(amp) <= low:
                cancelled.append(outcome)
            elif count < 1:
                break
            elif len(outcome) != count:
                raise StructureError(
                    f"outcome {format_outcome(outcome)} has {len(outcome)} labels, expected {count}"
                )
            elif not cmath.isfinite(amp):
                raise ValueError(f"amplitude for {format_outcome(outcome)} is not finite")
            else:
                raise ValueError(f"amplitude {amp!r} is below the pruning threshold")
    for outcome in cancelled:
        del amplitudes[outcome]
    if not amplitudes:
        raise EmptyStateError("all amplitudes cancelled" if prune else "state has no terms")
    if count < 1:
        raise StructureError("a state needs at least one particle")
    return MappingProxyType(amplitudes)


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b> in the orthonormal outcome basis; conjugate-linear in ``a``."""
    if a.particle_count != b.particle_count:
        raise StructureError(f"particle counts differ: {a.particle_count} vs {b.particle_count}")
    if a.term_count > b.term_count:
        return inner_product(b, a).conjugate()
    return sum(amp.conjugate() * b.amplitude(outcome) for outcome, amp in a.amplitudes.items())


def state_fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2 - global-phase-insensitive overlap of two normalized states."""
    return abs(inner_product(a, b)) ** 2


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace operator on a subset of particles.

    ``basis`` lists the outcomes (restricted to ``kept_particles``) indexing
    the rows and columns, in canonical sorted order.
    """

    kept_particles: tuple[int, ...]
    basis: tuple[Outcome, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        kept = tuple(self.kept_particles)
        if not kept or any(kept[i] >= kept[i + 1] for i in range(len(kept) - 1)):
            raise ValidationError("kept_particles must be a nonempty ascending tuple")
        basis = tuple(tuple(o) for o in self.basis)
        if not basis:
            raise ValidationError("basis must be nonempty")
        if any(len(o) != len(kept) for o in basis):
            raise ValidationError("every basis outcome must cover exactly the kept particles")
        for particle, column in zip(kept, zip(*basis)):  # each distinct label once
            foreign = [
                str(x) for x in set(column) if not isinstance(x, PathLabel) or x.index != particle
            ]
            if foreign:
                raise ValidationError(
                    f"basis slot of particle {particle} carries {min(foreign)}, "
                    f"which is not a label of particle {particle}"
                )
        if not all(map(operator.lt, basis, basis[1:])):
            raise ValidationError("basis must be strictly ascending")
        matrix = np.asarray(self.matrix, dtype=complex)
        if matrix.shape != (len(basis), len(basis)):
            raise ValidationError(
                f"matrix shape {matrix.shape} does not match basis size {len(basis)}"
            )
        if not np.isfinite(matrix).all():
            raise ValidationError("matrix has non-finite entries")
        work = matrix.T.copy()  # one buffer: conj(rho^T), then the gap, then rho - floor * I
        np.conjugate(work, out=work)
        gap = np.subtract(matrix, work, out=work).view(float)  # its real and imaginary parts
        # |z| <= sqrt(2) max(|Re z|, |Im z|): the magnitudes are needed only above tolerance / 2
        if np.abs(gap).max() > HERMITICITY_TOLERANCE / 2:
            deviation = np.abs(work).max()
            if deviation > HERMITICITY_TOLERANCE:
                raise ValidationError(f"matrix is not Hermitian (max deviation {deviation:.3e})")
        trace = matrix.trace()
        if abs(trace - 1.0) > TRACE_TOLERANCE:
            raise ValidationError(f"trace is {trace:.15g}, expected 1")
        work[...] = matrix
        work.flat[:: len(basis) + 1] -= EIGENVALUE_FLOOR
        try:
            np.linalg.cholesky(work)  # factors exactly when every eigenvalue is above the floor
        except np.linalg.LinAlgError:
            smallest = np.linalg.eigvalsh(matrix).min()
            if smallest < EIGENVALUE_FLOOR:
                raise ValidationError(f"matrix has negative eigenvalue {smallest:.3e}") from None
        matrix.setflags(write=False)
        object.__setattr__(self, "kept_particles", kept)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __repr__(self) -> str:
        return f"DensityMatrix(particles={self.kept_particles}, dim={self.dim})"


def _product_basis(label_sets: Sequence[Sequence[PathLabel]]) -> tuple[Outcome, ...]:
    size = math.prod(len(s) for s in label_sets)
    if size > MAX_DENSITY_DIM:
        raise ValueError(f"density matrix basis would have {size} states (cap {MAX_DENSITY_DIM})")
    return tuple(itertools.product(*label_sets))


def _kept(keep: Iterable[int], particles: Sequence[int]) -> tuple[int, ...]:
    """``keep`` as a nonempty ascending tuple drawn from ``particles``."""
    keep = tuple(sorted(set(keep)))
    if not keep:
        raise ValueError("keep must name at least one particle")
    missing = [p for p in keep if p not in particles]
    if missing:
        raise ValueError(f"particles {missing} are not part of this state")
    return keep


def to_density(psi: PureState, keep: Iterable[int] | None = None) -> DensityMatrix:
    """Reduced density matrix of a normalized state on the ``keep`` particles
    (default: every particle, i.e. the projector |psi><psi|).

    Built from the sparse terms: each group of terms sharing their labels on
    the traced particles adds one outer product over the kept particles'
    product basis, in ascending order of those labels.  That is the order in
    which :func:`partial_trace` of the full projector sums them, so both give
    the same matrix bit for bit.
    """
    if not psi.is_normalized:
        raise NormalizationError(f"state norm is {psi.norm():.15g}, expected 1")
    particles = range(1, psi.particle_count + 1)
    keep = tuple(particles) if keep is None else _kept(keep, particles)
    columns = psi.slot_labels
    basis = _product_basis([sorted(set(columns[p - 1])) for p in keep])
    index = {o: i for i, o in enumerate(basis)}
    kept = zip(*(columns[p - 1] for p in keep))
    traced = list(zip(*(columns[p - 1] for p in particles if p not in keep)))
    traced = traced or [()] * psi.term_count
    group = {labels: i for i, labels in enumerate(sorted(set(traced)))}
    # one vector over the basis per group of terms, ascending in their traced labels
    vectors = np.zeros((len(group), len(basis)), dtype=complex)
    vectors[
        np.fromiter(map(group.__getitem__, traced), np.intp, psi.term_count),
        np.fromiter(map(index.__getitem__, kept), np.intp, psi.term_count),
    ] = np.fromiter(psi.amplitudes.values(), complex, psi.term_count)
    matrix = np.zeros((len(basis), len(basis)), dtype=complex)
    for vector in vectors:
        matrix += np.outer(vector, vector.conj())
    return DensityMatrix(keep, basis, matrix)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced density matrix on the ``keep`` subset of ``rho.kept_particles``."""
    keep = _kept(keep, rho.kept_particles)
    if keep == rho.kept_particles:
        return rho

    columns = list(zip(*rho.basis))
    kept_parts = list(zip(*(columns[rho.kept_particles.index(p)] for p in keep)))
    traced_parts = list(zip(*(c for c, p in zip(columns, rho.kept_particles) if p not in keep)))
    new_basis = tuple(sorted(set(kept_parts)))
    new_index = {o: i for i, o in enumerate(new_basis)}
    targets = np.fromiter(map(new_index.__getitem__, kept_parts), np.intp)

    groups = {t: g for g, t in enumerate(dict.fromkeys(traced_parts))}  # by first appearance
    group = np.fromiter(map(groups.__getitem__, traced_parts), np.intp, len(traced_parts))
    # every (i, j) pair of rows in one group, group by group (in order of first
    # appearance), i then j, each ascending: each cell of the reduced matrix sums
    # its entries in that order
    rows = np.argsort(group, kind="stable")  # the rows of group 0, then of group 1, ...
    sizes = np.bincount(group)
    pairs = sizes * sizes
    size = np.repeat(sizes, pairs)  # per pair: the size of its group,
    start = np.repeat(np.cumsum(sizes) - sizes, pairs)  # where the group starts in rows,
    k = np.arange(len(size)) - np.repeat(np.cumsum(pairs) - pairs, pairs)  # its place there
    i = rows[start + k // size]
    j = rows[start + k % size]
    reduced = np.zeros((len(new_basis), len(new_basis)), dtype=complex)
    np.add.at(reduced, (targets[i], targets[j]), rho.matrix[i, j])
    return DensityMatrix(keep, new_basis, reduced)
