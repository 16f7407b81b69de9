"""Two-source interferometer engine.

Evolves the joint emission state through the three stages of the scheme:
source superposition, path identity of the aligned particles (with optional
attenuation), and 50-50 beam splitters on the detected particles.  Stages are
pure functions over immutable states and reject out-of-order application.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, StageOrderError, StructureError
from .states import (
    AMPLITUDE_EPSILON,
    MAX_DENSITY_DIM,
    DensityMatrix,
    LabelKind,
    Outcome,
    PathLabel,
    PureState,
    aligned_beam,
    detector,
    loss,
    port_bitstrings,
    port_columns,
    port_outcomes,
    primed_detector,
    primed_source_beam,
    pruned_state,
    pure_state_from_terms,
    source_beam,
    to_density,
)

#: Capacity bound on the number of particles per source.
MAX_PARTICLES = 16

_DETECTOR_KINDS = frozenset({LabelKind.DETECTOR_UNPRIMED, LabelKind.DETECTOR_PRIMED})


def _real(value: object, field: str, low: float = -math.inf, high: float = math.inf) -> float:
    """``value`` as a finite float in ``[low, high]``; otherwise a ConfigError naming ``field``."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError(f"{field} must be a finite number, got {value!r}", field=field)
    if not low <= number <= high:
        raise ConfigError(f"{field} must lie in [{low:g}, {high:g}], got {number}", field=field)
    return number


@dataclass(frozen=True)
class SchemeConfig:
    """Full experiment description.

    ``phi`` holds the beam-splitter arm phases for detected particles
    ``1..n_particles-n_aligned``; ``theta`` and ``transmission`` hold the
    propagation phases and attenuator amplitude transmissions for the aligned
    particles ``n_particles-n_aligned+1..n_particles``.  Empty phase tuples
    default to zeros, an omitted ``transmission`` defaults to all ones.
    """

    n_particles: int
    n_aligned: int
    phi0: float = 0.0
    phi: tuple[float, ...] = ()
    theta: tuple[float, ...] = ()
    transmission: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        n, m = self.n_particles, self.n_aligned
        for field, count in (("n", n), ("m", m)):
            if isinstance(count, bool) or not isinstance(count, int):
                raise ConfigError(f"{field} must be an integer, got {count!r}", field=field)
        if not 1 <= n <= MAX_PARTICLES:
            raise ConfigError(f"n_particles must lie in [1, {MAX_PARTICLES}], got {n}", field="n")
        if not 0 <= m <= n:
            raise ConfigError(f"n_aligned must lie in [0, {n}], got {m}", field="m")
        if m == n:  # no particle reaches a beam splitter, so no coincidence shows interference
            raise ConfigError(
                "a scheme needs a detected particle (n_aligned < n_particles)", field="m"
            )

        phi = tuple(self.phi) or (0.0,) * (n - m)
        theta = tuple(self.theta) or (0.0,) * m
        trans = (1.0,) * m if self.transmission is None else tuple(self.transmission)
        sizes = (("phi", phi, n - m), ("theta", theta, m), ("transmission", trans, m))
        for name, values, size in sizes:
            if len(values) != size:
                raise ConfigError(f"{name} must have {size} entries, got {len(values)}", field=name)
        aligned = self.aligned_range
        phi = tuple(_real(x, f"phi.{j}") for j, x in zip(self.detected_range, phi))
        theta = tuple(_real(x, f"theta.{l}") for l, x in zip(aligned, theta))
        trans = tuple(_real(x, f"transmission.{l}", 0.0, 1.0) for l, x in zip(aligned, trans))
        object.__setattr__(self, "phi0", _real(self.phi0, "phi0"))
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "transmission", trans)

    @property
    def n_detected(self) -> int:
        return self.n_particles - self.n_aligned

    @property
    def detected_range(self) -> range:
        """Particle indices 1..N-M headed for beam splitters."""
        return range(1, self.n_detected + 1)

    @property
    def aligned_range(self) -> range:
        """Particle indices N-M+1..N whose paths are made identical."""
        return range(self.n_detected + 1, self.n_particles + 1)

    @property
    def xi(self) -> float:
        """Interference phase phi0 + sum(phi) - sum(theta) the output depends on."""
        return self.phi0 + sum(self.phi) - sum(self.theta)

    def phase_slot(self, variable: str) -> int:
        """Index of the phase named ``variable`` in ``(phi0, *phi, *theta)``: 0 for ``"phi0"``,
        j for ``"phi.<j>"`` of a detected particle and l for ``"theta.<l>"`` of an aligned
        particle.  Any other name raises ValueError."""
        if variable == "phi0":
            return 0
        family, _, tail = variable.partition(".")
        particles = {"phi": self.detected_range, "theta": self.aligned_range}.get(family, ())
        try:  # isdecimal() holds for exactly the digits that int() reads
            if tail.isdecimal() and int(tail) in particles:
                return int(tail)
        except ValueError:  # more digits than int() reads
            pass
        raise ValueError(f"unknown phase variable {variable!r} for this scheme")

    def replace_phase(self, variable: str, value: float) -> SchemeConfig:
        """New config with the phase named ``variable`` (see :meth:`phase_slot`) set to ``value``."""
        row = [self.phi0, *self.phi, *self.theta]
        row[self.phase_slot(variable)] = value
        n = self.n_detected
        return replace(self, phi0=row[0], phi=tuple(row[1 : n + 1]), theta=tuple(row[n + 1 :]))


@dataclass(frozen=True)
class DetectionOutcome:
    """Which detector of each pair fired: one 0 (unprimed) or 1 (primed) per
    detected particle."""

    ports: tuple[int, ...]

    def __post_init__(self) -> None:
        ports = tuple(self.ports)
        if not ports:
            raise ValueError("a detection outcome needs at least one port")
        if any(p not in (0, 1) for p in ports):  # before int(), which reads 0.7 or "1"
            raise ValueError(f"ports must be 0 or 1, got {ports}")
        object.__setattr__(self, "ports", tuple(int(p) for p in ports))

    def bitstring(self) -> str:
        return "".join(str(p) for p in self.ports)

    def __len__(self) -> int:
        return len(self.ports)

    @staticmethod
    def all_outcomes(n_detected: int) -> tuple[DetectionOutcome, ...]:
        """All 2^n outcomes in column order (:func:`~pisim.states.port_bitstrings`)."""
        if n_detected < 1:
            raise ValueError("n_detected must be >= 1")
        return tuple(DetectionOutcome(tuple(map(int, b))) for b in port_bitstrings(n_detected))


def build_two_source_state(cfg: SchemeConfig) -> PureState:
    """Equal-amplitude superposition of the two emission branches."""
    unprimed = tuple(source_beam(j) for j in range(1, cfg.n_particles + 1))
    primed = tuple(primed_source_beam(j) for j in range(1, cfg.n_particles + 1))
    amp = math.sqrt(0.5)
    return pure_state_from_terms([(unprimed, amp), (primed, amp * cmath.exp(1j * cfg.phi0))])


def _stage_error(label: PathLabel, particle: int, operation: str) -> Exception:
    """Why a stage cannot act on ``particle`` while its slot carries ``label``."""
    if label.kind in _DETECTOR_KINDS:
        return StageOrderError(f"cannot {operation} particle {particle}: it is already detected")
    if label.kind in (LabelKind.ALIGNED_BEAM, LabelKind.LOSS):
        return StageOrderError(f"cannot {operation} particle {particle}: it is already aligned")
    return StructureError(
        f"slot {particle} carries label {label}, which belongs to particle {label.index}"
    )


def _map_source_beams(
    psi: PureState, particle: int, operation: str, unprimed: tuple, primed: tuple
) -> PureState:
    """Send the source beams b and b' of ``particle`` through an optical element.

    ``unprimed`` and ``primed`` give the element's action on b and b' as
    ``(phase, ((output label, amplitude), ...))``: a term carrying that beam in
    the particle's slot becomes one term per branch, with amplitude
    ``amp * phase * amplitude`` in that order, added in term order into one
    dict of output terms (see :func:`pruned_state`).  Any other label in the
    slot raises the error of :func:`_stage_error`.
    """
    slot = particle - 1
    beams = {source_beam(particle): unprimed, primed_source_beam(particle): primed}
    accumulated: dict[Outcome, complex] = {}
    get = accumulated.get
    for outcome, amp in psi.amplitudes.items():
        beam = beams.get(outcome[slot])
        if beam is None:
            raise _stage_error(outcome[slot], particle, operation)
        phase, branches = beam
        amp = amp * phase
        labels = list(outcome)
        for label, amplitude in branches:
            labels[slot] = label
            key = tuple(labels)
            accumulated[key] = get(key, 0j) + amp * amplitude
    return pruned_state(psi.particle_count, accumulated)


def apply_path_identity(
    psi: PureState, particle: int, theta: float, transmission: float = 1.0
) -> PureState:
    """Make the paths of ``particle`` identical, optionally attenuating.

    The unprimed source beam picks up the propagation phase and splits into
    the aligned beam (amplitude ``transmission``) and the loss mode; the
    primed source beam feeds the aligned beam with amplitude unchanged.
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must lie in [0, 1], got {transmission}")
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if not 1 <= particle <= psi.particle_count:
        raise ValueError(f"particle {particle} out of range 1..{psi.particle_count}")

    passed = float(transmission)
    lost = math.sqrt(max(0.0, 1.0 - passed * passed))
    aligned = aligned_beam(particle)
    unprimed = (cmath.exp(1j * theta), ((aligned, passed), (loss(particle), lost)))
    return _map_source_beams(psi, particle, "align", unprimed, (1.0, ((aligned, 1.0),)))


def apply_beam_splitter(psi: PureState, particle: int, phi: float) -> PureState:
    """Superpose the two source beams of ``particle`` on a 50-50 beam splitter.

    Unprimed input maps to ``(d + i d')/sqrt(2)``; primed input to
    ``e^{i phi} (d' + i d)/sqrt(2)``.
    """
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    if not 1 <= particle <= psi.particle_count:
        raise ValueError(f"particle {particle} out of range 1..{psi.particle_count}")

    half = math.sqrt(0.5)
    straight, crossed = detector(particle), primed_detector(particle)
    unprimed = (1.0, ((straight, half), (crossed, half * 1j)))
    primed = (cmath.exp(1j * phi), ((crossed, half), (straight, half * 1j)))
    return _map_source_beams(psi, particle, "apply a beam splitter to", unprimed, primed)


def run_scheme(cfg: SchemeConfig) -> PureState:
    """Full evolution: source superposition, alignment stage, beam splitters.

    Returns the normalized joint state over detector, aligned-beam, and loss
    labels.
    """
    state = build_two_source_state(cfg)
    for l, theta, transmission in zip(cfg.aligned_range, cfg.theta, cfg.transmission):
        state = apply_path_identity(state, l, theta, transmission)
    for j, phi in zip(cfg.detected_range, cfg.phi):
        state = apply_beam_splitter(state, j, phi)
    return state


def detected_particles(psi: PureState) -> tuple[int, ...]:
    """Particles carrying detector labels in every term of ``psi``."""
    return _detected(psi.slot_labels)


def _detected(columns: Iterable[tuple[PathLabel, ...]]) -> tuple[int, ...]:
    """:func:`detected_particles` from the labels of each slot, one per term."""
    detected = []
    for particle, labels in enumerate(columns, 1):
        kinds = {label.kind for label in set(labels)}
        if kinds <= _DETECTOR_KINDS:
            detected.append(particle)
        elif kinds & _DETECTOR_KINDS:
            raise StructureError(f"particle {particle} mixes detector and non-detector labels")
    return tuple(detected)


class BranchTable(NamedTuple):
    """Coincidence probabilities, a row per phase value: column x is the outcome
    ``port_outcomes(detected)[x]`` (see :func:`~pisim.states.port_outcomes`).
    ``loss_free`` counts terms in which every aligned particle survived, ``marginal`` sums
    over the undetected aligned and loss modes, and ``lost`` completes ``loss_free`` to 1."""

    loss_free: np.ndarray
    marginal: np.ndarray
    lost: float


def outcome_probabilities(psi: PureState) -> BranchTable:
    """All coincidence probabilities of ``psi`` as a one-row table, from one pass over
    the labels of each slot; every cell adds its terms in term order."""
    columns = psi.slot_labels
    detected = _detected(columns)
    if not detected:
        raise ValueError("state has no detected particles")
    count, cells = psi.term_count, 2 ** len(detected)
    ports = port_columns([columns[j - 1] for j in detected], detected)
    absorbed = np.zeros(count, dtype=bool)
    for particle, column in enumerate(columns, 1):
        if particle not in detected:
            flags = {label: label.kind is LabelKind.LOSS for label in set(column)}
            absorbed |= np.fromiter(map(flags.__getitem__, column), bool, count)
    weights = np.fromiter((abs(a) ** 2 for a in psi.amplitudes.values()), float, count)
    # np.bincount adds the weights of each cell in term order; lost terms fill one extra cell
    marginal = np.bincount(ports, weights, cells)
    loss_free = np.bincount(np.where(absorbed, cells, ports), weights, cells + 1)
    return BranchTable(loss_free[None, :cells], marginal[None], float(loss_free[cells]))


class DetectedState(NamedTuple):
    """The conditional state of n detected particles from n, T and e^(-i xi) alone (Krenn,
    Hochrainer, Lahiri, Zeilinger, PRL 118, 080401 (2017)): ``rho = (|U><U| + |P><P|
    + T (e^(-i xi) |U><P| + h.c.))/2``, where ``U = u^n`` and ``P = i^n p^n`` for the
    orthogonal ``u, p = (|0> +- i|1>)/sqrt(2)``.  ``phase`` is the column of e^(-i xi), one
    row per phase value; :meth:`density` and :meth:`pure_state` read a one-row column."""

    n_detected: int
    transmission: float
    phase: np.ndarray

    def __eq__(self, other: object) -> bool:  # by value, phase column shapes included
        same = isinstance(other, DetectedState) and self[:2] == other[:2]
        return same and np.array_equal(self.phase, other.phase)

    def __ne__(self, other: object) -> bool:  # hash() still fails on the phase column
        return not self == other

    def table(self) -> BranchTable:
        """All coincidence probabilities, one row per phase value.  The output is
        ``A = (T e^{i sum theta} U + e^{i(phi0 + sum phi)} P)/sqrt(2)`` with ``U = 2^(-n/2) i^r``,
        ``P = 2^(-n/2) i^(n-r)`` at ``r`` primed ports, plus ``(1 - T^2)/2 |U|^2`` lost;
        ``|A| <= AMPLITUDE_EPSILON`` cancels, as in the engine."""
        n = self.n_detected
        weight, lost = self._weights(self.transmission)
        loss_free = weight[:, _bit_counts(n) & 1]
        return BranchTable(loss_free, loss_free + lost * 0.5**n, lost)

    def pattern(self, transmissions: Sequence[float]) -> np.ndarray:
        """Column 0 of ``table().marginal`` at each of ``transmissions`` in place of T, one
        row each: the pattern of the unprimed coincidence over the phase column.  A
        transmission outside [0, 1], NaN included, is a ValueError."""
        total = np.array(transmissions, float).reshape(-1, 1, 1)
        inside = (total >= 0.0) & (total <= 1.0)
        if not inside.all():
            raise ValueError(f"transmission must lie in [0, 1], got {total[~inside][0]}")
        weight, lost = self._weights(total)
        return weight[..., 0] + lost[:, 0] * 0.5**self.n_detected

    def _weights(self, total: float | np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
        """|A|^2 of the outcomes with an even and an odd count of primed ports, one row per
        phase value, and the lost probability, at T = ``total``: a float, or a (G, 1, 1)
        array that stacks G such pairs, each value exactly what the float gives."""
        n = self.n_detected
        # |A|^2 = |1 + T e^(-i xi) i^(2r-n)|^2 / 2^(n+1), r even, odd: flat in xi at T = 0
        turn = (1, -1j, -1, 1j)[n % 4] * np.array([1.0, -1.0])
        weight = np.abs(1.0 + total * self.phase * turn) ** 2 * 0.5 ** (n + 1)
        weight[weight <= AMPLITUDE_EPSILON**2] = 0.0
        return weight, (1.0 - total * total) / 2

    def density(self) -> DensityMatrix:
        """rho over the port basis of particles 1..n; ValueError past ``MAX_DENSITY_DIM``."""
        n = self.n_detected
        if 2**n > MAX_DENSITY_DIM:
            raise ValueError(f"a density matrix of {n} particles exceeds {MAX_DENSITY_DIM}")
        basis, (u, p) = _port_branches(n)
        cross = self.transmission * self.phase.item() * np.outer(u, p.conj())
        matrix = (np.outer(u, u.conj()) + np.outer(p, p.conj()) + cross + cross.conj().T) / 2
        return DensityMatrix(tuple(range(1, n + 1)), basis, matrix)

    def pair(self) -> DensityMatrix:
        """rho on particles 1 and 2 for n >= 3: (|uu><uu| + |pp><pp|)/2, the T = 0 state of
        two, whatever T and xi, as U and P are orthogonal on every traced particle."""
        if self.n_detected < 3:
            raise ValueError(f"a pair of {self.n_detected} particles is the whole state")
        return _separable_pair()

    def pure_state(self) -> PureState:
        """(U + e^(i xi) P)/sqrt(2) at T = 1; ValueError below, where rho is mixed."""
        if self.transmission != 1.0:
            raise ValueError(f"the detected state is mixed at T = {self.transmission}")
        basis, (u, p) = _port_branches(self.n_detected)
        turned = self.phase.item().conjugate() * p
        return pure_state_from_terms(zip(basis, (u + turned) * math.sqrt(0.5)))


def detected_state(
    cfg: SchemeConfig, variable: str | None = None, grid: Sequence[float] = ()
) -> DetectedState:
    """The :class:`DetectedState` of ``cfg``, T = prod t: one row of e^(-i xi) per ``grid``
    value of the phase ``variable`` (see :meth:`SchemeConfig.phase_slot`), or one for ``cfg``.
    A non-finite grid value is a ConfigError naming ``variable``, as in :class:`SchemeConfig`;
    a grid without a variable is a ValueError."""
    n = cfg.n_detected
    # xi is the sum of the row but its last slot, which holds -0.0 (adds nothing, not
    # even to a signed zero) for the sum hi and -hi for the remainder lo
    row = [cfg.phi0, *cfg.phi, *(-t for t in cfg.theta), -0.0]
    slot, values = 0, [cfg.phi0]
    if variable is None:
        if len(grid):
            raise ValueError("a grid needs a phase variable")
    else:
        slot = cfg.phase_slot(variable)  # theta.<l> enters xi with a minus sign
        for value in grid:
            if not math.isfinite(value):
                message = f"{variable} must be a finite number, got {value!r}"
                raise ConfigError(message, field=variable)
        values = [-v for v in grid] if slot > n else grid
    fsum, exp = math.fsum, cmath.exp
    phases = []  # e^(-i xi), xi summed exactly as hi + lo: near a zero |A| is as exact as xi
    for value in values:
        row[slot] = value
        row[-1] = -0.0
        try:
            hi = fsum(row)
            row[-1] = -hi
            phases.append(exp(-1j * hi) * exp(-1j * fsum(row)))
        except OverflowError:  # a partial sum past the float range: one e^(-i phase) each
            phases.append(math.prod(exp(-1j * v) for v in row[:-1]))
    return DetectedState(n, math.prod(cfg.transmission), np.array(phases)[:, None])


@functools.cache
def _port_branches(n: int) -> tuple[tuple[Outcome, ...], np.ndarray]:
    """The port basis of particles 1..n and U, P over it, the rows of one read-only array."""
    r = _bit_counts(n)
    branches = np.array((1, 1j, -1, -1j))[np.stack([r, n - r]) % 4] * 0.5 ** (n / 2)
    branches.setflags(write=False)
    return port_outcomes(range(1, n + 1)), branches


@functools.cache
def _bit_counts(n: int) -> np.ndarray:
    """The number of primed ports of each outcome of n particles, in column order, as one
    read-only array: it fixes the factors of :func:`_port_branches`, and its parity the
    column of :meth:`DetectedState.table` that each outcome reads."""
    counts = np.array([x.bit_count() for x in range(2**n)])
    counts.setflags(write=False)
    return counts


_separable_pair = functools.cache(lambda: DetectedState(2, 0.0, np.ones((1, 1))).density())


def joint_probability(psi: PureState, outcome: DetectionOutcome) -> float:
    """Probability of the coincidence ``outcome``, summed incoherently over the
    undetected aligned-beam and loss modes."""
    marginal = outcome_probabilities(psi).marginal[0]
    if len(marginal) != 2 ** len(outcome):
        n = len(marginal).bit_length() - 1
        raise ValueError(
            f"outcome has {len(outcome)} ports but the state has {n} detected particles"
        )
    return float(marginal[int(outcome.bitstring(), 2)])


def detection_table(psi: PureState) -> tuple[dict[DetectionOutcome, float], float]:
    """Loss-free coincidence probability per outcome, plus the total loss probability.

    The per-outcome values count only events in which every aligned particle
    survived, so the table and the loss probability partition unity.
    """
    table = outcome_probabilities(psi)
    row = table.loss_free[0].tolist()
    return dict(zip(DetectionOutcome.all_outcomes(len(row).bit_length() - 1), row)), table.lost


def conditional_detected_state(psi: PureState) -> DensityMatrix:
    """State of the detected particles after tracing out aligned and loss modes."""
    detected = detected_particles(psi)
    if not detected:
        raise ValueError("state has no detected particles to condition on")
    return to_density(psi, detected)
