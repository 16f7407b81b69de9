"""Analytic predictions for the detected particles.

Everything here is built directly from the closed-form output of the scheme -
Dicke-state superpositions whose coefficients depend on a single interference
phase - and never touches the stage-by-stage engine, so the two routes can be
checked against each other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .states import PureState, port_outcomes, pure_state_from_terms

#: Exact powers of i; complex exponentiation would introduce rounding.
_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)


class EntangledClassId(Enum):
    """The four families of alternating-sign Dicke superpositions."""

    F1 = "F1"
    F2 = "F2"
    F3 = "F3"
    F4 = "F4"


def _check_dicke_index(n: int, r: int) -> None:
    """Reject a detected-particle count ``n`` below 1 or a primed-port count ``r``
    outside ``[0, n]``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= r <= n:
        raise ValueError(f"r must lie in [0, {n}], got {r}")


@dataclass(frozen=True)
class EntangledClass:
    """A class identifier together with the detected-particle count it acts on.

    F1 and F2 exist for even ``n >= 2``; F3 and F4 for odd ``n >= 1``.
    """

    class_id: EntangledClassId
    n: int

    def __post_init__(self) -> None:
        even = self.class_id in (EntangledClassId.F1, EntangledClassId.F2)
        if even and (self.n < 2 or self.n % 2):
            raise ValueError(f"{self.class_id.value} requires even n >= 2, got n={self.n}")
        if not even and (self.n < 1 or self.n % 2 == 0):
            raise ValueError(f"{self.class_id.value} requires odd n >= 1, got n={self.n}")

    @property
    def dicke_r_values(self) -> tuple[int, ...]:
        """The r values the class superposes, in ascending order."""
        if self.class_id in (EntangledClassId.F1, EntangledClassId.F3):
            return tuple(range(0, self.n + 1, 2))
        return tuple(range(1, self.n + 1, 2))


def dicke_state(n: int, r: int) -> PureState:
    """Normalized equal superposition of all detector outcomes with ``r`` primed ports."""
    _check_dicke_index(n, r)
    amp = 1.0 / math.sqrt(math.comb(n, r))
    outcomes = enumerate(port_outcomes(range(1, n + 1)))
    return pure_state_from_terms((o, amp) for x, o in outcomes if x.bit_count() == r)


def predicted_output_state(n: int, xi: float) -> PureState:
    """Detected-particle state for ``n`` detected particles at interference phase ``xi``.

    Every outcome with ``r`` primed ports carries the amplitude
    ``(1/sqrt(2))^(n+1) * (i^r + i^(n-r) e^(i xi))``; the result has unit norm
    for any ``xi``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    phase = cmath.exp(1j * float(xi))
    scale = 0.5 ** ((n + 1) / 2)
    by_r = [scale * (_I_POW[r % 4] + _I_POW[(n - r) % 4] * phase) for r in range(n + 1)]
    outcomes = enumerate(port_outcomes(range(1, n + 1)))
    return pure_state_from_terms((o, by_r[x.bit_count()]) for x, o in outcomes)


def entangled_class_state(cls: EntangledClass) -> PureState:
    """Normalized alternating-sign Dicke superposition for the given class.

    Each contributing Dicke component enters as its unnormalized sum of
    product outcomes, so all outcomes share one magnitude and only the sign
    alternates with the component index.
    """
    amp = math.sqrt(0.5 ** (cls.n - 1))  # the class has 2^(n-1) outcomes; 0.5^(n-1) is exact
    signed = {r: -amp if k % 2 else amp for k, r in enumerate(cls.dicke_r_values)}
    outcomes = port_outcomes(range(1, cls.n + 1))
    return pure_state_from_terms(
        (o, signed[x.bit_count()]) for x, o in enumerate(outcomes) if x.bit_count() in signed
    )


def xi_for_class(n: int, class_id: EntangledClassId, m: int = 0) -> float:
    """An interference phase producing ``class_id`` at ``n`` detected particles.

    ``m`` selects among the equivalent phases, which repeat every 2 pi.
    """
    EntangledClass(class_id, n)  # parity and range checks
    residue = n % 4
    if class_id == EntangledClassId.F1:
        return 2 * m * math.pi if residue == 0 else (2 * m + 1) * math.pi
    if class_id == EntangledClassId.F2:
        return (2 * m + 1) * math.pi if residue == 0 else 2 * m * math.pi
    if class_id == EntangledClassId.F3:
        return (2 * m - 0.5) * math.pi if residue == 1 else (2 * m + 0.5) * math.pi
    return (2 * m + 0.5) * math.pi if residue == 1 else (2 * m - 0.5) * math.pi


def predicted_probability(n: int, r: int, xi: float) -> float:
    """Coincidence probability of any single outcome with ``r`` primed ports
    at full path identity."""
    _check_dicke_index(n, r)
    return (1.0 + math.cos(float(xi) + (n - 2 * r) * math.pi / 2)) / 2**n


def bell_psi_plus() -> PureState:
    """(|01> + |10>)/sqrt(2) on two detected particles: the F2 state of two."""
    return entangled_class_state(EntangledClass(EntangledClassId.F2, 2))


def bell_phi_minus() -> PureState:
    """(|00> - |11>)/sqrt(2) on two detected particles: the F1 state of two."""
    return entangled_class_state(EntangledClass(EntangledClassId.F1, 2))


def ghz_class_three() -> PureState:
    """(|000> - |110> - |101> - |011>)/2, the three-detected GHZ-class output: the F3
    state of three."""
    return entangled_class_state(EntangledClass(EntangledClassId.F3, 3))
