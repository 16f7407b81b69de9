"""Seeded input generator for the pisim benchmark.

Turns ``(workload, seed, draw)`` into a fixed list of operations.  The
structure of each workload (scheme sizes, which transmissions are attenuated,
grid and sweep lengths) is fixed, so the cost of an operation slot barely
depends on the seed or the draw; they pick, for each slot from a random
stream of its own, the phases, transmission values, sweep variables, grid
transmissions and oracle seeds.  This module does not import pisim: the
program only ever sees the scenario texts and configurations made here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial

WORKLOADS = ("cli-small", "cli-entangle", "cli-large", "lib-density")

TAU = 2.0 * math.pi


@dataclass(frozen=True)
class Scheme:
    """One interferometer configuration, as written into a scenario."""

    n: int  # particles per source (N)
    m: int  # aligned particles (M)
    phi0: float
    phi: tuple[float, ...]  # detected particles 1..N-M
    theta: tuple[float, ...]  # aligned particles N-M+1..N
    transmission: tuple[float, ...]  # aligned particles N-M+1..N

    @property
    def n_detected(self) -> int:
        return self.n - self.m

    @property
    def total_transmission(self) -> float:
        """T, the product of the aligned transmissions (1 with nothing aligned)."""
        return math.prod(self.transmission)

    @property
    def xi(self) -> float:
        """Interference phase phi0 + sum(phi) - sum(theta)."""
        return self.phi0 + sum(self.phi) - sum(self.theta)

    def with_phase(self, variable: str, value: float) -> Scheme:
        """Copy with one phase (``phi0``, ``phi.<j>`` or ``theta.<l>``) replaced."""
        if variable == "phi0":
            return Scheme(self.n, self.m, value, self.phi, self.theta, self.transmission)
        family, _, index = variable.partition(".")
        k = int(index)
        if family == "phi":
            phi = self.phi[: k - 1] + (value,) + self.phi[k:]
            return Scheme(self.n, self.m, self.phi0, phi, self.theta, self.transmission)
        slot = k - self.n_detected - 1
        theta = self.theta[:slot] + (value,) + self.theta[slot + 1 :]
        return Scheme(self.n, self.m, self.phi0, self.phi, theta, self.transmission)

    def scenario_lines(self, with_transmission: bool = True) -> list[str]:
        lines = [f"scheme.n = {self.n}", f"scheme.m = {self.m}", f"scheme.phi0 = {self.phi0!r}"]
        lines += [f"scheme.phi.{j} = {v!r}" for j, v in enumerate(self.phi, start=1)]
        aligned = range(self.n_detected + 1, self.n + 1)
        lines += [f"scheme.theta.{l} = {v!r}" for l, v in zip(aligned, self.theta)]
        if with_transmission:
            lines += [f"scheme.transmission.{l} = {v!r}" for l, v in zip(aligned, self.transmission)]
        return lines


@dataclass(frozen=True)
class RunOp:
    scheme: Scheme
    command = "run"

    def scenario(self) -> str:
        return _document(self.command, self.scheme.scenario_lines())


@dataclass(frozen=True)
class SweepOp:
    scheme: Scheme
    variable: str
    start: float
    stop: float
    steps: int
    command = "sweep"

    def scenario(self) -> str:
        lines = self.scheme.scenario_lines() + [
            f"sweep.variable = {self.variable}",
            f"sweep.start = {self.start!r}",
            f"sweep.stop = {self.stop!r}",
            f"sweep.steps = {self.steps}",
        ]
        return _document(self.command, lines)

    def grid(self) -> list[float]:
        """The phases the CLI evaluates: ``steps`` points of [start, stop)."""
        width = (self.stop - self.start) / self.steps
        return [self.start + k * width for k in range(self.steps)]


@dataclass(frozen=True)
class EntangleOp:
    scheme: Scheme  # its transmissions are unused: the grid replaces them
    grid: tuple[float, ...]
    target: str
    command = "entangle"

    def scenario(self) -> str:
        lines = self.scheme.scenario_lines(with_transmission=False) + [
            "entangle.grid = " + ",".join(repr(t) for t in self.grid),
            f"target = {self.target}",
        ]
        return _document(self.command, lines)


@dataclass(frozen=True)
class OracleOp:
    cases: int
    max_detected: int
    max_aligned: int
    seed: int
    command = "oracle-check"

    def scenario(self) -> str:
        lines = [
            f"oracle.cases = {self.cases}",
            f"oracle.max_detected = {self.max_detected}",
            f"oracle.max_aligned = {self.max_aligned}",
        ]
        return _document(self.command, lines)


@dataclass(frozen=True)
class DensityOp:
    """Library route: run_scheme -> conditional state -> fidelity and concurrence."""

    scheme: Scheme
    command = "lib-density"


def _document(command: str, lines: list[str]) -> str:
    return "\n".join([f"command = {command}"] + lines) + "\n"


def _scheme(rng: random.Random, n: int, m: int, attenuated: bool, t_low: float = 0.2) -> Scheme:
    phi0 = rng.uniform(0.0, TAU)
    phi = tuple(rng.uniform(0.0, TAU) for _ in range(n - m))
    theta = tuple(rng.uniform(0.0, TAU) for _ in range(m))
    trans = tuple(rng.uniform(t_low, 0.95) if attenuated else 1.0 for _ in range(m))
    return Scheme(n, m, phi0, phi, theta, trans)


def _phase_variables(n: int, m: int) -> list[str]:
    return (
        ["phi0"]
        + [f"phi.{j}" for j in range(1, n - m + 1)]
        + [f"theta.{l}" for l in range(n - m + 1, n + 1)]
    )


# Oracle-check shapes (cases, max_detected, max_aligned); only their --seed
# values come from the workload seed.
_ORACLE_SHAPES = (
    (2, 2, 1), (1, 3, 2), (2, 3, 1), (1, 4, 2), (2, 2, 2),
    (1, 3, 3), (2, 4, 1), (1, 5, 1), (2, 3, 2), (1, 4, 3),
)  # fmt: skip

_TARGETS = {2: ("Psi+", "Phi-", "F1", "F2"), 3: ("GHZ3", "F3", "F4")}


# One maker per operation slot: the slot's shape is fixed, and the maker
# draws the rest from the random stream it is given.


def _run(n: int, m: int, attenuated: bool, rng: random.Random, t_low: float = 0.2) -> RunOp:
    return RunOp(_scheme(rng, n, m, attenuated, t_low))


def _sweep(n: int, m: int, attenuated: bool, steps: int, rng: random.Random) -> SweepOp:
    scheme = _scheme(rng, n, m, attenuated)
    start = rng.uniform(-math.pi, math.pi)
    stop = start + rng.uniform(math.pi, 2.0 * TAU)
    return SweepOp(scheme, rng.choice(_phase_variables(n, m)), start, stop, steps)


def _full_sweep(n: int, m: int, rng: random.Random) -> SweepOp:
    scheme = _scheme(rng, n, m, attenuated=True, t_low=0.3)
    return SweepOp(scheme, rng.choice(_phase_variables(n, m)), 0.0, TAU, steps=16)


def _oracle(cases: int, max_detected: int, max_aligned: int, rng: random.Random) -> OracleOp:
    return OracleOp(cases, max_detected, max_aligned, rng.getrandbits(64))


def _entangle(n_detected: int, m: int, target: str, rng: random.Random) -> EntangleOp:
    grid = [1.0, rng.uniform(0.2, 0.95)]
    rng.shuffle(grid)
    return EntangleOp(_scheme(rng, n_detected + m, m, attenuated=False), tuple(grid), target)


def _density(n_detected: int, m: int, rng: random.Random) -> DensityOp:
    return DensityOp(_scheme(rng, n_detected + m, m, attenuated=True, t_low=0.3))


def _cli_small() -> list:
    """150 small ops: per (N-M, M) pair four runs and three short sweeps, plus
    ten oracle checks."""
    plan: list = []
    for n_detected in range(1, 6):
        for m in range(0, 4):
            n = n_detected + m
            plan += [partial(_run, n, m, k % 2 == 0) for k in range(4)]
            plan += [partial(_sweep, n, m, k != 1, 8 + 4 * k) for k in range(3)]
    return plan + [partial(_oracle, *shape) for shape in _ORACLE_SHAPES]


# Entangle ops per (detected particles, M).  Their cost grows with both; the
# counts put the median among the ~100 ms ops at (2, 3) and (3, 1) and the
# p75 among the ten at (3, 2), not on the step between two sizes.
_ENTANGLE_COUNTS = {
    2: (4, 4, 5, 2, 1),
    3: (10, 10, 2, 1, 1),
}  # fmt: skip


def _cli_entangle() -> list:
    """40 entangle ops: 2 or 3 detected particles, M = 1..5, every target
    that fits in turn, grid t = 1 and one t < 1 in random order."""
    plan: list = []
    for n_detected, counts in _ENTANGLE_COUNTS.items():
        targets = _TARGETS[n_detected]
        for m, count in zip(range(1, 6), counts):
            plan += [partial(_entangle, n_detected, m, targets[k % len(targets)]) for k in range(count)]
    return plan


def _cli_large() -> list:
    """Runs on the ladder N = 10..16, M = N // 2, once attenuated and three
    times not, plus one 16-step sweep at (10, 4) with t < 1.  The t = 1 runs
    store 2^(N-M) terms and cost little, so the median falls among 21 of them
    rather than on one operation."""
    plan: list = []
    for n in range(10, 17):
        plan.append(partial(_run, n, n // 2, True, t_low=0.3))
        plan += [partial(_run, n, n // 2, False) for _ in range(3)]
    return plan + [partial(_full_sweep, 10, 4)]


# (N-M, M) pairs with density dimension 2^N of 256 or 512, and how many
# copies of each go into the list.  Cost grows down the list, so the median
# falls among the (6, 2) ops and the p75 among the (6, 3) ops, not on the
# step between two sizes.  Larger dimensions are left to the size ladder:
# their memory-bound time swung by 20-40% between runs on a shared host, far
# more than the differences the benchmark must resolve.
_DENSITY_SIZES = (
    ((4, 4), 8), ((5, 3), 8), ((6, 2), 8),
    ((5, 4), 4), ((6, 3), 8), ((7, 2), 4),
)  # fmt: skip


def _lib_density() -> list:
    """40 library ops with every aligned particle attenuated, N = 8 or 9."""
    return [partial(_density, nd, m) for (nd, m), copies in _DENSITY_SIZES for _ in range(copies)]


_PLANS = {
    "cli-small": _cli_small(),
    "cli-entangle": _cli_entangle(),
    "cli-large": _cli_large(),
    "lib-density": _lib_density(),
}


def make_op(workload: str, seed: int, draw: int, slot: int):
    """Slot ``slot`` of draw ``draw`` of ``workload``, from a random stream of
    its own, so that one slot is made without the others."""
    return _PLANS[workload][slot](random.Random(f"{workload}:{seed}:{draw}:{slot}"))


def generate(workload: str, seed: int, draw: int = 0) -> list:
    """Draw ``draw`` of the operation list of ``workload``.  Equal arguments
    give equal lists; every draw of every seed has the same structure."""
    return [make_op(workload, seed, draw, slot) for slot in range(len(_PLANS[workload]))]
