"""Closed-form checks of every benchmark operation's output.

The expected values come from the scheme's analytic output, built here from
scratch (no pisim import), so a fast but wrong engine cannot pass:

* the detected state is rho = |A><A| + ((1 - T^2)/2) |U><U| with
  U(o) = i^r / 2^(n/2) and A(o) = (T i^r + i^(n-r) e^{i xi}) / 2^((n+1)/2),
  where o is a port bitstring with r primed ports, n = N - M detected
  particles, T the product of the aligned transmissions and
  xi = phi0 + sum(phi) - sum(theta);
* so each loss-free coincidence has P_r = (1 + T^2 + 2T cos(xi + (n-2r) pi/2)) / 2^(n+1)
  and the loss probability is (1 - T^2)/2;
* the visibility of any pattern is T, the pair concurrence is T for n = 2 and
  0 for n >= 3 (U and P are orthogonal on every particle), and the fidelity
  with the T = 1 output is (1 + T)/2.

Each check returns a list of problems; an empty list means the output holds.
"""

from __future__ import annotations

import cmath
import itertools
import math

TOLERANCE = 1e-9
#: Concurrence and three-tangle go through square roots of near-zero
#: eigenvalues, which amplify rounding to about 1e-8.
ROOT_TOLERANCE = 1e-6
ORACLE_TOLERANCE = 1e-9


def port_probability(n: int, r: int, total_t: float, xi: float) -> float:
    """Loss-free probability of one outcome with ``r`` primed ports out of ``n``."""
    return (1.0 + total_t**2 + 2.0 * total_t * math.cos(xi + (n - 2 * r) * math.pi / 2)) / 2 ** (n + 1)


def loss_probability(total_t: float) -> float:
    return (1.0 - total_t**2) / 2.0


def bitstrings(n: int) -> list[str]:
    """All ``n``-port outcomes in ascending order, unprimed port = 0."""
    return ["".join(bits) for bits in itertools.product("01", repeat=n)]


def _close(value: float, expected: float, tolerance: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= tolerance


def _rows(text: str) -> list[list[str]]:
    if not text.endswith("\n"):
        raise ValueError("output does not end with a newline")
    return [line.split(",") for line in text.splitlines()]


def check_run(text: str, op) -> list[str]:
    scheme = op.scheme
    n, total_t = scheme.n_detected, scheme.total_transmission
    try:
        rows = _rows(text)
    except ValueError as exc:
        return [str(exc)]
    expected = [[o, port_probability(n, o.count("1"), total_t, scheme.xi)] for o in bitstrings(n)]
    expected.append(["loss", loss_probability(total_t)])
    if rows[0] != ["outcome", "probability"]:
        return [f"unexpected header {rows[0]}"]
    if [row[0] for row in rows[1:]] != [label for label, _ in expected]:
        return ["outcome labels differ from the 2^n outcomes plus loss"]
    problems = []
    for row, (label, value) in zip(rows[1:], expected):
        if len(row) != 2 or not _close(float(row[1]), value, TOLERANCE):
            problems.append(f"{label}: got {row[1:]}, expected {value:.12g}")
    return problems


def check_sweep(text: str, op) -> list[str]:
    n, total_t = op.scheme.n_detected, op.scheme.total_transmission
    try:
        rows = _rows(text)
    except ValueError as exc:
        return [str(exc)]
    outcomes = bitstrings(n)
    header = ["phase"] + [f"P_{o}" for o in outcomes] + ["P_loss"]
    if rows[0] != header:
        return [f"unexpected header {rows[0][:4]}..."]
    grid = op.grid()
    if len(rows) - 1 != len(grid):
        return [f"{len(rows) - 1} rows, expected {len(grid)}"]
    problems = []
    lost = loss_probability(total_t)
    for row, phase in zip(rows[1:], grid):
        if len(row) != len(header):
            problems.append(f"row at phase {phase:.12g} has {len(row)} cells")
            continue
        xi = op.scheme.with_phase(op.variable, phase).xi
        expected = [phase] + [port_probability(n, o.count("1"), total_t, xi) for o in outcomes]
        expected.append(lost)
        for name, cell, value in zip(header, row, expected):
            if not _close(float(cell), value, TOLERANCE):
                problems.append(f"phase {phase:.12g} {name}: got {cell}, expected {value:.12g}")
    return problems


def _i_pow(k: int) -> complex:
    return (1 + 0j, 1j, -1 + 0j, -1j)[k % 4]


def detected_vectors(n: int, total_t: float, xi: float) -> tuple[dict[str, complex], dict[str, complex]]:
    """The unnormalised survivor branch A and the loss branch U, by bitstring."""
    phase = cmath.exp(1j * xi)
    a_scale, u_scale = 0.5 ** ((n + 1) / 2), 0.5 ** (n / 2)
    a_vec, u_vec = {}, {}
    for o in bitstrings(n):
        r = o.count("1")
        a_vec[o] = a_scale * (total_t * _i_pow(r) + _i_pow(n - r) * phase)
        u_vec[o] = u_scale * _i_pow(r)
    return a_vec, u_vec


def target_vector(name: str, n: int) -> dict[str, complex]:
    """Normalised target state of the entangle command, by bitstring."""
    h = math.sqrt(0.5)
    if name == "Psi+":
        return {"01": h, "10": h}
    if name == "Phi-":
        return {"00": h, "11": -h}
    if name == "GHZ3":
        return {"000": 0.5, "110": -0.5, "101": -0.5, "011": -0.5}
    # F1/F3 superpose even r, F2/F4 odd r; the sign alternates along the r values.
    first = 0 if name in ("F1", "F3") else 1
    r_values = list(range(first, n + 1, 2))
    amp = 1.0 / math.sqrt(sum(math.comb(n, r) for r in r_values))
    return {o: amp * (-1) ** r_values.index(o.count("1")) for o in bitstrings(n) if o.count("1") in r_values}


def mixed_fidelity(target: dict[str, complex], n: int, total_t: float, xi: float) -> float:
    """<target| rho |target> for the conditional detected state rho."""
    a_vec, u_vec = detected_vectors(n, total_t, xi)
    overlap_a = sum(amp.conjugate() * a_vec[o] for o, amp in target.items())
    overlap_u = sum(amp.conjugate() * u_vec[o] for o, amp in target.items())
    return abs(overlap_a) ** 2 + loss_probability(total_t) * abs(overlap_u) ** 2


def check_entangle(text: str, op) -> list[str]:
    scheme = op.scheme
    n = scheme.n_detected
    try:
        rows = _rows(text)
    except ValueError as exc:
        return [str(exc)]
    if rows[0] != ["transmission", "visibility", "concurrence", "fidelity", "three_tangle"]:
        return [f"unexpected header {rows[0]}"]
    if len(rows) - 1 != len(op.grid):
        return [f"{len(rows) - 1} rows, expected {len(op.grid)}"]
    target = target_vector(op.target, n)
    problems = []
    for row, t in zip(rows[1:], op.grid):
        if len(row) != 5:
            problems.append(f"row for t={t} has {len(row)} cells")
            continue
        total_t = t**scheme.m
        tangle = "1" if n == 3 and t == 1.0 else ""  # only a pure state has a tangle
        checks = (
            ("transmission", row[0], t, TOLERANCE),
            ("visibility", row[1], total_t, TOLERANCE),
            ("concurrence", row[2], total_t if n == 2 else 0.0, ROOT_TOLERANCE),
            ("fidelity", row[3], mixed_fidelity(target, n, total_t, scheme.xi), TOLERANCE),
        )
        for name, cell, value, tolerance in checks:
            if not _close(float(cell), value, tolerance):
                problems.append(f"t={t} {name}: got {cell}, expected {value:.12g}")
        if (row[4] == "") != (tangle == ""):
            problems.append(f"t={t} three_tangle: got {row[4]!r}, expected {tangle or 'blank'}")
        elif tangle and not _close(float(row[4]), 1.0, ROOT_TOLERANCE):
            problems.append(f"t={t} three_tangle: got {row[4]}, expected 1")
    return problems


def check_oracle(text: str, op) -> list[str]:
    try:
        rows = _rows(text)
    except ValueError as exc:
        return [str(exc)]
    if rows[0] != [f"# seed = {op.seed}"]:
        return [f"unexpected seed line {rows[0]}"]
    if rows[1] != ["n_detected", "n_aligned", "cases", "max_infidelity", "status"]:
        return [f"unexpected header {rows[1]}"]
    shape = [
        [str(n), str(m), str(op.cases)]
        for n in range(1, op.max_detected + 1)
        for m in range(0, op.max_aligned + 1)
    ]
    if [row[:3] for row in rows[2:]] != shape:
        return ["oracle rows do not cover every (n_detected, n_aligned) pair"]
    problems = []
    for row in rows[2:]:
        if row[4] != "pass" or not 0.0 <= float(row[3]) <= ORACLE_TOLERANCE:
            problems.append(f"oracle row {','.join(row)} does not pass")
    return problems


def check_density(fid: float, conc: float, op) -> list[str]:
    scheme = op.scheme
    total_t = scheme.total_transmission
    expected_conc = total_t if scheme.n_detected == 2 else 0.0
    problems = []
    if not _close(fid, (1.0 + total_t) / 2.0, TOLERANCE):
        problems.append(f"fidelity {fid!r}, expected {(1.0 + total_t) / 2.0!r}")
    if not _close(conc, expected_conc, ROOT_TOLERANCE):
        problems.append(f"concurrence {conc!r}, expected {expected_conc!r}")
    return problems


CSV_CHECKS = {
    "run": check_run,
    "sweep": check_sweep,
    "entangle": check_entangle,
    "oracle-check": check_oracle,
}


def check_csv(text: str, op) -> list[str]:
    """Problems with the CSV written by a CLI op; malformed numbers count too."""
    try:
        return CSV_CHECKS[op.command](text, op)
    except (ValueError, IndexError) as exc:
        return [f"malformed output: {exc}"]
