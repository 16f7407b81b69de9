"""Size-ladder probe of the traced run.

Runs ``run_scheme``, ``detection_table`` and ``conditional_detected_state``
once per rung, (N, M) from (3, 1) to (16, 8), each at t = 0.5 and t = 1, and
records stored terms, the density dimension the sparse engine spans (the
product of the distinct labels per particle) and the time of each call.

A conditional state is built as a dense matrix over that basis.  The ladder
does not make a call that would build a matrix larger than
:data:`DENSE_LIMIT` (64 MiB, tens of seconds at the parent commit); it records
it as "not run (limit)".  A state beyond the library's own density cap is
refused before anything is allocated, so that call is made and its error is
recorded as failed.
"""

from __future__ import annotations

import math
import random
import time

import checks

RUNGS = ((3, 1), (6, 2), (10, 4), (12, 6), (16, 8))
TRANSMISSIONS = (0.5, 1.0)
DENSE_LIMIT = 2048
STATUS_CODES = {"ok": 0, "failed": 1, "not run (limit)": 2}
FIELDS = {
    "terms": "count",
    "density_dim": "count",
    "run_scheme_s": "s",
    "detection_table_s": "s",
    "conditional_s": "s",
    "conditional_status": "code",
}


def rung_name(n: int, m: int, t: float) -> str:
    return f"N{n}M{m}t{t:g}"


def metric_names() -> list[tuple[str, str]]:
    return [
        (f"ladder.{rung_name(n, m, t)}.{field}", unit)
        for n, m in RUNGS
        for t in TRANSMISSIONS
        for field, unit in FIELDS.items()
    ]


def _timed(call):
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # recorded per rung; the ladder goes on
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, None


def run(pisim, recorder, seed: int) -> list[dict]:
    """Probe every rung; returns one record per rung."""
    interferometer = pisim.interferometer
    density_cap = getattr(pisim.states, "MAX_DENSITY_DIM", None)
    rng = random.Random(f"ladder:{seed}")
    records = []
    for n, m in RUNGS:
        for t in TRANSMISSIONS:
            name = rung_name(n, m, t)
            recorder.op = f"ladder/{name}"
            phi0 = rng.uniform(0.0, math.tau)
            phi = tuple(rng.uniform(0.0, math.tau) for _ in range(n - m))
            theta = tuple(rng.uniform(0.0, math.tau) for _ in range(m))
            cfg = interferometer.SchemeConfig(n, m, phi0=phi0, phi=phi, theta=theta, transmission=(t,) * m)
            record = {"rung": name, "n": n, "m": m, "t": t}
            record["run_scheme_s"], state, error = _timed(lambda: interferometer.run_scheme(cfg))
            if error:
                record.update(error=error, terms=0, density_dim=0, detection_table_s=0.0)
                record.update(conditional_s=0.0, conditional_status="failed")
                records.append(record)
                continue
            record["terms"] = state.term_count
            record["density_dim"] = math.prod(
                len(state.particle_labels(p)) for p in range(1, state.particle_count + 1)
            )
            record["detection_table_s"], table, error = _timed(lambda: interferometer.detection_table(state))
            if error:
                record["error"] = error
            else:
                worst = _table_error(table, n - m, t**m, phi0 + sum(phi) - sum(theta))
                if worst > checks.TOLERANCE:
                    record["error"] = f"detection table deviates from the closed form by {worst:.3g}"
            dim = record["density_dim"]
            if dim <= DENSE_LIMIT or (density_cap is not None and dim > density_cap):
                seconds, _, error = _timed(lambda: interferometer.conditional_detected_state(state))
                record["conditional_s"] = seconds
                record["conditional_status"] = "failed" if error else "ok"
                if error:
                    record["conditional_error"] = error
            else:
                record["conditional_s"] = 0.0
                record["conditional_status"] = "not run (limit)"
            records.append(record)
    return records


def _table_error(table, n: int, total_t: float, xi: float) -> float:
    probabilities, lost = table
    worst = abs(lost - checks.loss_probability(total_t))
    for outcome, value in probabilities.items():
        r = sum(outcome.ports)
        worst = max(worst, abs(value - checks.port_probability(n, r, total_t, xi)))
    return worst


def metrics(records: list[dict]) -> dict[str, float]:
    values = {}
    for record in records:
        for field in FIELDS:
            value = record[field]
            if field == "conditional_status":
                value = STATUS_CODES[value]
            values[f"ladder.{record['rung']}.{field}"] = value
    return values
