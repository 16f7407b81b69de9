"""Same-bits evidence: one SHA-256 per benchmark workload per source tree.

Runs the seeded benchmark operations (seeds 1-3, draws 0-3, every slot) of
``cli-small`` (``oracle-check`` included), ``cli-entangle`` and ``cli-large``
through ``pisim.cli.main``, and the ``lib-density`` chain that
``perfbench/workload.py`` runs (``run_scheme``, the conditional state, its
fidelity with the closed form and the concurrence of particles 1 and 2), for
each tree given as ``LABEL=PATH``.  The operations come from this checkout's
``perfbench/inputs.py``, so every tree runs the same ones; a tree supplies only
its ``src/pisim``.  Each tree runs in one child process that inherits this
process's environment, so

    NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4 X86_V3" \\
        python3 bench/digest.py parent=/tmp/parent change=.

gives the digests at numpy's reduced SIMD dispatch.

A CLI operation adds to its workload's hash the length-prefixed bytes of
``workload:seed:draw:slot:exit``, then its standard error, then the CSV it
wrote (nothing if it wrote none).  A ``lib-density`` operation adds
``workload:seed:draw:slot``, then ``float.hex()`` of the fidelity and of the
concurrence (or the error it raised).  Where a tree's digests differ from the
first tree's, the first differing operation is printed with its scenario and
both outputs, and the exit status is 1.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"
WORKLOADS = ("cli-small", "cli-entangle", "cli-large", "lib-density")
SEEDS = (1, 2, 3)
DRAWS = (0, 1, 2, 3)


def operations() -> list[tuple[str, int, int, int]]:
    """Every ``(workload, seed, draw, slot)`` of :data:`WORKLOADS`, :data:`SEEDS` and
    :data:`DRAWS`, in that order."""
    sys.path.insert(0, str(PERFBENCH))
    import inputs

    return [
        (workload, seed, draw, slot)
        for workload in WORKLOADS
        for seed in SEEDS
        for draw in DRAWS
        for slot in range(len(inputs.generate(workload, seed, draw)))
    ]


def outputs(tree: Path, ops: list[tuple[str, int, int, int]]) -> list[dict]:
    """Run ``ops`` on the ``src/pisim`` of ``tree`` in one child process: per operation its
    workload, scenario and ``parts``, the byte strings that its workload hashes, each
    as a latin-1 text."""
    command = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(HERE)!r}); "
               "import digest; digest.child()", str(Path(tree).resolve())]  # fmt: skip
    done = subprocess.run(command, input=json.dumps(ops), capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{tree}: the child process failed:\n{done.stderr}")
    return [json.loads(line) for line in done.stdout.splitlines()]


def child() -> None:
    """The child process of :func:`outputs`: reads the operations from standard input
    and prints one JSON record per operation, running each in a scratch directory."""
    tree = Path(sys.argv[1])
    sys.path[:0] = [str(tree / "src"), str(PERFBENCH)]
    import inputs
    import pisim
    import pisim.cli

    if Path(pisim.__file__).resolve().parent != tree / "src" / "pisim":
        raise SystemExit(f"pisim imported from {pisim.__file__}, not from {tree / 'src'}")
    ops = json.load(sys.stdin)
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)  # the CLI's messages then name op.csv, the same in every run
        for workload, seed, draw, slot in ops:
            op = inputs.make_op(workload, seed, draw, slot)
            key = f"{workload}:{seed}:{draw}:{slot}"
            if workload == "lib-density":
                scenario, parts = repr(op.scheme), [key, *_density_chain(pisim, op.scheme)]
            else:
                scenario, parts = op.scenario(), _cli_parts(pisim.cli, op, key)
            print(json.dumps({"workload": workload, "scenario": scenario, "parts": parts}))


def _density_chain(p, s) -> list[str]:
    """``float.hex()`` of the fidelity and the concurrence of the ``lib-density`` chain,
    the calls of ``perfbench/workload.py``'s ``DensityRunner``, or the error it raised."""
    try:
        cfg = p.interferometer.SchemeConfig(
            s.n, s.m, phi0=s.phi0, phi=s.phi, theta=s.theta, transmission=s.transmission
        )
        rho = p.interferometer.conditional_detected_state(p.interferometer.run_scheme(cfg))
        target = p.closed_form.predicted_output_state(cfg.n_detected, cfg.xi)
        fid = p.analysis.fidelity(rho, target)
        conc = p.analysis.concurrence(p.states.partial_trace(rho, (1, 2)))
    except Exception as exc:  # an error is an output too
        return [f"raised {type(exc).__name__}: {exc}"]
    return [float(fid).hex(), float(conc).hex()]


def _cli_parts(cli, op, key: str) -> list[str]:
    """The exit line, standard error and CSV of one CLI operation, as latin-1 texts."""
    Path("op.scenario").write_text(op.scenario())
    Path("op.csv").unlink(missing_ok=True)
    argv = [op.command, "--scenario", "op.scenario", "--out", "op.csv"]
    if op.command == "oracle-check":
        argv += ["--seed", str(op.seed)]
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is an output too
            code = f"raised {type(exc).__name__}: {exc}"
    written = Path("op.csv").read_bytes() if Path("op.csv").exists() else b""
    return [f"{key}:{code}", stderr.getvalue().encode().decode("latin-1"), written.decode("latin-1")]


def digests(records: list[dict]) -> dict[str, str]:
    """One SHA-256 per workload over the length-prefixed parts of its records, in order."""
    hashes = {}
    for record in records:
        digest = hashes.setdefault(record["workload"], hashlib.sha256())
        for part in record["parts"]:
            data = part.encode("latin-1")
            digest.update(len(data).to_bytes(8, "big") + data)
    return {workload: digest.hexdigest() for workload, digest in hashes.items()}


def first_difference(first: list[dict], second: list[dict]) -> int | None:
    """Index of the first record whose parts differ, or ``None`` if all agree."""
    pairs = enumerate(zip(first, second))
    return next((index for index, (a, b) in pairs if a["parts"] != b["parts"]), None)


def report(results: dict[str, list[dict]]) -> tuple[list[str], bool]:
    """The lines to print for the records of each tree, and whether every tree's
    digests equal the first tree's."""
    lines, same = [], True
    hashed = {label: digests(records) for label, records in results.items()}
    (base, base_records), *others = results.items()
    for label, values in hashed.items():
        lines += [f"{label} {workload} {value}" for workload, value in values.items()]
    for label, records in others:
        if hashed[label] == hashed[base]:
            lines.append(f"{label}: every digest equals {base}'s")
            continue
        same = False
        index = first_difference(base_records, records)
        lines.append(f"{label}: differs from {base}; first at operation {index}:")
        for name, found in ((base, base_records), (label, records)):
            record = found[index]
            lines.append(f"--- {name}")
            lines.append(record["scenario"].rstrip("\n"))
            for part in record["parts"]:
                lines.append(">>> " + part.encode("latin-1").decode(errors="replace").rstrip("\n"))
    return lines, same


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", metavar="LABEL=PATH")
    args = parser.parse_args()
    trees = {}
    for spec in args.trees:
        label, sep, path = spec.partition("=")
        if not sep or not (Path(path) / "src" / "pisim").is_dir():
            parser.error(f"{spec!r} must be LABEL=PATH of a tree with src/pisim")
        trees[label] = Path(path)
    ops = operations()
    lines, same = report({label: outputs(tree, ops) for label, tree in trees.items()})
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
