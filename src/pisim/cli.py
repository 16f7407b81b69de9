"""Command-line front end: scenario files in, CSV tables out.

Scenario documents are flat ``key = value`` text with dotted keys; ``#``
starts a comment.  The four commands write deterministic CSV (12 significant
digits, newline-terminated), so identical scenario + seed reproduce output
byte for byte.
"""

from __future__ import annotations

import getopt
import math
import sys
from dataclasses import dataclass, replace
from typing import Any, Sequence

import numpy as np

from .analysis import (
    concurrence,
    fidelity,
    pure_state_from_density,
    three_tangle,
    visibility,
)
from .closed_form import (
    EntangledClass,
    EntangledClassId,
    entangled_class_state,
    predicted_output_state,
)
from .errors import (
    ConfigError,
    NormalizationError,
    PathIdentityError,
    ScenarioParseError,
    ValidationError,
)
from .interferometer import (
    MAX_PARTICLES,
    SchemeConfig,
    _branch_phases,
    _branch_table,
    branch_probabilities,
    conditional_detected_state,
    run_scheme,
)
from .states import (
    PureState,
    aligned_beam,
    partial_trace,
    pure_state_from_terms,
    state_fidelity,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERIC = 2
EXIT_IO = 3

COMMANDS = ("run", "sweep", "entangle", "oracle-check")
#: Target names: the F class each names, and the detected-particle count a named state needs.
_TARGETS = {"Psi+": ("F2", 2), "Phi-": ("F1", 2), "GHZ3": ("F3", 3)}
_TARGETS.update((name, (name, None)) for name in ("F1", "F2", "F3", "F4"))
TARGET_NAMES = tuple(_TARGETS)
DEFAULT_SEED = 42
USAGE = "usage: pisim <command> --scenario <path> [--out <path>] [--seed <u64>]"
HELP = f"""{USAGE}
Commands: {", ".join(COMMANDS)}.  --out overrides the scenario's 'output';
--seed (default {DEFAULT_SEED}) seeds oracle-check; -h or --help prints this text.
"""
_LONG_OPTIONS = ("help", "scenario=", "out=", "seed=")
ROW_SUM_TOLERANCE = 1e-9
ORACLE_TOLERANCE = 1e-9
#: Phases of the visibility fit: 64 steps over one period.
_VISIBILITY_GRID = tuple(k * math.tau / 64 for k in range(64))
#: Rounding allowance on the [0, 1] range of the entanglement figures.
_FIGURE_SLACK = 1e-9
DEFAULT_ENTANGLE_GRID = tuple(k / 10 for k in range(11))
#: Most phase steps a sweep may request.
MAX_SWEEP_STEPS = 4096
#: Most probability cells a sweep may write: steps times 2^(N-M) outcomes.
MAX_SWEEP_CELLS = 2**20
#: Most terms per run that ``entangle`` accepts below full transmission.
MAX_ENTANGLE_TERMS = 4096
#: Most transmissions an ``entangle`` grid may list.
MAX_ENTANGLE_GRID = 101
#: Most scheme runs an oracle check may make: cases per (detected, aligned) pair.
MAX_ORACLE_RUNS = 5000


@dataclass(frozen=True)
class SweepSpec:
    """Phase sweep request: half-open grid [start, stop) with ``steps`` points."""

    variable: str
    start: float = 0.0
    stop: float = math.tau
    steps: int = 64


@dataclass(frozen=True)
class OracleSpec:
    """Ranges exercised by the oracle-check command."""

    cases: int = 100
    max_detected: int = 5
    max_aligned: int = 3


@dataclass(frozen=True)
class Scenario:
    """Validated scenario document."""

    command: str
    scheme: SchemeConfig | None
    sweep: SweepSpec | None = None
    target: str | None = None
    entangle_grid: tuple[float, ...] | None = None  # entangle: DEFAULT_ENTANGLE_GRID if not given
    oracle: OracleSpec | None = None
    output_path: str | None = None


def _fmt(value: float) -> str:
    return format(float(value) + 0.0, ".12g")  # -0.0 + 0.0 is 0.0


# ---------------------------------------------------------------------------
# scenario parsing


#: ``take_as`` default of a key the document must give.
_REQUIRED = object()


class _Entries:
    """Key/value pairs with line numbers and consumption tracking."""

    def __init__(self, text: str):
        self.pairs: dict[str, tuple[str, int]] = {}
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")  # only these end a line
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ScenarioParseError("expected 'key = value'", line=lineno)
            key, value = key.strip(), value.split("#", 1)[0].strip()
            if not key or not value:
                raise ScenarioParseError("missing key or value", key=key or None, line=lineno)
            if key in self.pairs:
                raise ScenarioParseError("duplicate key", key=key, line=lineno)
            self.pairs[key] = (value, lineno)
        self.consumed: set[str] = set()

    def error(self, key: str, message: str) -> ScenarioParseError:
        """A parse error naming ``key`` and the line it was given on, if any."""
        return ScenarioParseError(message, key=key, line=self.pairs.get(key, (None, None))[1])

    def given(self, *keys: str) -> str:
        """The first of ``keys`` that the document gives, else the first: the key that
        names a rule which the defaults of the others break."""
        return next((key for key in keys if key in self.pairs), keys[0])

    def take(self, key: str) -> tuple[str, int] | None:
        if key in self.pairs:
            self.consumed.add(key)
            return self.pairs[key]
        return None

    def take_as(self, key: str, kind: type = str, default: Any = None) -> Any:
        """The value of ``key`` as ``kind`` (str, int or float), or ``default`` if absent;
        an absent key with the default ``_REQUIRED`` is a "missing key" error."""
        found = self.take(key)
        if found is None:
            if default is _REQUIRED:
                raise self.error(key, "missing key")
            return default
        try:
            return kind(found[0])
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise self.error(key, f"expected {what}, got {found[0]!r}")

    def matching(self, prefix: str) -> list[str]:
        return [k for k in self.pairs if k.startswith(prefix)]


def _parse_scheme(entries: _Entries, required: bool) -> SchemeConfig | None:
    has_any = bool(entries.matching("scheme."))
    if not has_any and not required:
        return None
    n = entries.take_as("scheme.n", int, _REQUIRED)
    m = entries.take_as("scheme.m", int, _REQUIRED)
    if not 1 <= n <= MAX_PARTICLES:
        raise entries.error("scheme.n", f"scheme.n must lie in [1, {MAX_PARTICLES}]")
    if not 0 <= m <= n:
        raise entries.error("scheme.m", f"scheme.m must lie in [0, {n}]")
    phi0 = entries.take_as("scheme.phi0", float, 0.0)
    phi = tuple(entries.take_as(f"scheme.phi.{j}", float, 0.0) for j in range(1, n - m + 1))
    aligned = range(n - m + 1, n + 1)
    theta = tuple(entries.take_as(f"scheme.theta.{l}", float, 0.0) for l in aligned)
    trans = tuple(entries.take_as(f"scheme.transmission.{l}", float, 1.0) for l in aligned)
    leftovers = [k for k in entries.matching("scheme.") if k not in entries.consumed]
    if leftovers:
        raise entries.error(leftovers[0], "key does not fit this scheme")
    try:
        return SchemeConfig(n, m, phi0=phi0, phi=phi, theta=theta, transmission=trans)
    except ConfigError as exc:
        raise entries.error(f"scheme.{exc.field}", str(exc))


def _parse_sweep(entries: _Entries, scheme: SchemeConfig) -> SweepSpec:
    variable = entries.take_as("sweep.variable", str, _REQUIRED)
    try:
        scheme.phase_slot(variable)
    except ValueError as exc:
        raise entries.error("sweep.variable", str(exc))
    steps = entries.take_as("sweep.steps", int, SweepSpec.steps)
    if not 8 <= steps <= MAX_SWEEP_STEPS:
        raise entries.error("sweep.steps", f"sweep.steps must lie in [8, {MAX_SWEEP_STEPS}]")
    if steps * 2**scheme.n_detected > MAX_SWEEP_CELLS:
        raise entries.error(
            entries.given("sweep.steps", "scheme.n"),
            f"{steps} steps of 2^{scheme.n_detected} outcomes each exceed the limit of "
            f"{MAX_SWEEP_CELLS} cells per sweep",
        )
    start = entries.take_as("sweep.start", float, SweepSpec.start)
    stop = entries.take_as("sweep.stop", float, SweepSpec.stop)
    for key, value in (("sweep.start", start), ("sweep.stop", stop)):
        if not math.isfinite(value):
            raise entries.error(key, f"{key} must be finite, got {value}")
    key = entries.given("sweep.stop", "sweep.start")
    if not stop > start:
        raise entries.error(key, "sweep.stop must exceed sweep.start")
    if not math.isfinite(stop - start):
        raise entries.error(key, "sweep.stop - sweep.start overflows")
    return SweepSpec(variable, start, stop, steps)


def _parse_entangle_grid(entries: _Entries) -> tuple[float, ...]:
    found = entries.take("entangle.grid")
    if found is None:
        return DEFAULT_ENTANGLE_GRID
    try:
        grid = tuple(float(part) for part in found[0].split(","))
    except ValueError:
        raise entries.error("entangle.grid", "expected comma-separated numbers")
    if any(not 0.0 <= t <= 1.0 for t in grid):
        raise entries.error("entangle.grid", "grid transmissions must lie in [0, 1]")
    return grid


def _parse_oracle(entries: _Entries) -> OracleSpec:
    spec = OracleSpec(
        cases=entries.take_as("oracle.cases", int, OracleSpec.cases),
        max_detected=entries.take_as("oracle.max_detected", int, OracleSpec.max_detected),
        max_aligned=entries.take_as("oracle.max_aligned", int, OracleSpec.max_aligned),
    )
    checks = (
        ("oracle.cases", spec.cases, 1, 100000),
        ("oracle.max_detected", spec.max_detected, 1, 8),
        ("oracle.max_aligned", spec.max_aligned, 0, 8),
    )
    for key, value, low, high in checks:
        if not low <= value <= high:
            raise entries.error(key, f"value must lie in [{low}, {high}]")
    runs = spec.cases * spec.max_detected * (spec.max_aligned + 1)  # one per case and scheme
    if runs > MAX_ORACLE_RUNS:
        key = entries.given("oracle.cases", "oracle.max_detected", "oracle.max_aligned")
        raise entries.error(key, f"{runs} scheme runs exceed {MAX_ORACLE_RUNS}")
    return spec


def _target_class(name: str, n_detected: int) -> EntangledClass:
    """The F class that target ``name`` names at ``n_detected`` detected particles;
    ValueError if it names none there."""
    class_name, needs = _TARGETS[name]
    if needs not in (None, n_detected):
        count = "two" if needs == 2 else "three"
        raise ValueError(f"target {name} needs {count} detected particles, scheme has {n_detected}")
    return EntangledClass(EntangledClassId(class_name), n_detected)


def _validate_target(name: str, scheme: SchemeConfig | None, entries: _Entries) -> None:
    if name not in _TARGETS:
        raise entries.error(
            "target", f"unknown target {name!r} (expected one of {', '.join(TARGET_NAMES)})"
        )
    if scheme is not None:
        try:
            _target_class(name, scheme.n_detected)
        except ValueError as exc:
            raise entries.error("target", str(exc))


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Raises :class:`ScenarioParseError` naming the offending key and line for
    missing keys, type mismatches, and invariant violations.
    """
    entries = _Entries(text)
    command = entries.take_as("command", str, _REQUIRED)
    if command not in COMMANDS:
        raise entries.error(
            "command", f"unknown command {command!r} (expected one of {', '.join(COMMANDS)})"
        )

    if command == "entangle":  # its grid sets every transmission
        for key in entries.matching("scheme.transmission."):
            raise entries.error(key, "entangle takes its transmissions from entangle.grid")
    scheme = _parse_scheme(entries, required=command != "oracle-check")
    if command != "oracle-check" and scheme.n_detected == 0:
        raise entries.error(
            "scheme.m", "the scheme must leave at least one detected particle (m < n)"
        )

    sweep = _parse_sweep(entries, scheme) if command == "sweep" else None
    for key in entries.matching("sweep."):
        if command != "sweep":
            raise entries.error(key, "sweep settings are only valid with 'command = sweep'")

    entangle_grid = _parse_entangle_grid(entries) if command == "entangle" else None
    oracle = _parse_oracle(entries) if command == "oracle-check" else None

    target = entries.take_as("target")
    if target is not None:
        _validate_target(target, scheme, entries)

    output_path = entries.take_as("output")
    if output_path is not None and "\0" in output_path:
        raise entries.error("output", "path contains a NUL byte")

    for key in [k for k in entries.pairs if k not in entries.consumed]:
        raise entries.error(key, "unknown key")

    if command == "entangle":
        if scheme.n_aligned < 1:
            raise entries.error("scheme.m", "entangle needs at least one aligned particle")
        if scheme.n_detected not in (2, 3):
            raise entries.error("scheme.n", "entangle supports two or three detected particles")
        # below t = 1 every particle spans two labels (d/d' detected, a/v aligned), so
        # the one scheme run behind each grid point's state stores 2^N terms
        if min(entangle_grid) < 1.0 and 2**scheme.n_particles > MAX_ENTANGLE_TERMS:
            raise entries.error(
                "scheme.n",
                f"a grid transmission below 1 makes the scheme run of each grid point "
                f"store 2^{scheme.n_particles} terms, above the limit {MAX_ENTANGLE_TERMS}",
            )
        if len(entangle_grid) > MAX_ENTANGLE_GRID:
            raise entries.error("entangle.grid", f"more than {MAX_ENTANGLE_GRID} grid points")

    return Scenario(
        command=command,
        scheme=scheme,
        sweep=sweep,
        target=target,
        entangle_grid=entangle_grid,
        oracle=oracle,
        output_path=output_path,
    )


# ---------------------------------------------------------------------------
# command execution


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "wb") as out:
        out.write(("\n".join(lines) + "\n").encode())


def _row_sum_ok(probabilities: Sequence[float], lost: float) -> bool:
    return abs(sum(probabilities) + lost - 1.0) <= ROW_SUM_TOLERANCE


def _fmt_all(values: Sequence[float]) -> list[str]:
    """``_fmt`` of each value, formatting each distinct value once."""
    texts: dict[float, str] = {}
    return [texts[v] if v in texts else texts.setdefault(v, _fmt(v)) for v in values]


def _cmd_run(scenario: Scenario, path: str) -> int:
    table = branch_probabilities(scenario.scheme)
    row = table.loss_free[0].tolist()
    if not _row_sum_ok(row, table.lost):
        print("pisim: outcome probabilities do not sum to 1", file=sys.stderr)
        return EXIT_NUMERIC
    n = scenario.scheme.n_detected
    lines = ["outcome,probability"] + [f"{x:0{n}b},{p}" for x, p in enumerate(_fmt_all(row))]
    _write_lines(path, lines + [f"loss,{_fmt(table.lost)}"])
    return EXIT_OK


def _cmd_sweep(scenario: Scenario, path: str) -> int:
    scheme, spec = scenario.scheme, scenario.sweep
    n = scheme.n_detected
    lines = ["phase," + ",".join(f"P_{x:0{n}b}" for x in range(2**n)) + ",P_loss"]
    width = (spec.stop - spec.start) / spec.steps
    grid = [spec.start + k * width for k in range(spec.steps)]
    table = branch_probabilities(scheme, spec.variable, grid)
    for phase, values in zip(grid, table.loss_free):
        row = values.tolist()
        if not _row_sum_ok(row, table.lost):
            print(f"pisim: probabilities at phase {phase} do not sum to 1", file=sys.stderr)
            return EXIT_NUMERIC
        lines.append(",".join([_fmt(phase)] + _fmt_all(row) + [_fmt(table.lost)]))
    _write_lines(path, lines)
    return EXIT_OK


def _entangle_figures(
    cfg: SchemeConfig, target: PureState | None, pattern: np.ndarray
) -> tuple[float, float, float | None, float | None]:
    """Visibility of ``pattern`` (one outcome's probabilities over ``_VISIBILITY_GRID``),
    concurrence, fidelity to ``target`` and three-tangle of one configuration, in CSV
    column order; ``None`` where a figure does not apply."""
    pattern_visibility = visibility(_VISIBILITY_GRID, pattern)

    rho = conditional_detected_state(run_scheme(cfg))
    pair = concurrence(rho if cfg.n_detected == 2 else partial_trace(rho, (1, 2)))

    tangle = None
    if cfg.n_detected == 3:
        try:
            tangle = three_tangle(pure_state_from_density(rho))
        except ValueError:
            tangle = None  # mixed state: pure-state tangle undefined

    overlap = fidelity(rho, target) if target is not None else None
    return pattern_visibility, pair, overlap, tangle


def _cmd_entangle(scenario: Scenario) -> list[str]:
    scheme = scenario.scheme
    name = scenario.target
    target = entangled_class_state(_target_class(name, scheme.n_detected)) if name else None
    phases = _branch_phases(scheme, f"theta.{scheme.n_detected + 1}", _VISIBILITY_GRID)
    columns = ("visibility", "concurrence", "fidelity", "three_tangle")
    lines = ["transmission," + ",".join(columns)]
    for t in scenario.entangle_grid:
        cfg = replace(scheme, transmission=(t,) * scheme.n_aligned)
        table = _branch_table(scheme.n_detected, phases, cfg.transmission)
        figures = _entangle_figures(cfg, target, table.marginal[:, 0])
        for name, value in zip(columns, figures):
            if value is not None and not -_FIGURE_SLACK <= value <= 1.0 + _FIGURE_SLACK:
                raise ValidationError(f"{name} must lie in [0, 1], got {value}")
        lines.append(",".join([_fmt(t)] + ["" if v is None else _fmt(v) for v in figures]))
    return lines


def _oracle_fidelity(cfg: SchemeConfig) -> float:
    state = run_scheme(cfg)
    predicted = predicted_output_state(cfg.n_detected, cfg.xi)
    tail = tuple(aligned_beam(l) for l in cfg.aligned_range)
    full_prediction = pure_state_from_terms(
        [(outcome + tail, amp) for outcome, amp in predicted.terms()]
    )
    return state_fidelity(full_prediction, state)


def _cmd_oracle(scenario: Scenario, path: str, seed: int) -> int:
    spec = scenario.oracle
    lines = [f"# seed = {seed}", "n_detected,n_aligned,cases,max_infidelity,status"]
    all_pass = True
    for n in range(1, spec.max_detected + 1):
        for m in range(0, spec.max_aligned + 1):
            rng = np.random.default_rng([seed, n, m])
            worst = 0.0
            for _ in range(spec.cases):
                phases = rng.uniform(0.0, math.tau, size=1 + n + m)
                cfg = SchemeConfig(
                    n + m,
                    m,
                    phi0=phases[0],
                    phi=tuple(phases[1 : 1 + n]),
                    theta=tuple(phases[1 + n :]),
                )
                worst = max(worst, 1.0 - _oracle_fidelity(cfg))
            status = "pass" if worst <= ORACLE_TOLERANCE else "fail"
            all_pass = all_pass and status == "pass"
            lines.append(f"{n},{m},{spec.cases},{_fmt(worst)},{status}")
    _write_lines(path, lines)
    if not all_pass:
        print(f"pisim: oracle deviation above {ORACLE_TOLERANCE}; see {path}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def execute(scenario: Scenario, out_path: str | None = None, seed: int = DEFAULT_SEED) -> int:
    """Run a validated scenario and write its output file.

    Returns the process exit status: 0 success, 1 validation failure,
    2 numerical check failure, 3 I/O failure.
    """
    path = out_path or scenario.output_path
    if path is None:
        print("pisim: no output path (set 'output' in the scenario or pass --out)", file=sys.stderr)
        return EXIT_INVALID
    try:
        if scenario.command == "run":
            return _cmd_run(scenario, path)
        if scenario.command == "sweep":
            return _cmd_sweep(scenario, path)
        if scenario.command == "entangle":
            _write_lines(path, _cmd_entangle(scenario))
            return EXIT_OK
        return _cmd_oracle(scenario, path, seed)
    except OSError as exc:
        print(f"pisim: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NormalizationError, ValidationError) as exc:
        print(f"pisim: numerical check failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PathIdentityError as exc:
        print(f"pisim: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _arguments(argv: Sequence[str]) -> tuple[str, str, str | None, int] | None:
    """Command, scenario, output path and seed of ``argv``; ``None`` asks for help."""
    options, words = getopt.getopt(argv, "h", _LONG_OPTIONS)
    later, extra = getopt.getopt(words[1:], "h", _LONG_OPTIONS)
    values = dict(options + later)
    if "-h" in values or "--help" in values:
        return None
    command = words[0] if words else None
    if command not in COMMANDS or extra:
        got = repr(" ".join(words[:1] + extra)) if words else "none"
        raise getopt.GetoptError(f"expected one command of {', '.join(COMMANDS)}, got {got}")
    if "--scenario" not in values:
        raise getopt.GetoptError("the following arguments are required: --scenario")
    for name in ("--scenario", "--out"):
        if "\0" in values.get(name, ""):
            raise getopt.GetoptError(f"argument {name}: path contains a NUL byte")
    try:
        seed = int(values.get("--seed", DEFAULT_SEED))
    except ValueError:
        seed = -1
    if not 0 <= seed < 2**64:
        raise getopt.GetoptError("argument --seed: seed must be an unsigned 64-bit integer")
    return command, values["--scenario"], values.get("--out"), seed


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _arguments(sys.argv[1:] if argv is None else argv)
    except getopt.GetoptError as exc:
        print(f"{USAGE}\npisim: error: {exc.msg}", file=sys.stderr)
        return EXIT_INVALID
    if args is None:
        print(HELP, end="")
        return EXIT_OK
    command, scenario_path, out_path, seed = args
    try:
        with open(scenario_path, "rb") as source:
            text = source.read()
        scenario = parse_scenario(text.decode("utf-8"))
    except OSError as exc:
        print(f"pisim: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ScenarioParseError, UnicodeDecodeError) as exc:
        print(f"pisim: scenario error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if scenario.command != command:
        print(
            f"pisim: scenario declares 'command = {scenario.command}' "
            f"but '{command}' was requested",
            file=sys.stderr,
        )
        return EXIT_INVALID
    return execute(scenario, out_path=out_path, seed=seed)


if __name__ == "__main__":
    raise SystemExit(main())
