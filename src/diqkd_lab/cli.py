"""Command-line front end: scenario files in, CSV / reports / transcripts out.

Subcommands (one verb per family of reproducible artifacts):

* ``sweep``     -- run a scenario across a parameter axis, emit CSV.
* ``threshold`` -- critical detection efficiency report.
* ``attack``    -- post-selection faking strength versus efficiency, CSV.
* ``session``   -- one end-to-end key session, report plus binary transcript.
* ``validate``  -- parse a scenario file and echo its normalized form.

Scenario files are flat JSON objects holding :class:`~diqkd_lab.architectures.Scenario`
fields plus optional command settings (``sweep`` axis, ``seed``, ``out``,
``rounds``, ``sample_fraction``, ``optimize``, ``theta``, ``etas``).  Unknown
keys are rejected by name.  Every command is deterministic given the file
and seed.  Sweep points run in axis order in the calling process; ``--jobs``
is still accepted (it must be at least 1) but has no effect.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from diqkd_lab.architectures import (
    _SCENARIO_RANGES,
    NeverHeraldsError,
    Scenario,
    run,
    secret_bits_per_second,
)
from diqkd_lab.bellcert import critical_efficiency, loophole_attack_curve
from diqkd_lab.keyproto import _bits_digest, _round_range, run_session, transcript_records
from diqkd_lab.photonics import distance_to_transmission
from diqkd_lab.qstate import _FINITE, _UNIT_OPEN_ABOVE, _UNIT_OPEN_BELOW, _real
from diqkd_lab.qstate import _integer as _qstate_integer

__all__ = [
    "CliError",
    "SweepAxis",
    "ScenarioFile",
    "parse_scenario_file",
    "serialize_scenario_file",
    "sweep_rows",
    "format_number",
    "main",
]

SWEEP_COLUMNS = (
    "L_km",
    "eta_t",
    "herald_probability",
    "chsh",
    "qber",
    "key_rate",
    "bits_per_second",
)


class CliError(ValueError):
    """User-facing configuration error; printed without a traceback."""


@dataclass(frozen=True)
class SweepAxis:
    """One swept scenario parameter.

    The fields are the keys of a scenario file's ``sweep`` object.

    Attributes:
        parameter: Scenario field name (numeric fields only).
        min: First axis value.
        max: Last axis value.
        steps: Number of points (1 reproduces a direct run).
        scale: ``"linear"`` or ``"log"``.
    """

    parameter: str
    min: float
    max: float
    steps: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.parameter not in _SCENARIO_RANGES:
            raise CliError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"expected one of {sorted(_SCENARIO_RANGES)}"
            )
        if self.steps < 1:
            raise CliError(f"sweep steps must be >= 1, got {self.steps}")
        if self.scale not in ("linear", "log"):
            raise CliError(f"sweep scale must be 'linear' or 'log', got {self.scale!r}")
        if self.scale == "log" and (self.min <= 0 or self.max <= 0):
            raise CliError("log-scale sweep bounds must be positive")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.min, self.max, self.steps)
        return np.linspace(self.min, self.max, self.steps)


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed scenario file: the scenario plus command settings.

    The fields other than ``scenario`` are the file's command-setting keys;
    the scenario's own fields sit beside them in the file.
    """

    scenario: Scenario
    sweep: SweepAxis | None
    seed: int
    out: str | None
    rounds: int
    sample_fraction: float
    optimize: bool
    theta: float | None
    etas: tuple[float, ...] | None


_AXIS_KEYS = {f.name for f in dataclasses.fields(SweepAxis)}
_COMMAND_KEYS = {f.name for f in dataclasses.fields(ScenarioFile)} - {"scenario"}


def _number(value, key: str, rule: tuple = _FINITE) -> float:
    """A numeric setting in ``rule``'s range as a float, naming the key on failure.

    Python's JSON reader accepts ``NaN`` and ``Infinity``; neither is finite.
    """
    try:
        return _real(key, value, rule)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _integer(value, key: str) -> int:
    """An integral setting as an int; integral floats such as ``1e6`` pass."""
    if type(value) is float and value.is_integer():
        value = int(value)
    try:
        return _qstate_integer(key, value)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _seed(value, key: str) -> int:
    """A seed as an int: any non-negative integer, however many digits it has."""
    seed = _integer(value, key)
    if seed < 0:
        # Refused through ``_real``, which prints no number too long for a float.
        _number(seed, key, ("must be non-negative", lambda s: s >= 0))
    return seed


def parse_scenario_file(path: str | Path) -> ScenarioFile:
    """Load and validate a flat JSON scenario file.

    Raises:
        CliError: On missing files, malformed JSON (with line context),
            unknown keys (named), or out-of-range values (named).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CliError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer literal longer than Python reads.
        raise CliError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError(f"scenario file {path} must hold a single JSON object")

    scenario_keys = {f.name for f in dataclasses.fields(Scenario)}
    unknown = sorted(set(data) - scenario_keys - _COMMAND_KEYS)
    if unknown:
        raise CliError(f"unknown scenario file keys: {', '.join(unknown)}")

    try:
        scenario = Scenario(**{k: v for k, v in data.items() if k in scenario_keys})
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid scenario in {path}: {exc}") from exc

    axis = None
    if data.get("sweep") is not None:
        raw_axis = data["sweep"]
        if not isinstance(raw_axis, dict):
            raise CliError("'sweep' must be an object")
        bad = sorted(set(raw_axis) - _AXIS_KEYS)
        if bad:
            raise CliError(f"unknown sweep keys: {', '.join(bad)}")
        missing = sorted(_AXIS_KEYS - {"scale"} - set(raw_axis))
        if missing:
            raise CliError(f"sweep is missing keys: {', '.join(missing)}")
        axis = SweepAxis(
            parameter=str(raw_axis["parameter"]),
            min=_number(raw_axis["min"], "sweep min"),
            max=_number(raw_axis["max"], "sweep max"),
            steps=_integer(raw_axis["steps"], "sweep steps"),
            scale=str(raw_axis.get("scale", "linear")),
        )
        # Every scenario range is an interval and both axis scales hit their
        # ends exactly, so checking the two ends checks every point.
        for end in ("min", "max"):
            try:
                dataclasses.replace(scenario, **{axis.parameter: getattr(axis, end)})
            except ValueError as exc:
                raise CliError(f"sweep {end} out of range: {exc}") from exc

    etas = None
    if data.get("etas") is not None:
        if not isinstance(data["etas"], list):
            raise CliError(f"etas must be a list of numbers, got {data['etas']!r}")
        etas = tuple(_number(v, "etas", _UNIT_OPEN_BELOW) for v in data["etas"])
        if not etas:
            raise CliError("etas must not be empty")

    rounds = _integer(data.get("rounds", 100_000), "rounds")
    _number(rounds, "rounds", _round_range(rounds))  # up to the most a session can sift
    sample_fraction = _number(data.get("sample_fraction", 0.1), "sample_fraction", _UNIT_OPEN_ABOVE)
    seed = _seed(data.get("seed", 0), "seed")
    optimize = data.get("optimize", False)
    if not isinstance(optimize, bool):
        raise CliError(f"optimize must be true or false, got {optimize!r}")
    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise CliError(f"out must be a string, got {out!r}")

    return ScenarioFile(
        scenario=scenario,
        sweep=axis,
        seed=seed,
        out=out,
        rounds=rounds,
        sample_fraction=sample_fraction,
        optimize=optimize,
        theta=None if data.get("theta") is None else _number(data["theta"], "theta"),
        etas=etas,
    )


def serialize_scenario_file(parsed: ScenarioFile) -> str:
    """Normalized JSON form; parsing it back reproduces the same settings.

    The settings left unset (``None``) are omitted, and the scenario's
    fields sit beside the command settings, as in the file.
    """
    data = {k: v for k, v in dataclasses.asdict(parsed).items() if v is not None}
    data.update(data.pop("scenario"))
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def format_number(value: float) -> str:
    """Deterministic CSV number format: 6 decimals, scientific below 1e-3."""
    v = float(value)
    if abs(v) < 1e-3:
        return f"{v:.6e}"
    return f"{v:.6f}"


def sweep_rows(scenario: Scenario, axis: SweepAxis) -> list[tuple[float, ...]]:
    """Evaluate the sweep in axis order: one row of raw floats per point."""
    rows = []
    for v in axis.values():
        point = dataclasses.replace(scenario, **{axis.parameter: float(v)})
        result = run(point)
        rows.append(
            (
                point.distance_km,
                distance_to_transmission(point.distance_km, point.attenuation_db_per_km),
                result.herald_probability,
                result.chsh,
                result.qber,
                result.key_rate,
                secret_bits_per_second(result),
            )
        )
    return rows


def _write(out: str, pieces: Iterable[bytes]) -> None:
    """Write ``pieces`` to ``out`` one after another, without joining them."""
    try:
        with open(out, "wb") as f:
            f.writelines(pieces)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write(out, (text.encode("utf-8"),))


def _csv(header: Sequence[str], rows: Sequence[Sequence[float]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(format_number(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def _cmd_sweep(parsed: ScenarioFile, args: argparse.Namespace) -> int:
    if parsed.sweep is None:
        raise CliError("sweep command requires a 'sweep' axis in the scenario file")
    rows = sweep_rows(parsed.scenario, parsed.sweep)
    _emit(_csv(SWEEP_COLUMNS, rows), args.out or parsed.out)
    return 0


def _cmd_threshold(parsed: ScenarioFile, args: argparse.Namespace) -> int:
    # Without a theta, the singlet: its table equals the family's at pi/4.
    result = critical_efficiency(np.pi / 4 if parsed.theta is None else parsed.theta)
    if result.violation_at_unit_efficiency:
        lines = [f"eta_critical={format_number(result.eta_critical)}"]
    else:
        lines = ["no violation"]
    lines.append(f"chsh_at_unit_efficiency={format_number(result.chsh_at_unit_efficiency)}")
    if parsed.optimize:
        optimized = critical_efficiency()
        lines.append(f"eta_critical_optimized={format_number(optimized.eta_critical)}")
        lines.append(f"theta_optimized={format_number(optimized.theta)}")
    _emit("\n".join(lines) + "\n", args.out or parsed.out)
    return 0


def _cmd_attack(parsed: ScenarioFile, args: argparse.Namespace) -> int:
    etas = parsed.etas
    if etas is None:
        etas = tuple(np.linspace(1.0, 0.5, 11))
    results = loophole_attack_curve(etas)
    rows = [(eta, res.chsh) for eta, res in zip(etas, results)]
    _emit(_csv(("eta", "chsh"), rows), args.out or parsed.out)
    return 0


def _cmd_session(parsed: ScenarioFile, args: argparse.Namespace) -> int:
    outcome = run_session(
        run(parsed.scenario),
        parsed.rounds,
        args.seed if args.seed is not None else parsed.seed,
        sample_fraction=parsed.sample_fraction,
    )
    lines = [f"status={outcome.status}"]
    if outcome.abort_reason is not None:
        stage, _, detail = outcome.abort_reason.partition(":")
        lines.append(f"stage={stage}")
        lines.append(f"reason={detail}")
    lines.extend(
        [
            f"n_rounds={outcome.n_rounds}",
            f"n_heralded={outcome.n_heralded}",
            f"n_raw={outcome.n_raw}",
            f"s_hat={format_number(outcome.estimated_s)}",
            f"q_hat={format_number(outcome.estimated_q)}",
            f"s_radius={format_number(outcome.s_radius)}",
            f"q_radius={format_number(outcome.q_radius)}",
            f"worst_case_rate={format_number(outcome.worst_case_rate)}",
            f"leakage_bits={outcome.leakage_bits}",
            f"key_length={outcome.alice_key_bits.size}",
            f"alice_key_digest={_bits_digest(outcome.alice_key_bits, 16).hex()}",
            f"bob_key_digest={_bits_digest(outcome.bob_key_bits, 16).hex()}",
        ]
    )
    sys.stdout.write("\n".join(lines) + "\n")
    out = args.out or parsed.out
    if out is not None:
        _write(out, transcript_records(outcome.transcript))
    return 0


def _cmd_validate(parsed: ScenarioFile, args: argparse.Namespace) -> int:
    _emit(serialize_scenario_file(parsed), args.out or parsed.out)
    return 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "threshold": _cmd_threshold,
    "attack": _cmd_attack,
    "session": _cmd_session,
    "validate": _cmd_validate,
}


# Built once per process (a build takes ~2 ms); ``parse_args`` keeps no state
# in the tree between calls.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diqkd-lab",
        description="Device-independent QKD simulation lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("sweep", "run a scenario across its sweep axis and emit CSV"),
        ("threshold", "report critical detection efficiencies"),
        ("attack", "emit the post-selection faking curve as CSV"),
        ("session", "run one key session; report and write the transcript"),
        ("validate", "parse a scenario file and echo its normalized form"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="path to a JSON scenario file")
        p.add_argument("--seed", type=int, default=None, help="override the file seed")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument(
            "--jobs", type=int, default=1, help="accepted for compatibility; has no effect"
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            _seed(args.seed, "--seed")
        if args.jobs < 1:
            raise CliError(f"--jobs must be at least 1, got {args.jobs}")
        parsed = parse_scenario_file(args.scenario)
        return _COMMANDS[args.command](parsed, args)
    except (CliError, NeverHeraldsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
