"""Workload definitions, in-process CLI ops and their output checks.

An *op* is one CLI verb invocation through ``diqkd_lab.cli.main``.  A
*cycle* is one pass over a workload's op list; the harness runs cycles
back to back in one process (a closed loop with one client).

Sweep, threshold and attack are deterministic: their output must match the
reference bytes under ``refs/`` exactly.  A session passes only when it
reaches a verified key (``status=key``, ``key_length > 0`` and equal key
digests for Alice and Bob).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCENARIO_DIR = BENCH_DIR / "scenarios"
REF_DIR = BENCH_DIR / "refs"


@dataclass(frozen=True)
class Op:
    """One CLI verb applied to one committed scenario file."""

    verb: str
    scenario: str

    @property
    def path(self) -> Path:
        return SCENARIO_DIR / self.scenario

    @property
    def ref_name(self) -> str | None:
        """Reference file name; sessions have none (their seed varies)."""
        suffix = {"sweep": ".csv", "attack": ".csv", "threshold": ".txt"}.get(self.verb)
        return None if suffix is None else Path(self.scenario).stem + suffix

    @property
    def sweep_points(self) -> int:
        axis = json.loads(self.path.read_text()).get("sweep")
        return int(axis["steps"]) if self.verb == "sweep" and axis else 0


@dataclass(frozen=True)
class Workload:
    """A named op list; why each was chosen is in BENCHMARK.json and README.md."""

    name: str
    ops: tuple[Op, ...]


WORKLOADS = {
    w.name: w
    for w in (
        # Not in BENCHMARK.json: a 12-15 s op leaves too few timed samples per run.
        Workload("sweep-heralded", (Op("sweep", "heralded_sweep.json"),)),
        Workload(
            "characterise",
            (
                Op("sweep", "standard_sweep.json"),
                Op("sweep", "third_party_sweep.json"),
                Op("sweep", "local_heralding_ideal_sweep.json"),
                Op("threshold", "threshold_optimized.json"),
                Op("attack", "attack_default.json"),
            ),
        ),
        Workload("session-clean", (Op("session", "session_clean.json"),)),
        # Not in BENCHMARK.json: every session aborts in reconciliation today.
        Workload("session-noisy", (Op("session", "session_noisy.json"),)),
    )
}


def session_seed(workload_seed: int, cycle: int) -> int:
    """Session ``--seed`` for one cycle, derived from the workload seed."""
    digest = hashlib.blake2b(f"{workload_seed}:{cycle}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little")


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@dataclass
class OpResult:
    """What one op did and whether its output passed the checks."""

    verb: str
    scenario: str
    seed: int | None
    wall_s: float
    ok: bool
    reason: str | None
    output_digest: str
    output_bytes: int
    points: int = 0
    rounds: int = 0
    key_bits: int = 0
    transcript_digest: str | None = None


def check_reference(output: bytes, reference: bytes) -> str | None:
    """None when the output bytes equal the reference, else the first difference."""
    if output == reference:
        return None
    out_lines, ref_lines = output.splitlines(), reference.splitlines()
    for i, (a, b) in enumerate(zip(out_lines, ref_lines), start=1):
        if a != b:
            return f"differs from reference at line {i}"
    return f"line count {len(out_lines)} != reference {len(ref_lines)}"


def parse_report(text: str) -> dict[str, str]:
    """``key=value`` lines of a session report."""
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def check_session(report: dict[str, str]) -> str | None:
    """None when the session reached a verified key, else why it did not."""
    if report.get("status") != "key":
        stage, reason = report.get("stage", "?"), report.get("reason", "?")
        return f"abort {stage}:{reason}"
    if int(report.get("key_length", "0")) <= 0:
        return "empty key"
    if report.get("alice_key_digest") != report.get("bob_key_digest"):
        return "alice and bob key digests differ"
    return None


def execute_op(cli, op: Op, out_dir: Path, seed: int | None, ref_dir: Path = REF_DIR) -> OpResult:
    """Run one op through ``cli.main`` and check its output.

    ``cli.main`` is looked up on the module at call time, so a traced run
    sees its wrapper.  The wall time covers only the ``cli.main`` call.
    """
    out_path = out_dir / (Path(op.scenario).stem + (".bin" if op.verb == "session" else ".out"))
    out_path.unlink(missing_ok=True)
    argv = [op.verb, "--scenario", str(op.path), "--out", str(out_path), "--jobs", "1"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    stdout = io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            status = cli.main(argv)
    except Exception:  # a crashing op is a failed op, not a crashed benchmark
        status, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
    wall = perf_counter() - t0

    report_bytes = stdout.getvalue().encode()
    file_bytes = out_path.read_bytes() if out_path.exists() else b""
    result = OpResult(
        verb=op.verb,
        scenario=op.scenario,
        seed=seed,
        wall_s=wall,
        ok=False,
        reason=error,
        output_digest=digest(report_bytes + b"\0" + file_bytes),
        output_bytes=len(report_bytes) + len(file_bytes),
    )
    if error is not None:
        return result
    if status != 0:
        result.reason = f"exit status {status}"
        return result
    if op.verb == "session":
        report = parse_report(stdout.getvalue())
        result.transcript_digest = digest(file_bytes)
        result.reason = check_session(report)
        if result.reason is None:
            result.rounds = int(report["n_rounds"])
            result.key_bits = int(report["key_length"])
    else:
        result.reason = check_reference(file_bytes, (ref_dir / op.ref_name).read_bytes())
        if result.reason is None:
            result.points = op.sweep_points
    result.ok = result.reason is None
    return result
