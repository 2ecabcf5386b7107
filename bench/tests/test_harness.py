"""The benchmark's own checks must count real faults as failed ops.

Run from the repository root::

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import diqkd_lab.cli as cli  # noqa: E402
import pytest  # noqa: E402
from run import Cycle, end_to_end_metrics, p50_tail  # noqa: E402
from tracing import Tracer, leftover_wrappers  # noqa: E402
from workloads import REF_DIR, WORKLOADS, Op, execute_op  # noqa: E402

STANDARD_SWEEP = Op("sweep", "standard_sweep.json")
SESSION_CLEAN = WORKLOADS["session-clean"].ops[0]


def tally(result):
    """End-to-end metrics of a run whose warm-up and timed cycle are this op."""
    cycles = [Cycle(i, result.wall_s, [result]) for i in range(2)]
    return end_to_end_metrics(cycles, setup=[1.0])


def assert_counted_failed(result):
    assert not result.ok
    metrics = tally(result)
    assert metrics["fail_frac"] == 1.0
    assert metrics["cycle_s.n"] == 0
    assert metrics[f"{result.verb}_s.n"] == 0
    assert metrics[f"{result.verb}_s.p50"] is None


def rewriting_cli(rewrite):
    """A ``cli`` whose ``main`` runs the real command and rewrites its report."""

    def main(argv):
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            status = cli.main(argv)
        sys.stdout.write(rewrite(report.getvalue()))
        return status

    return SimpleNamespace(main=main)


def test_sweep_matches_reference(tmp_path):
    result = execute_op(cli, STANDARD_SWEEP, tmp_path, None)
    assert result.ok, result.reason
    assert result.points == 21
    metrics = tally(result)
    assert metrics["fail_frac"] == 0.0
    assert metrics["sweep_s.n"] == metrics["cycle_s.n"] == 1
    assert metrics["points_per_s"] == 21 / result.wall_s


def test_sweep_with_one_digit_changed_fails(tmp_path):
    refs = tmp_path / "refs"
    shutil.copytree(REF_DIR, refs)
    ref = refs / STANDARD_SWEEP.ref_name
    lines = ref.read_text().splitlines(keepends=True)
    lines[5] = re.sub(r"\d", lambda m: str((int(m.group()) + 1) % 10), lines[5], count=1)
    ref.write_text("".join(lines))
    result = execute_op(cli, STANDARD_SWEEP, tmp_path, None, ref_dir=refs)
    assert result.reason == "differs from reference at line 6"
    assert result.points == 0
    assert_counted_failed(result)


def test_session_with_differing_key_digests_fails(tmp_path):
    def flip_bob_digest(report):
        return re.sub(
            r"(bob_key_digest=)(\w)",
            lambda m: m.group(1) + ("1" if m.group(2) == "0" else "0"),
            report,
        )

    honest = execute_op(cli, SESSION_CLEAN, tmp_path, 7)
    assert honest.ok, honest.reason
    result = execute_op(rewriting_cli(flip_bob_digest), SESSION_CLEAN, tmp_path, 7)
    assert result.reason == "alice and bob key digests differ"
    assert result.transcript_digest == honest.transcript_digest
    assert_counted_failed(result)


def test_aborted_session_fails(tmp_path):
    scenario = tmp_path / "short_session.json"
    scenario.write_text(json.dumps({"rounds": 10_000}))
    result = execute_op(cli, Op("session", str(scenario)), tmp_path, 7)
    assert result.reason == "abort estimation:insufficient-violation"
    assert result.rounds == 0 and result.key_bits == 0
    assert_counted_failed(result)


def test_crashing_op_counts_as_failed(tmp_path):
    def crash(argv):
        raise RuntimeError("boom")

    result = execute_op(SimpleNamespace(main=crash), STANDARD_SWEEP, tmp_path, None)
    assert "RuntimeError: boom" in result.reason
    assert_counted_failed(result)


def test_tracing_keeps_outputs_and_is_removed(tmp_path):
    plain = execute_op(cli, STANDARD_SWEEP, tmp_path, None)
    tracer = Tracer()
    tracer.install()
    assert leftover_wrappers()
    try:
        with tracer.span("harness.cycle"):
            traced = execute_op(cli, STANDARD_SWEEP, tmp_path, None)
    finally:
        tracer.uninstall()
    assert leftover_wrappers() == []
    assert traced.ok and traced.output_digest == plain.output_digest
    metrics = tracer.layer_metrics(1)
    assert metrics["architectures.run.standard.calls"] == 21
    assert metrics["cli.main.calls"] == 1
    assert metrics["trace.self_sum_residual_s"] < 1e-9


def test_tail_needs_ten_samples_beyond_it():
    assert p50_tail([1.0] * 10)["tail"] is None
    stats = p50_tail([float(v) for v in range(20)])
    assert stats["tail"] == 9.0 and stats["tail_pct"] == pytest.approx(50.0)
    assert stats["p50"] == 9.5 and stats["n"] == 20


def test_cycle_ref_divides_each_op_by_the_reference_around_it():
    ops = [
        SimpleNamespace(verb="attack", wall_s=wall, ok=True, points=0, rounds=0, key_bits=0)
        for wall in (1.0, 3.0)
    ]
    cycle = Cycle(1, 4.0, ops, reference_s=[0.1, 0.3, 0.3])
    assert cycle.op_ref == pytest.approx(1.0 / 0.2 + 3.0 / 0.3)
    assert Cycle(1, 4.0, ops).op_ref is None
    metrics = end_to_end_metrics([Cycle(0, 4.0, ops, reference_s=[0.2] * 3), cycle], setup=[1.0])
    assert metrics["cycle_ref.p50"] == pytest.approx(15.0)
    assert metrics["reference_s.p50"] == pytest.approx(0.2)
