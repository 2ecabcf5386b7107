"""Benchmark of the diqkd-lab CLI verbs, end to end and layer by layer.

Run from the root of a source checkout::

    python3 bench/run.py --workload characterise --seed 1 --seconds 60 --trace 0

``--trace 0`` reports end-to-end metrics from untraced cycles.  ``--trace 1``
alternates untraced and traced cycles and reports per-layer metrics and the
tracing overhead.  A full result file, with provenance, goes to
``bench/results/``; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import ROOT, SCENARIO_DIR, WORKLOADS, OpResult, execute_op, session_seed

NPROC = len(os.sched_getaffinity(0))
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS/OpenMP thread: a second one buys little on these ops, and on a
# few shared cores it makes every op wait for the slower of two threads.
BLAS_THREADS = 1
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"
SETUP_REPEATS = 5
# Median of time_reference() on an otherwise idle 2-vCPU shared host;
# setup_s is scaled to the host speed at which it takes this long.
REFERENCE_IDLE_S = 0.09
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import diqkd_lab.cli as cli; "
    "cli.parse_scenario_file(sys.argv[2])"
)

END_TO_END = (  # reported with --trace 0, gated by BENCHMARK.json
    ("setup_s", "s"),
    ("cycle_ref.p50", "ref"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (  # reported with --trace 1
    *((f"{layer}.self_s", "s") for layer in (
        "harness", "cli", "architectures", "photonics", "bellcert")),
    ("cli.main.self_s", "s"),
    ("cli.parse_scenario_file.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    *((f"{name}.self_pct", "%") for name in (
        "qstate.born_table",
        "bellcert.critical_efficiency",
        "bellcert.loophole_attack",
        "bellcert.minimize",
        "photonics.beamsplitter",
        "photonics.polarization_rotation",
        "photonics.loss_channel",
        "photonics.threshold_detect",
        "photonics.detection_probabilities",
        "photonics.tensor_modes",
        "photonics.bell_state_measurement",
        "photonics.qubit_amplifier",
        "photonics.polarization_correlation_table",
        "architectures.run.standard",
        "architectures.run.local_heralding",
        "architectures.run.third_party",
        "keyproto.simulate_rounds",
        "keyproto.sift",
        "keyproto.estimate",
        "keyproto.reconcile",
        "keyproto.privacy_amplify",
        "keyproto.run_session",
        "keyproto.serialize_transcript",
    )),
    *((name, "count") for name in (
        "qstate.born_table.calls",
        "bellcert.loophole_attack.calls",
        "bellcert.minimize.calls",
        "bellcert.minimize.nfev",
        "bellcert.bin_no_click.calls",
        "photonics.beamsplitter.calls",
        "photonics.polarization_rotation.calls",
        "photonics.loss_channel.calls",
        "photonics.threshold_detect.calls",
        "photonics.detection_probabilities.calls",
        "photonics.tensor_modes.calls",
        "photonics.bell_state_measurement.calls",
        "photonics.qubit_amplifier.calls",
        "photonics.polarization_correlation_table.calls",
        "photonics.branches_in.sum",
        "photonics.branches_out.max",
        "photonics.amplitudes_in.sum",
        "photonics.ModeState.count",
        "architectures.run.standard.calls",
        "architectures.run.local_heralding.calls",
        "architectures.run.third_party.calls",
        "keyproto.rounds",
        "keyproto.raw_bits",
        "keyproto.reconcile.messages",
        "keyproto.reconcile.leakage_bits",
        "keyproto.privacy_amplify.ops",
        "keyproto.key_bits",
    )),
    ("bellcert.attack.improved_frac", "fraction"),
    ("keyproto.reconcile.verified_frac", "fraction"),
    ("cli.output_bytes", "bytes"),
)


@dataclass
class Cycle:
    """One pass over the workload's ops."""

    index: int
    wall_s: float
    ops: list[OpResult]
    traced: bool = False
    # time_reference() before the first op and after each op; empty if not timed.
    reference_s: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.ops)

    @property
    def op_s(self) -> float:
        return sum(r.wall_s for r in self.ops)

    @property
    def op_ref(self) -> float | None:
        """Sum of op times, each divided by the mean reference time around it."""
        if not self.reference_s:
            return None
        ref = self.reference_s
        return sum(2.0 * r.wall_s / (ref[i] + ref[i + 1]) for i, r in enumerate(self.ops))


def p50_tail(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(samples)
    n = len(values)
    out = {"p50": statistics.median(values) if values else None, "tail": None, "tail_pct": None, "n": n}
    if n >= 11:
        out["tail"] = values[n - 11]
        out["tail_pct"] = 100.0 * (n - 10) / n
    return out


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "diqkd_lab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(workload, seed: int, seconds: float, trace: int, samples: dict) -> dict:
    import numpy
    import scipy

    ops = workload.ops
    return {
        "workload": workload.name,
        "workload_seed": seed,
        "run_seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": NPROC,
        "thread_caps": {var: os.environ[var] for var in THREAD_CAPS},
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "scenario_sha256": {op.scenario: file_sha256(op.path) for op in ops},
        "reference_sha256": {
            op.ref_name: file_sha256(ROOT / "bench" / "refs" / op.ref_name) for op in ops if op.ref_name
        },
        "samples": samples,
    }


def measure_setup(scenario: Path) -> tuple[list[float], list[float]]:
    """Fresh interpreter until ``diqkd_lab`` is imported and the scenario parsed.

    Returns the wall times, and the same times scaled by ``REFERENCE_IDLE_S``
    over the mean ``time_reference()`` before and after each, which cancels
    most of the host's speed drift.
    """
    walls, scaled = [], []
    before = time_reference()
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(scenario)],
            cwd=ROOT, check=True, capture_output=True,
        )
        wall = perf_counter() - t0
        after = time_reference()
        walls.append(wall)
        scaled.append(wall * 2.0 * REFERENCE_IDLE_S / (before + after))
        before = after
    return walls, scaled


def time_reference() -> float:
    """Wall seconds of a fixed computation that does not use ``diqkd_lab``.

    The speed of a shared host drifts by up to a factor of two (on 2 shared
    vCPUs one fixed op took from 0.38 s to 0.76 s within a minute), so a
    run's wall times depend on when it ran.  This computation mixes the kinds of
    work the workloads spend their time on (interpreter loops, numpy calls
    on small arrays, an integer convolution) and is timed next to every op,
    so that an op's time divided by it cancels most of that drift.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.standard_normal((8, 8))
    long_bits = rng.integers(0, 2, 20_000).astype(np.int64)
    short_bits = rng.integers(0, 2, 2_000).astype(np.int64)
    t0 = perf_counter()
    acc, table = 0.0, {}
    for i in range(200_000):
        acc += (i * 0.5) % 7.0
        table[i % 97] = acc
    for _ in range(8_000):
        acc += float(np.trace(small @ small))
    acc += float(np.convolve(long_bits, short_bits)[0])
    return perf_counter() - t0


def run_cycle(cli, workload, index: int, seed: int, tmp: Path, tracer=None, reference=False) -> Cycle:
    """One pass over the ops; with ``reference``, ``time_reference`` runs around each op."""
    session = session_seed(seed, index)
    results = []
    ref = [time_reference()] if reference else []
    t0 = perf_counter()
    for op in workload.ops:
        op_seed = session if op.verb == "session" else None
        if tracer is None:
            results.append(execute_op(cli, op, tmp, op_seed))
        else:
            with tracer.span("harness.op"):
                results.append(execute_op(cli, op, tmp, op_seed))
        if reference:
            ref.append(time_reference())
    return Cycle(index, perf_counter() - t0, results, traced=tracer is not None, reference_s=ref)


def run_traced_cycle(cli, workload, index: int, seed: int, tmp: Path, tracer) -> Cycle:
    tracer.cycle = index
    tracer.install()
    try:
        with tracer.span("harness.cycle"):
            cycle = run_cycle(cli, workload, index, seed, tmp, tracer)
    finally:
        tracer.uninstall()
    return cycle


def run_untraced(cli, workload, seed: int, seconds: float, tmp: Path) -> list[Cycle]:
    """Cycles back to back until the next one would end after ``seconds``.

    Cycle 0 warms up caches and the allocator and is not timed in the
    metrics, so at least two cycles run.
    """
    cycles: list[Cycle] = []
    start = perf_counter()
    while True:
        cycles.append(run_cycle(cli, workload, len(cycles), seed, tmp, reference=True))
        elapsed = perf_counter() - start
        if len(cycles) >= 2 and elapsed + statistics.median(c.wall_s for c in cycles) > seconds:
            return cycles


def run_paired(cli, workload, seed: int, seconds: float, tmp: Path, tracer) -> tuple[list[Cycle], list[str]]:
    """After an untraced warm-up cycle, alternate untraced and traced cycles.

    Each pair runs on the same inputs.  ``Tracer.uninstall`` raises if a
    wrapper is left before an untraced cycle.  Returns the cycles and every
    traced op whose output differs from its untraced twin.
    """
    start = perf_counter()
    cycles = [run_cycle(cli, workload, 0, seed, tmp)]
    problems: list[str] = []
    while True:
        index = (len(cycles) + 1) // 2
        plain = run_cycle(cli, workload, index, seed, tmp)
        traced = run_traced_cycle(cli, workload, index, seed, tmp, tracer)
        for u, t in zip(plain.ops, traced.ops):
            if t.ok and u.output_digest != t.output_digest:
                t.ok, t.reason = False, "traced output differs from untraced output"
                problems.append(f"cycle {index} {t.verb} {t.scenario}: {t.reason}")
        cycles += [plain, traced]
        elapsed = perf_counter() - start
        pair_s = statistics.median(p.wall_s + t.wall_s for p, t in zip(cycles[1::2], cycles[2::2]))
        if elapsed + pair_s > seconds:
            return cycles, problems


def end_to_end_metrics(cycles: list[Cycle], setup: list[float]) -> dict:
    """Metrics of the timed cycles (all but the warm-up cycle 0).

    ``fail_frac`` counts the ops of every cycle, the warm-up included.
    """
    all_ops = [r for c in cycles for r in c.ops]
    ops = [r for c in cycles[1:] for r in c.ops]
    passed = [r for r in ops if r.ok]
    m: dict = {"setup_s": statistics.median(setup), "first_cycle_s": cycles[0].op_s}
    for key, stats in p50_tail([c.op_s for c in cycles[1:] if c.ok]).items():
        m[f"cycle_s.{key}"] = stats
    for key, stats in p50_tail([c.op_ref for c in cycles[1:] if c.ok and c.reference_s]).items():
        m[f"cycle_ref.{key}"] = stats
    references = [t for c in cycles for t in c.reference_s]
    m["reference_s.p50"] = statistics.median(references) if references else None
    for verb in ("sweep", "threshold", "attack", "session"):
        for key, stats in p50_tail([r.wall_s for r in passed if r.verb == verb]).items():
            m[f"{verb}_s.{key}"] = stats

    def per_second(amount: str, verb: str):
        wall = sum(r.wall_s for r in ops if r.verb == verb)
        return sum(getattr(r, amount) for r in passed) / wall if wall else None

    m["points_per_s"] = per_second("points", "sweep")
    m["rounds_per_s"] = per_second("rounds", "session")
    m["key_bits_per_s"] = per_second("key_bits", "session")
    m["fail_frac"] = sum(not r.ok for r in all_ops) / len(all_ops)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_CAPS:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "diqkd_lab" / "__init__.py").is_file():
        print(f"error: no diqkd_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import diqkd_lab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: diqkd_lab imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    tmp = RESULTS / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    setup = setup_walls = None
    try:
        if args.trace == 0:
            start = perf_counter()  # set-up counts against --seconds
            setup_walls, setup = measure_setup(SCENARIO_DIR / workload.ops[0].scenario)
            cycles = run_untraced(cli, workload, args.seed, args.seconds - (perf_counter() - start), tmp)
            metrics = end_to_end_metrics(cycles, setup)
            metrics["setup_wall_s"] = statistics.median(setup_walls)
            problems: list[str] = []
            reported = END_TO_END
            samples = {"setup": len(setup), "cycles": len(cycles)}
        else:
            from tracing import Tracer

            tracer = Tracer()
            cycles, problems = run_paired(cli, workload, args.seed, args.seconds, tmp, tracer)
            pairs = list(zip(cycles[1::2], cycles[2::2]))
            plain = [u for u, _ in pairs]
            traced = [t for _, t in pairs]
            metrics = tracer.layer_metrics(len(traced))
            untraced_s = statistics.median(c.wall_s for c in plain)
            # Paired differences cancel machine-speed drift between pairs.
            overhead_s = statistics.median(t.wall_s - u.wall_s for u, t in pairs)
            metrics["trace.untraced_wall_s"] = untraced_s
            metrics["trace.overhead_s"] = overhead_s
            metrics["trace.overhead_pct"] = 100.0 * overhead_s / untraced_s
            metrics["cli.output_bytes"] = sum(r.output_bytes for c in traced for r in c.ops) / len(traced)
            if metrics["trace.self_sum_residual_s"] > 1e-6:
                problems.append("self times do not add up to the traced wall time")
            reported = PER_LAYER
            samples = {"untraced_cycles": len(plain), "traced_cycles": len(traced), "spans": len(tracer.spans)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ops = [r for c in cycles for r in c.ops]
    for verb in ("sweep", "threshold", "attack", "session"):
        samples[f"{verb}_ops"] = sum(r.verb == verb for r in ops)
    failed = sum(not r.ok for r in ops)
    abort_reasons = Counter(r.reason for r in ops if not r.ok)

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    result = {
        "provenance": provenance(workload, args.seed, args.seconds, args.trace, samples),
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "failure_reasons": abort_reasons,
        "trace_problems": problems,
        "metrics": metrics,
        "setup_samples_s": setup_walls,
        "setup_scaled_samples_s": setup,
        "cycles": [
            {
                "index": c.index, "traced": c.traced, "wall_s": c.wall_s,
                "reference_s": c.reference_s, "ops": [asdict(r) for r in c.ops],
            }
            for c in cycles
        ],
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace == 1:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(tracer.spans) + "\n")

    for name, value in metrics.items():
        print(f"{name:48s} {value}")
    for reason, count in abort_reasons.items():
        print(f"failed {count}x: {reason}")
    for problem in problems:
        print(f"trace problem: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
