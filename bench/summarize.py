"""Summarize benchmark result files across runs.

    python3 bench/summarize.py [RESULT.json ...]

With no arguments it reads every file in ``bench/results/``.  Per workload
it prints, for each end-to-end metric of ``BENCHMARK.json``, the median of
the runs and the spread between the first and third quartile as a share of
the median, next to the metric's bound.  It then pools the passed ops of
all runs to give each verb's median and tail latency with the tail's
percentile and sample count, and reports the tracing overhead of traced
runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import RESULTS, p50_tail
from workloads import ROOT


def main(paths: list[str]) -> int:
    files = [Path(p) for p in paths] or sorted(RESULTS.glob("*-trace[01].json"))
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in files:
        result = json.loads(path.read_text())
        runs[result["provenance"]["workload"]].append(result)

    for workload, results in sorted(runs.items()):
        plain = [r for r in results if r["provenance"]["trace"] == 0]
        traced = [r for r in results if r["provenance"]["trace"] == 1]
        print(f"== {workload}: {len(plain)} untraced runs, {len(traced)} traced runs")
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in plain if r["metrics"].get(name) is not None]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {name:16s} median {med:11.4f}  spread {spread:6.3f}  bound {bound}  {flag}")
        ops = [op for r in plain for c in r["cycles"] for op in c["ops"]]
        for verb in ("sweep", "threshold", "attack", "session"):
            samples = [op["wall_s"] for op in ops if op["verb"] == verb and op["ok"]]
            if samples:
                s = p50_tail(samples)
                tail = "n/a" if s["tail"] is None else f"{s['tail']:.4f} (p{s['tail_pct']:.1f})"
                print(f"  {verb}_s pooled: p50 {s['p50']:.4f}  tail {tail}  n {s['n']}")
        failed = [op for op in ops if not op["ok"]]
        if ops:
            print(f"  fail_frac pooled: {len(failed) / len(ops):.3f} of {len(ops)} ops")
        for reason in sorted({op["reason"] for op in failed}):
            print(f"    reason: {reason}")
        if traced:
            overhead = statistics.median(r["metrics"]["trace.overhead_s"] for r in traced)
            untraced = statistics.median(r["metrics"]["trace.untraced_wall_s"] for r in traced)
            print(f"  tracing overhead: {overhead:+.4f} s per cycle on {untraced:.4f} s untraced")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
