"""Repeat benchmark runs and report each metric's median and spread.

    python3 perfbench/spread.py --runs 10 --seconds 10 [--workloads np-round ...]
                                [--trace 0|1]

Runs ``perfbench/run.py`` once per seed 1 .. ``runs`` for each workload, one
run at a time, and prints per metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (third minus first
quartile, as a share of the median), plus each run's own elapsed time.
With ``--trace 1`` it also reports ``traced.wall_s``, the traced run's
``wall_s`` from its trace file, whose difference from the untraced
``wall_s`` is the tracing overhead.  The raw reports go to
``.perfbench_out/spread-<stamp>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("np-round", "interval-lp", "chain-cg")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["elapsed_s"] = elapsed
    if trace:
        trace_file = Path(".perfbench_out") / f"trace-{workload}-seed{seed}.jsonl"
        header = json.loads(trace_file.read_text().splitlines()[0])
        report["metrics"]["traced.wall_s"] = {"value": header["wall_s"], "unit": "s"}
    return report


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results = {}
    for workload in args.workloads:
        reports = []
        for seed in range(1, args.runs + 1):
            report = run_once(workload, seed, args.seconds, args.trace)
            reports.append(report)
            print(f"{workload} seed {seed}: {report['elapsed_s']:.1f} s, "
                  f"attempted {report['attempted']}, failed {report['failed']}", file=sys.stderr)
        results[workload] = reports
        names = list(reports[0]["metrics"])
        print(f"\n{workload} ({args.runs} runs, seeds 1..{args.runs})")
        print(f"{'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}")
        for name in names + ["elapsed_s"]:
            if name == "elapsed_s":
                values = [r["elapsed_s"] for r in reports]
            else:
                values = [r["metrics"][name]["value"] for r in reports]
            s = summarise(values)
            print(f"{name:28s} {s['median']:14.6g} {s['q1']:14.6g} {s['q3']:14.6g} {100 * s['spread']:7.2f}%")
        shares = {r["failed"] / r["attempted"] for r in reports}
        print(f"failed share: {sorted(shares)}; correct: {all(r['correct'] for r in reports)}")

    out = Path(".perfbench_out")
    out.mkdir(exist_ok=True)
    path = out / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nraw reports: {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
