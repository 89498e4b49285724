"""Run the benchmark many times and report the spread of every metric.

    python3 perfbench/spread.py [--runs 10] [--sets 2] [--trace 0|1] [--first-seed 1]

Run from the root of a checkout.  Each round runs every workload once per
set, for BENCHMARK.json's ``run_seconds``, with a new seed per run, and
alternates which set goes first, as two commits are compared.  For each workload, set and metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median``, then the ratio of the two sets' medians.
Every run's report is kept in ``perfbench/results/spread.json``; this is the
command that makes the reference figures of README.md anew.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
sys.path.insert(0, str(HERE))

import cases  # noqa: E402


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2, choices=(1, 2))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    reports = {w: [[] for _ in range(args.sets)] for w in cases.WORKLOADS}
    for i in range(args.runs):
        order = list(range(args.sets)) if i % 2 == 0 else list(range(args.sets))[::-1]
        for s in order:
            for w in cases.WORKLOADS:
                seed = args.first_seed + i + 1000 * s
                report = one_run(w, seed, RUN_SECONDS, args.trace)
                details = json.loads((HERE / "results" / f"{w}-seed{seed}-trace{args.trace}"
                                      / "metrics.json").read_text())["details"]
                reports[w][s].append({"seed": seed, "host_ref_kernel_s": details["host_ref_kernel_s"],
                                      "op_p50_s": details["op_p50_s"], "setup_raw_s": details["setup_raw_s"],
                                      **report})
                print(f"{w} set {s} seed {seed}: failed {report['failed']}/{report['attempted']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in report["metrics"].items()),
                      file=sys.stderr, flush=True)
    out = HERE / "results" / "spread.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(reports, indent=1))

    print(f"{'workload':16s} {'metric':36s} set {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
    for w, sets in reports.items():
        # op_p50_s and the raw set-up time are not gated; their spreads are printed to show why
        metrics = list(sets[0][0]["metrics"]) + (["op_p50_s", "setup_raw_s"] if args.trace == 0 else [])
        for m in metrics:
            meds = []
            for s, runs in enumerate(sets):
                med, q1, q3, spread = summary([r["metrics"][m]["value"] if m in r["metrics"] else r[m]
                                               for r in runs])
                meds.append(med)
                print(f"{w:16s} {m:36s} {s:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.4f}")
            if len(meds) == 2:
                print(f"{w:16s} {m:36s} set 1 / set 0 median: {meds[1] / meds[0]:.4f}")
        for s, runs in enumerate(sets):
            shares = {r["failed"] / r["attempted"] for r in runs}
            print(f"{w:16s} failed share, set {s}: {sorted(shares)}")
        # host drift: max/min over all runs of the kernel time, the raw
        # operation median and set-up time, and their reference ratios
        runs = [r for rs in sets for r in rs]
        ranges = []
        for key, get in (("host_ref_kernel_s", lambda r: r["host_ref_kernel_s"]),
                         ("op_p50_s", lambda r: r["op_p50_s"]),
                         ("op_p50_ref", lambda r: r["metrics"].get("op_p50_ref", {}).get("value")),
                         ("setup_raw_s", lambda r: r["setup_raw_s"]),
                         ("setup_s", lambda r: r["metrics"].get("setup_s", {}).get("value"))):
            vals = [get(r) for r in runs if get(r)]
            if vals:
                ranges.append(f"{key} {max(vals) / min(vals):.3f}x")
        print(f"{w:16s} max/min over all runs: " + ", ".join(ranges))
    return 0


if __name__ == "__main__":
    sys.exit(main())
