"""hodoflow benchmark: per-operation medians on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``.
Workloads: fields-laguerre, fields-kummer, normalize, cli (see README.md).

Each run makes its inputs from the seed, times set-up in several fresh
interpreters, then runs ``round(S / nominal cycle)`` whole cycles (at least
one, so ``--seconds 0`` is the quick mode) of the workload's operations in
one fresh single-threaded worker process, and checks every output against
the independent references in ``reference.py``.  With ``--trace 1`` half of
those cycles run untraced and an eighth more run with spans around the
program's public functions, and the per-layer metrics are printed instead
of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Human-readable
detail goes to standard error and to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cases  # noqa: E402

SETUP_SAMPLES = 5
#: Median start-up time of ``worker.py ref`` on the host of README.md's
#: figures.  Each set-up time is divided by the reference start-up timed
#: right before it and multiplied by this, so that ``setup_s`` reads in
#: seconds of that host and the host's speed drift cancels (README.md,
#: "Host drift").
REF_START_NOMINAL_S = 0.8
DEADLINE_S = 170.0

#: Metrics of the traced run, per operation (the names in BENCHMARK.json).
PER_LAYER = (
    "specfun.kummer_m.calls", "specfun.kummer_m.self_s", "specfun.kummer_m_scaled.calls",
    "specfun.kummer_logderiv.calls", "specfun.tricomi_psi.calls", "specfun.tricomi_psi.self_s",
    "specfun.gamma.calls", "specfun.series_per_point",
    "momentum.radial_value_slope.calls", "momentum.radial_value_slope.self_s", "momentum.factorized_u.calls",
    "mapping.forward_map.calls", "mapping.forward_map.self_s", "mapping.script_R.calls",
    "mapping.sample_fields.self_s", "mapping.invert_map.calls", "mapping.invert_map.self_s",
    "mapping.map_differential.calls",
    "potentials.quantum_potential.calls", "potentials.quantum_potential.self_s",
    "potentials.classical_potential.calls",
    "maxwell.density_F.calls", "maxwell.coeff_g.calls", "maxwell.normalization_sector.self_s",
    "verify.quad2d_polar.self_s", "verify.integrand_calls",
    "suites.run_suite.self_s",
    "cli.main.self_s", "cli.startup_s",
    "import.hodoflow_s", "import.scipy_special_s", "import.scipy_integrate_s",
    "host.ref_kernel_s", "trace.overhead_s",
)
#: The gated metrics.  The raw median operation time (op_p50_s) is printed to
#: standard error and kept in metrics.json only: the host's speed drifts too
#: much between runs for it to be compared within a bound.
END_TO_END = {"setup_s": "s", "op_p50_ref": "ref", "peak_rss_mb": "MB"}


def worker_env(src: Path) -> dict:
    env = dict(os.environ)
    # an installed hodoflow runs from cached bytecode; let the checkout's
    # src/ get its __pycache__ too, so no operation pays for compiling
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


class Worker:
    """A worker process whose start-up is timed until it prints ``ready``."""

    def __init__(self, args: list[str], env: dict, cwd: Path, deadline: float):
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                                     stdout=subprocess.PIPE, env=env, cwd=cwd, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            self.close()
            raise RuntimeError(f"worker did not start (exit code {self.proc.returncode})")

    def finish(self) -> None:
        try:
            self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        finally:
            self.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def ref_start_s(env: dict, cwd: Path, deadline: float) -> float:
    """Start-up time of a fresh interpreter that imports hodoflow's dependencies only."""
    w = Worker(["ref"], env, cwd, deadline)
    w.finish()
    return w.setup_s


def import_times(env: dict, cwd: Path) -> dict:
    """Cumulative import seconds from ``python -X importtime -c 'import hodoflow'``.

    A package that scipy loads lazily (``scipy.integrate``) has no line of its
    own, so a prefix is charged with the summed cumulative times of its
    shallowest lines.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hodoflow"],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=60, check=True)
    lines = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
        if m:
            lines.append((len(m.group(2)), m.group(3), int(m.group(1)) * 1e-6))

    def cumulative(prefix: str) -> float:
        hits = [(depth, t) for depth, name, t in lines if name == prefix or name.startswith(prefix + ".")]
        top = min(depth for depth, _ in hits)
        return sum(t for depth, t in hits if depth == top)

    return {
        "import.hodoflow_s": cumulative("hodoflow"),
        "import.scipy_special_s": cumulative("scipy.special"),
        "import.scipy_integrate_s": cumulative("scipy.integrate"),
    }


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def case_medians(records: list[dict], key) -> dict:
    by_case: dict[int, list[float]] = {}
    for r in records:
        by_case.setdefault(r["case"], []).append(key(r))
    return {c: statistics.median(v) for c, v in sorted(by_case.items())}


def check_outputs(workload: str, case_list: list, result: dict, run_dir: Path) -> tuple[dict, dict]:
    """Problems per case (checked on its first output) and the reference digest per case.

    A check that raises (a missing file, an unreadable table) is a problem of
    that case, so a faulty output fails its operations and not the run.
    """
    import checks

    problems, digests = {}, {}
    for r in result["ops"]:
        if r["error"] is None:
            digests.setdefault(r["case"], r["digest"])
    for key, payload in result["first"].items():
        idx = int(key)
        case = case_list[idx]
        try:
            if workload == "normalize":
                found = checks.normalize_problems(case, payload["value"])
            elif workload == "cli":
                found = checks.cli_problems(case, payload, run_dir / "cli")
            else:
                found = checks.fields_problems(case, checks.fields_table(payload["rows"]), payload["warned"])
        except Exception as exc:
            found = [f"the check raised {type(exc).__name__}: {exc}"]
        problems[idx] = found
    return problems, digests


def trace_metrics(workload: str, case_list: list, result: dict, run_dir: Path, traced: list) -> dict:
    import numpy as np

    import tracing

    if workload == "cli":
        total = None
        startup = []
        for r in traced:
            spans = dict(np.load(run_dir / "cli-spans" / f"op{r['op_id']}.npz"))
            summary = tracing.summarize(spans)
            startup.append(r["t"] - summary["cli.main"]["incl_s"])
            total = summary if total is None else _add(total, summary)
    else:
        total = tracing.summarize(dict(np.load(run_dir / "spans.npz")))
        startup = [0.0]
    n_ops = len(traced)
    out = {}
    for name in tracing.NAMES:
        out[f"{name}.calls"] = total[name]["calls"] / n_ops
        out[f"{name}.self_s"] = total[name]["self_s"] / n_ops
    series = total["specfun.kummer_m"]["calls"] + total["specfun.kummer_m_scaled"]["calls"]
    if workload.startswith("fields"):
        points = sum(math.prod(case_list[r["case"]]["grid"]) for r in traced)
    else:
        points = total["mapping.forward_map"]["calls"]
    out["specfun.series_per_point"] = series / points if points else 0.0
    norms = total["maxwell.normalization_sector"]["calls"]
    out["verify.integrand_calls"] = total["integrand_calls"] / norms if norms else 0.0
    out["cli.startup_s"] = statistics.mean(startup)
    return out


def _add(a: dict, b: dict) -> dict:
    out = {}
    for key, value in a.items():
        if isinstance(value, dict):
            out[key] = {k: v + b[key][k] for k, v in value.items()}
        else:
            out[key] = value + b[key]
    return out


def per_case_series(case_list: list, run_dir: Path, traced: list) -> dict:
    """(kummer_m + kummer_m_scaled) calls per grid point, per fields case."""
    import numpy as np

    import tracing

    spans = dict(np.load(run_dir / "spans.npz"))
    codes = [tracing.NAMES.index("specfun.kummer_m"), tracing.NAMES.index("specfun.kummer_m_scaled")]
    is_series = np.isin(spans["name"], codes)
    out = {}
    for r in traced:
        op_id = r["op_id"]
        calls = int(np.sum(is_series & (spans["op"] == op_id)))
        case = case_list[r["case"]]
        out.setdefault(case["id"], calls / math.prod(case["grid"]))
    return out


def run(args) -> dict:
    root = Path.cwd()
    src = root / "src"
    if not (src / "hodoflow" / "__init__.py").is_file():
        raise FileNotFoundError(f"no hodoflow sources under {src}; run from the root of a checkout")
    deadline = time.monotonic() + DEADLINE_S
    case_list = cases.make_cases(args.workload, args.seed)
    cycles = cases.cycles_for(args.workload, args.seconds)
    untraced, traced_cycles = (max(1, cycles // 2), max(1, cycles // 8)) if args.trace else (cycles, 0)

    run_dir = HERE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs = run_dir / "inputs.json"
    inputs.write_text(json.dumps({"workload": args.workload, "cases": case_list}, indent=1))
    env = worker_env(src)

    # (set-up time, reference start-up time right before it); the traced run
    # reports no set-up time and takes no reference
    setup = []
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        ref = ref_start_s(env, root, deadline)
        w = Worker(["probe", str(inputs)], env, root, deadline)
        w.finish()
        setup.append((w.setup_s, ref))
    ref = 0.0 if args.trace else ref_start_s(env, root, deadline)
    w = Worker(["run", str(inputs), str(run_dir), str(untraced), str(traced_cycles)], env, root, deadline)
    setup.append((w.setup_s, ref))
    w.finish()
    result = json.loads((run_dir / "result.json").read_text())
    for i, r in enumerate(result["ops"]):
        r["op_id"] = i

    problems, digests = check_outputs(args.workload, case_list, result, run_dir)
    failed_ops = []
    for r in result["ops"]:
        if r["error"] is not None:
            failed_ops.append(f"{case_list[r['case']]['id']}: {r['error']}")
        elif problems.get(r["case"]) or r["digest"] != digests[r["case"]]:
            failed_ops.append(f"{case_list[r['case']]['id']}: " + "; ".join(
                problems.get(r["case"]) or ["output differs from the case's first output"]))
    ok = [r for r in result["ops"] if r["error"] is None and not problems.get(r["case"])
          and r["digest"] == digests[r["case"]]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    details = {
        "workload": args.workload, "seed": args.seed, "cycles": untraced, "traced_cycles": traced_cycles,
        "setup_samples_s": [s for s, _ in setup], "setup_ref_start_s": [r for _, r in setup],
        "setup_raw_s": statistics.median(s for s, _ in setup), "failures": failed_ops,
    }
    values, units = {}, {}
    if plain and (traced or not args.trace):  # else every operation failed: nothing to measure
        op_s = geomean(list(case_medians(plain, lambda r: r["t"]).values()))
        ref_s = statistics.median(r["ref"] for r in plain)
        details.update(op_p50_s=op_s, host_ref_kernel_s=ref_s, case_median_s={
            case_list[c]["id"]: v for c, v in case_medians(plain, lambda r: r["t"]).items()})
        if args.trace:
            values = trace_metrics(args.workload, case_list, result, run_dir, traced)
            values.update(import_times(env, root))
            values["host.ref_kernel_s"] = ref_s
            values["trace.overhead_s"] = geomean(list(case_medians(traced, lambda r: r["t"]).values())) - op_s
            values = {name: values[name] for name in PER_LAYER}
            units = {name: ("count" if name.endswith((".calls", "series_per_point", "integrand_calls")) else "s")
                     for name in values}
            if args.workload.startswith("fields"):
                for cid, spp in per_case_series(case_list, run_dir, traced).items():
                    print(f"  series per point, {cid}: {spp:g}", file=sys.stderr)
        else:
            values = {
                "setup_s": statistics.median(s / r for s, r in setup) * REF_START_NOMINAL_S,
                "op_p50_ref": geomean(list(case_medians(plain, lambda r: r["t"] / r["ref"]).values())),
                "peak_rss_mb": result["maxrss_kb"] / 1024.0,
            }
            units = END_TO_END
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    report = {
        "correct": not failed_ops,
        "attempted": len(result["ops"]),
        "failed": len(failed_ops),
        "metrics": metrics,
    }
    (run_dir / "metrics.json").write_text(json.dumps({"report": report, "details": details}, indent=1))
    for name in ("result.json", "cli"):
        path = run_dir / name
        shutil.rmtree(path) if path.is_dir() else path.unlink(missing_ok=True)
    for line in failed_ops[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    if metrics and not args.trace:
        print(f"  op_p50_s (not gated)                     {details['op_p50_s']:.6g} s", file=sys.stderr)
        print(f"  set-up, raw median (not gated)           {details['setup_raw_s']:.6g} s", file=sys.stderr)
        print(f"  host.ref_kernel_s (median kernel time)   {details['host_ref_kernel_s']:.6g} s", file=sys.stderr)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = run(args)
    except (OSError, RuntimeError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
