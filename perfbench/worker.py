"""One fresh, single-threaded process that runs a workload's operations.

    python3 perfbench/worker.py ref
    python3 perfbench/worker.py probe INPUTS
    python3 perfbench/worker.py run INPUTS OUTDIR CYCLES TRACED_CYCLES

``probe`` and ``run`` import hodoflow, build the program's inputs from the
case list in INPUTS and print ``ready``; ``probe`` then exits, which is how
``run.py`` times set-up.  ``ref`` imports only hodoflow's dependencies
(numpy, scipy.special, scipy.integrate) before it prints ``ready``: the
reference that set-up times are divided by.  ``run`` performs one untimed
warm-up operation, then CYCLES whole cycles through the cases, each
operation preceded by the reference (``ref_kernel``; ``ref_process`` for the
cli workload), then TRACED_CYCLES more with the spans of ``tracing.py``
installed.  It writes OUTDIR/result.json: per operation the wall time, the
kernel time and a digest of the output, and the first output of each case
for the checks.  No check runs here, so nothing but the operations sets the
peak RSS.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REGION_CODE = {"elliptic": 0, "parabolic": 1, "hyperbolic": 2}
FLAG_CODE = {"": 0, "node": 1, "density-singular": 2}


@dataclass(frozen=True)
class _KernelRecord:
    x: float
    y: float
    value: float
    region: str


def _kernel_series(a: float, b: float, z: float) -> tuple[float, float]:
    """Kummer-like series: terminating for a non-positive integer a, else to 1e-15."""
    term = acc = scale = 1.0
    for j in range(200):
        term *= (a + j) * z / ((b + j) * (j + 1))
        acc += term
        scale += abs(term)
        if abs(term) <= 1e-15 * abs(acc):
            break
    return acc, scale


def _kernel_point(rho: float, theta: float, params: dict) -> _KernelRecord:
    z = params["c"] * rho * rho
    m0, scale = _kernel_series(params["a"], params["b"], z)
    m1, _ = _kernel_series(params["a"] + 1.0, params["b"] + 1.0, z)
    core = {"m0": m0, "m1": m1, "g": 1.0 - rho * rho}
    if abs(core["m0"]) < 1e-300 * scale:
        raise ZeroDivisionError("node")
    c, s = math.cos(theta), math.sin(theta)
    x = core["m1"] * c - core["m0"] * s / rho
    y = core["m1"] * s + core["m0"] * c / rho
    return _KernelRecord(x, y, core["g"] * x * y, "elliptic" if rho < 1.0 else "hyperbolic")


def ref_kernel() -> int:
    """Fixed pure-Python work shaped like a scalar field sweep; no hodoflow code.

    Per point of three 16 x 16 grids: two Kummer-like series (terminating on
    the first grid, run to convergence on the others), a dict, a frozen
    dataclass and a list append, the mix of interpreter work that the
    program's scalar path does.  Its time tracks the host's speed.
    """
    out = []
    for params in ({"a": -6.0, "b": 3.5, "c": 1.0}, {"a": -1.2, "b": 6.9, "c": 2.5},
                   {"a": 2.3, "b": 1.7, "c": 4.0}):
        for i in range(16):
            rho = 0.3 + 0.09 * i
            for j in range(16):
                try:
                    out.append(_kernel_point(rho, -0.5 + 0.0625 * j, params))
                except ZeroDivisionError:
                    out.append(None)
    return len(out)


#: The reference for the cli workload, whose every operation is a fresh
#: interpreter that spends most of its time starting up and importing: a fresh
#: interpreter importing hodoflow's dependencies and no hodoflow code.  Over
#: eight cycles of the cli commands the per-cycle operation/reference ratio
#: ranged 1.08x against it, 1.38x against ref_kernel and 1.26x for raw times.
REF_PROCESS = (sys.executable, "-c", "import numpy, scipy.special, scipy.integrate")


def ref_process() -> int:
    return subprocess.run(REF_PROCESS, check=True).returncode


def build_solution(case: dict):
    """hodoflow objects for one sector case."""
    import hodoflow as h

    p = h.ModelParams(n=case["n"], ell=case["ell"])
    lam = case["lam"]
    if case["radial"] == "laguerre":
        k = case["k"]
        abar = (2.0 * (lam * lam - k * case["n"]) + case["ell"]) / case["n"]
        lc = h.LaguerreCase(lam=lam, k=k, n=case["n"], ell=case["ell"], alpha_bar=abar)
        sol = h.RadialSolution.from_laguerre_case(p, lc)
    else:
        kind = case["radial"]
        sol = h.RadialSolution.kummer(p, lam, branch=kind[-1], tricomi=kind.startswith("tricomi"))
    fac = h.AngularFactor(lam=lam, c1=case["fc1"], c2=case["fc2"])
    dom = h.SectorDomain(case["rho_min"], case["rho_max"], case["theta_min"], case["theta_max"])
    return p, sol, fac, dom


def fields_op(case: dict):
    from hodoflow import mapping

    p, sol, fac, dom = build_solution(case)
    grid = tuple(case["grid"])

    def op():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            samples = mapping.sample_fields(p, sol, fac, dom, grid)
        # only the fold warning is checked; any other warning is not an output
        return samples, any(issubclass(w.category, mapping.UnivalenceWarning) for w in caught)

    return op


def fields_output(result) -> tuple[list, str]:
    samples, warned = result
    rows = [
        [s.x, s.y, s.phi, s.vx, s.vy, s.speed, s.density, s.q_pot, s.u_pot, s.jac_inv,
         REGION_CODE[s.region.value], FLAG_CODE[s.flag]]
        for s in samples
    ]
    blob = json.dumps([rows, warned]).encode()
    return {"rows": rows, "warned": warned}, hashlib.sha256(blob).hexdigest()


def normalize_op(case: dict):
    from hodoflow import maxwell

    p, sol, fac, dom = build_solution(case)
    return lambda: maxwell.normalization_sector(p, sol, fac, dom)


def normalize_output(value) -> tuple[dict, str]:
    return {"value": value}, hashlib.sha256(repr(value).encode()).hexdigest()


class CliOp:
    """One command in a fresh interpreter, in a directory of its own."""

    def __init__(self, case: dict, outdir: Path):
        self.argv = case["argv"]
        self.cwd = outdir / "cli" / case["id"]
        self.cwd.mkdir(parents=True, exist_ok=True)
        self.spans_dir = outdir / "cli-spans"
        self.traced = False
        self.op_id = -1
        self.maxrss_kb = 0

    def __call__(self):
        if self.traced:
            self.spans_dir.mkdir(exist_ok=True)
            cmd = [sys.executable, str(HERE / "cli_launcher.py"),
                   str(self.spans_dir / f"op{self.op_id}"), *self.argv]
        else:
            cmd = [sys.executable, "-m", "hodoflow.cli", *self.argv]
        # wait4 gives this command's own peak RSS; the commands write at most a
        # warning line to stderr, so reading stdout first cannot block
        proc = subprocess.Popen(cmd, cwd=self.cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        with proc.stdout, proc.stderr:
            out, err = proc.stdout.read(), proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = max(self.maxrss_kb, usage.ru_maxrss)
        return proc.returncode, out, err

    def output(self, result) -> tuple[dict, str]:
        rc, out, err = result
        digest = hashlib.sha256(f"{rc}\n{out}".encode())
        files = sorted(p.name for p in self.cwd.iterdir())
        for name in files:
            digest.update(name.encode())
            digest.update((self.cwd / name).read_bytes())
        # the traced launcher prints nothing extra, so traced and untraced
        # commands give the same digest
        return {"returncode": rc, "stdout": out, "stderr": err, "files": files}, digest.hexdigest()


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "ref":
        import numpy, scipy.special, scipy.integrate  # noqa: E401, F401

        print("ready", flush=True)
        return 0
    inputs_path = Path(argv[1])
    inputs = json.loads(inputs_path.read_text())
    workload, cases = inputs["workload"], inputs["cases"]
    import hodoflow  # noqa: F401  (set-up includes the import)

    if workload in ("fields-laguerre", "fields-kummer"):
        ops = [fields_op(c) for c in cases]
        outputs = [fields_output] * len(cases)
    elif workload == "normalize":
        ops = [normalize_op(c) for c in cases]
        outputs = [normalize_output] * len(cases)
    else:
        outdir = Path(argv[2]) if mode == "run" else inputs_path.parent
        ops = [CliOp(c, outdir) for c in cases]
        outputs = [op.output for op in ops]
    print("ready", flush=True)
    if mode == "probe":
        return 0

    outdir, cycles, traced_cycles = Path(argv[2]), int(argv[3]), int(argv[4])
    reference = ref_process if workload == "cli" else ref_kernel
    ops[0]()  # warm-up, untimed
    records = []
    first = {}
    tracer = None
    clock = time.perf_counter
    for cycle in range(cycles + traced_cycles):
        if cycle == cycles and traced_cycles:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            for op in ops:
                if isinstance(op, CliOp):
                    op.traced = True
        for idx, op in enumerate(ops):
            op_id = len(records)
            if tracer is not None:
                tracer.op_id = op_id
                if isinstance(op, CliOp):
                    op.op_id = op_id
            t0 = clock()
            reference()
            t1 = clock()
            try:
                result = op()
                t2 = clock()
                payload, digest = outputs[idx](result)
            except Exception as exc:  # a failed operation is counted, not fatal
                records.append({"case": idx, "t": clock() - t1, "ref": t1 - t0, "traced": tracer is not None,
                                "error": f"{type(exc).__name__}: {exc}"})
                continue
            records.append({"case": idx, "t": t2 - t1, "ref": t1 - t0, "traced": tracer is not None,
                            "digest": digest, "error": None})
            first.setdefault(idx, payload)
    if workload == "cli":  # the operations ran in child processes
        maxrss_kb = max(op.maxrss_kb for op in ops)
    else:
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"ops": records, "first": {str(k): v for k, v in first.items()}, "maxrss_kb": maxrss_kb}
    if tracer is not None and workload != "cli":
        tracer.save(outdir / "spans.npz")
    (outdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
