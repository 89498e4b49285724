"""Checks of the program's outputs against ``reference.py`` and against
properties the method must have.  Each check returns a list of problems;
an empty list means the output passed.  No check compares with a stored copy
of an earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import reference

#: Agreement of x, y, Phi and the inverse Jacobian with the reference, as a
#: share of the largest reference magnitude on the same rho row.
MAP_TOL = 1e-9
#: Agreement of the closed-form quantum potential with the finite-difference one.
Q_FD_TOL = 1e-4
#: Agreement of a sector normalization with the fold-split reference.
NORM_TOL = 5e-9
#: Points per output at which the quantum potential is checked by finite differences.
FD_POINTS = 3

COLUMNS = ("x", "y", "phi", "vx", "vy", "speed", "density", "q_pot", "u_pot", "jac_inv")
REGIONS = ("elliptic", "parabolic", "hyperbolic")


def fields_table(rows: list) -> dict:
    """Columns of a ``sample_fields`` output as arrays (``worker.fields_output`` order)."""
    arr = np.asarray(rows, dtype=float).reshape(-1, len(COLUMNS) + 2)
    table = {name: arr[:, i] for i, name in enumerate(COLUMNS)}
    table["region"] = arr[:, len(COLUMNS)].astype(int)
    table["flagged"] = arr[:, len(COLUMNS) + 1] != 0
    return table


def read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and body rows of a CSV the program writes, without its ``#`` comment lines."""
    rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    return rows[0], rows[1:]


def csv_table(text: str) -> dict:
    """Columns of a ``map-fields`` CSV; flagged rows are the ones with NaN potentials."""
    header, body = read_csv(text)
    if tuple(header) != COLUMNS + ("region",):
        raise ValueError(f"unexpected CSV header {header}")
    table = {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(COLUMNS)}
    table["region"] = np.array([REGIONS.index(r[-1]) for r in body], dtype=int)
    table["flagged"] = np.isnan(table["q_pot"])
    return table


def _rowwise(problems: list, name: str, got, want, shape, scale=None) -> None:
    got, want = np.reshape(got, shape), np.reshape(want, shape)
    if scale is None:
        scale = np.max(np.abs(want), axis=1, keepdims=True)
    err = np.abs(got - want) / scale
    bad = ~(err <= MAP_TOL)
    if bad.any():
        problems.append(f"{name}: {int(bad.sum())} points off the reference, worst {np.nanmax(err):.3e}"
                        f" of the row scale (tolerance {MAP_TOL:g})")


def fields_problems(case: dict, table: dict, warned: bool | None = None) -> list[str]:
    """Check one field grid (``sample_fields`` or a ``map-fields`` CSV)."""
    n_rho, n_theta = case["grid"]
    size = len(table["x"])
    if size != n_rho * n_theta:
        return [f"{size} rows, expected {n_rho * n_theta}"]
    sol = reference.Solution(case)
    rho = np.repeat(np.linspace(case["rho_min"], case["rho_max"], n_rho), n_theta)
    theta = np.tile(np.linspace(case["theta_min"], case["theta_max"], n_theta), n_rho)
    ref = reference.map_fields(sol, rho, theta)
    shape = (n_rho, n_theta)
    problems: list[str] = []

    xy_scale = np.max(np.hypot(ref["x"], ref["y"]).reshape(shape), axis=1, keepdims=True)
    _rowwise(problems, "x", table["x"], ref["x"], shape, xy_scale)
    _rowwise(problems, "y", table["y"], ref["y"], shape, xy_scale)
    _rowwise(problems, "phi", table["phi"], ref["phi"], shape)
    _rowwise(problems, "jac_inv", table["jac_inv"], ref["jac_inv"], shape)

    speed = abs(reference.ALPHA) * rho
    if not np.all(np.abs(table["speed"] - speed) <= 1e-13 * speed):
        problems.append("speed differs from |alpha| rho")
    v_err = np.hypot(table["vx"] + reference.ALPHA * rho * np.cos(theta),
                     table["vy"] + reference.ALPHA * rho * np.sin(theta))
    if not np.all(v_err <= 1e-13 * speed):
        problems.append("velocity differs from -alpha rho (cos theta, sin theta)")
    dens = reference.density(sol.n, sol.ell, speed)
    if not np.all(np.abs(table["density"] - dens) <= 1e-12 * dens):
        problems.append("density differs from the closed form of F")
    region = np.where(rho < reference.RHO_T * (1 - 1e-12), 0,
                      np.where(rho > reference.RHO_T * (1 + 1e-12), 2, 1))
    if not np.array_equal(table["region"], region):
        problems.append("region does not follow from rho against rho_T")

    vanish = (np.abs(ref["theta_val"]) <= 1e-12 * (abs(sol.c1) + abs(sol.c2))) | (
        np.abs(ref["T"]) <= 1e-12 * np.max(np.abs(ref["T"])))
    if not np.array_equal(table["flagged"], vanish):
        problems.append(f"{int(np.sum(table['flagged'] != vanish))} points flagged where u and Theta "
                        "do not vanish, or not flagged where they do")
    flagged = table["flagged"]
    if not np.all(np.isnan(table["q_pot"][flagged]) & np.isnan(table["u_pot"][flagged])):
        problems.append("flagged points carry finite potentials")
    q, u = table["q_pot"][~flagged], table["u_pot"][~flagged]
    kinetic = reference.ALPHA * rho[~flagged] ** 2 / (4.0 * reference.BETA)
    if not np.all(np.abs(u - (kinetic - q)) <= 1e-12 * np.maximum(np.abs(q), np.abs(kinetic))):
        problems.append("u_pot differs from alpha rho^2 / (4 beta) - q_pot")

    if warned is not None:
        jac = ref["jac_inv"]
        spans_fold = bool(np.any(jac > 0) and np.any(jac < 0))
        if warned != spans_fold:
            problems.append(f"fold warning {'given' if warned else 'missing'}; the reference "
                            f"inverse Jacobian {'changes' if spans_fold else 'keeps'} sign")

    for i in _fd_points(ref, flagged, shape):
        fd = reference.bohm_potential_fd(sol, float(rho[i]), float(theta[i]))
        got = float(table["q_pot"][i])
        if not abs(got - fd) <= Q_FD_TOL * max(abs(got), abs(fd)):
            problems.append(f"q_pot {got:.10g} at (rho, theta) = ({rho[i]:.6g}, {theta[i]:.6g}) differs "
                            f"from the finite-difference Bohm potential {fd:.10g}")
    return problems


def _fd_points(ref: dict, flagged, shape) -> list[int]:
    """Interior points well away from folds and nodal lines, spread over the grid."""
    jac, u = np.abs(ref["jac_inv"]), np.abs(ref["u"])
    interior = np.zeros(shape, dtype=bool)
    interior[1:-1, 1:-1] = True
    ok = interior.ravel() & ~flagged & (jac >= 0.25 * jac.max()) & (u >= 0.1 * u.max())
    cand = np.flatnonzero(ok)
    if len(cand) == 0:
        return []
    return sorted({int(cand[(len(cand) * (j + 1)) // (FD_POINTS + 1)]) for j in range(FD_POINTS)})


def normalize_problems(case: dict, value: float) -> list[str]:
    want = reference.normalization(
        reference.Solution(case), case["rho_min"], case["rho_max"], case["theta_min"], case["theta_max"])
    if not abs(value - want) <= NORM_TOL * abs(want):
        return [f"N = {value!r} differs from the fold-split reference {want!r} by "
                f"{abs(value / want - 1):.2e} relative (tolerance {NORM_TOL:g})"]
    return []


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def _stdout_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines()[1:]]


def cli_problems(case: dict, payload: dict, cli_dir: Path) -> list[str]:
    """Check one command's exit code, printed table and written files."""
    if payload["returncode"] != 0:
        return [f"exit code {payload['returncode']}: {payload['stderr'].strip()[-300:]}"]
    here = cli_dir / case["id"]
    if "repeats" in case:
        return _repeat_problems(here, cli_dir / case["repeats"])
    return _CLI_CHECKS[case["id"]](case, payload["stdout"], here)


def _classify(case, out, here) -> list[str]:
    rows = _stdout_rows(out)
    problems = []
    if [float(r[0]) for r in rows] != case["rho_bars"]:
        return [f"classify printed radii {[r[0] for r in rows]}, expected {case['rho_bars']}"]
    n, ell = case["n"], case["ell"]
    for rb, delta, g, region in rows:
        rb, delta, g = float(rb), float(delta), float(g)
        want = (ell + 1.0) * (rb ** n - 1.0)
        if not abs(delta - want) <= 1e-13 * (ell + 1.0) * max(1.0, rb ** n) or g != -delta:
            problems.append(f"classify row rho_bar={rb}: Delta={delta!r}, g={g!r}, expected Delta={want!r} = -g")
        expect = "elliptic" if rb < 1.0 - 1e-12 else "hyperbolic" if rb > 1.0 + 1e-12 else "parabolic"
        if region != expect:
            problems.append(f"classify row rho_bar={rb}: region {region}, expected {expect}")
    return problems


def _characteristics(case, out, here) -> list[str]:
    rows = _stdout_rows(out)
    problems = []
    if [float(r[0]) for r in rows] != case["rho_bars"]:
        return ["characteristics printed other radii than requested"]
    n, ell = case["n"], case["ell"]
    for rb, region, _chi, slope, _kappa in rows:
        rb = float(rb)
        if region == "hyperbolic":
            delta = (ell + 1.0) * (rb ** n - 1.0)
            want = rb * reference.RHO_T / math.sqrt(delta)
            if not abs(float(slope) - want) <= 1e-12 * want:
                problems.append(f"characteristics row rho_bar={rb}: slope {slope}, expected rho/sqrt(Delta) = {want!r}")
    if not any(r[1] == "hyperbolic" for r in rows):
        problems.append("characteristics printed no hyperbolic row")
    return problems


def _laguerre_enum(case, out, here) -> list[str]:
    rows = _stdout_rows(out)
    n = case["n"]
    problems = []
    for lam, lam2, k, ell, abar in rows:
        lam, lam2, k, ell, abar = float(lam), float(lam2), int(k), float(ell), float(abar)
        resid = k * n * ell - ((lam * lam - k * n) ** 2 - lam * lam)
        if not abs(resid) <= 1e-9 * max(1.0, lam ** 4) or lam2 != lam * lam:
            problems.append(f"laguerre-enum row lam={lam}, k={k}: k n ell != (lam^2 - k n)^2 - lam^2")
        if not abs(abar - (2.0 * (lam * lam - k * n) + ell) / n) <= 1e-12 * max(1.0, abs(abar)):
            problems.append(f"laguerre-enum row lam={lam}, k={k}: alpha_bar {abar} != (2 nu + ell)/n")
    # every order k >= 1 with k n <= lam sqrt(lam^2 - 1) whose ell exceeds -1
    want = sorted((lam, k) for lam in case["lams"]
                  for k in range(1, int(math.floor(lam * math.sqrt(lam * lam - 1.0) / n + 1e-9)) + 1)
                  if ((lam * lam - k * n) ** 2 - lam * lam) / (k * n) > -1.0)
    got = sorted((float(r[0]), int(r[2])) for r in rows)
    if got != want:
        problems.append(f"laguerre-enum listed (lam, k) = {got}, expected {want}")
    return problems


def _solve_momentum(case, out, here) -> list[str]:
    f = case["fields"]
    header, rows = read_csv((here / "u.csv").read_text())
    if header != ["rho_bar", "theta", "u", "radial", "angular", "region"] or len(rows) != 256:
        return [f"u.csv has header {header} and {len(rows)} rows, expected 256"]
    rb, theta, u, radial, angular = (np.array([float(r[i]) for r in rows]) for i in range(5))
    problems = []
    if not np.all(np.abs(u - radial * angular) <= 1e-15 * np.abs(u)):
        problems.append("solve-momentum: u differs from radial * angular")
    sol = reference.Solution(f)
    rho_grid = np.repeat(np.linspace(f["rho_min"], f["rho_max"], 16), 16)
    th_grid = np.tile(np.linspace(f["theta_min"], f["theta_max"], 16), 16)
    if not (np.allclose(rb * reference.RHO_T, rho_grid, rtol=1e-14, atol=0)
            and np.allclose(theta, th_grid, rtol=0, atol=1e-14)):
        return problems + ["solve-momentum: grid differs from the requested one"]
    want_r = sol.radial(rho_grid)[0]
    if not np.all(np.abs(radial - want_r) <= MAP_TOL * np.max(np.abs(want_r))):
        problems.append("solve-momentum: radial factor differs from rho_bar^nu M(a, b, tau)")
    want_a = sol.angular(th_grid)[0]
    if not np.all(np.abs(angular - want_a) <= 1e-13):
        problems.append("solve-momentum: angular factor differs from sin(lam theta)")
    return problems


def _map_fields(case, out, here) -> list[str]:
    name = case["argv"][case["argv"].index("--output") + 1]
    table = csv_table((here / name).read_text())
    sidecar = json.loads((here / (name + ".json")).read_text())
    problems = fields_problems(case["fields"], table)
    summary = sidecar["summary"]
    if summary["rows"] != len(table["x"]) or summary["flagged"] != int(table["flagged"].sum()):
        problems.append("sidecar summary disagrees with the CSV")
    return problems


def _repeat_problems(here: Path, first: Path) -> list[str]:
    problems = []
    for a, b in (("fields_repeat.csv", "fields.csv"), ("fields_repeat.csv.json", "fields.csv.json")):
        if (here / a).read_bytes() != (first / b).read_bytes():
            problems.append(f"repeated map-fields wrote {a} unlike {b}")
    return problems


def _psi_model(case, out, here) -> list[str]:
    sidecar = json.loads((here / "psi.csv.json").read_text())
    cfg, zeros = sidecar["config"], sidecar["summary"]["potential_zeros_over_sigma_r"]
    problems = []
    if len(zeros) != 2:
        problems.append(f"psi-model two-zeros regime reported {len(zeros)} zeros")
    for z in zeros:
        bracket, size = reference.psi_potential_bracket(cfg["n"], cfg["ell"], cfg["sigma_r"], cfg["rho_t"],
                                                        z * cfg["sigma_r"])
        if not abs(bracket) <= 1e-12 * size:
            problems.append(f"psi-model zero r/sigma_r = {z!r} leaves U = {bracket:.3e} x (-1/(8 r^2))")
    return problems


def _verify_all(case, out, here) -> list[str]:
    report = json.loads(out)
    saved = json.loads((here / "report.json").read_text())
    if report.get("pass") is not True or saved.get("pass") is not True:
        return ["verify all did not report pass: true"]
    return []


_CLI_CHECKS = {
    "classify": _classify,
    "characteristics": _characteristics,
    "laguerre-enum": _laguerre_enum,
    "solve-momentum": _solve_momentum,
    "map-fields": _map_fields,
    "map-fields-64": _map_fields,
    "psi-model": _psi_model,
    "verify-all": _verify_all,
}
