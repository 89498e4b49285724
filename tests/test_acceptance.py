"""Acceptance gate: one test per release criterion, at the stated
tolerances and runtime budgets.  Each test prints a single pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Criteria 2, 3, 4, 6 and 7 run the verification suite that implements their
checks (``hodoflow.suites``: `specfun`, `momentum`, `map`, `potentials`,
`psi`, at the acceptance grids, seeds and tolerances) and require every
report to pass, printing the ones that fail.  Criterion 4 adds the
sonic-circle corner here; criteria 1, 5, 8 and 9 are checked only here.

Erratum in criterion 8b: the n = 1 slope minimum is quoted at sqrt(2) rho_T,
but the slope rho / sqrt(Delta) pinned by 8a and 8c has its minimum where
d(rho^2 / Delta)/d rho = 0, i.e. rho_bar^n = 2/(2-n), so (2/(2-n))^(1/n) rho_T
= 2 rho_T for n = 1.  8b checks that location and that the quoted one is not
a minimum.
"""

import json
import math
import time
import warnings
from contextlib import contextmanager

import pytest

from hodoflow import verify
from hodoflow.cli import main as cli_main
from hodoflow.errors import UnivalenceWarning
from hodoflow.mapping import SectorDomain, forward_map, sample_fields
from hodoflow.maxwell import ModelParams
from hodoflow.momentum import (
    AngularFactor,
    LaguerreCase,
    RadialSolution,
    laguerre_enumerate,
    laguerre_enumerate_for_ell,
    slope_rho_theta,
    zeta_bar,
)
from hodoflow.suites import TRIPLES, run_suite
from oracles import brute_force_orders


@contextmanager
def criterion(num, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE-{num} {label}: FAIL ({time.perf_counter() - start:.2f} s)")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        print(f"ACCEPTANCE-{num} {label}: FAIL ({elapsed:.2f} s, budget {budget_s} s)")
        pytest.fail(f"runtime {elapsed:.2f} s exceeds the {budget_s} s budget")
    print(f"ACCEPTANCE-{num} {label}: PASS ({elapsed:.2f} s)")


def assert_suite_passes(name):
    """Run one verification suite and require every report to pass."""
    failed = [r for r in run_suite(name) if not r.passed]
    for report in failed:
        print(f"  {name}: {report.name} [{report.grid_spec}] max_abs = {report.max_abs:.3e}, "
              f"tol = {report.tol:g}, skipped {report.skipped_points}")
    assert not failed, [r.name for r in failed]


def catalog_triple(n, ell, lam, k, abar, c1=1.0, c2=0.0):
    p = ModelParams(n=n, ell=ell)
    case = LaguerreCase(lam=lam, k=k, n=float(n), ell=float(ell), alpha_bar=abar)
    sol = RadialSolution.from_laguerre_case(p, case)
    fac = AngularFactor(lam=lam, c1=c1, c2=c2)
    return p, sol, fac


#: Hyperbolic sectors (rho_1/rho_T, rho_2/rho_T, theta_max in degrees) keyed
#: by the (n, ell, lam) triple they belong to.
SECTORS = {
    (2, 0, 2.0): (1.8, 2.4, 12.0),
    (2, 4, 3.0): (1.5, 1.89, 15.0),
    (2, 2, 4.0): (1.45, 1.75, 12.0),
}


# ---------------------------------------------------------------------------
# 1. Laguerre catalogs
# ---------------------------------------------------------------------------

def test_criterion_1_laguerre_catalogs():
    with criterion(1, "laguerre-catalogs", 1.0):
        rows = laguerre_enumerate(2.0, [2.0, 3.0, 4.0], ell_max=1e9)
        got = [(c.lam, c.k, c.ell, c.alpha_bar) for c in rows]
        expected = [
            (2.0, 1, 0.0, 2.0),
            (3.0, 1, 20.0, 17.0), (3.0, 2, 4.0, 7.0), (3.0, 3, 0.0, 3.0),
            (4.0, 1, 90.0, 59.0), (4.0, 2, 32.0, 28.0), (4.0, 3, 14.0, 17.0),
            (4.0, 4, 6.0, 11.0), (4.0, 5, 2.0, 7.0), (4.0, 6, 0.0, 4.0),
            (4.0, 7, -6.0 / 7.0, 11.0 / 7.0),
        ]
        assert len(got) == len(expected)
        for (lam, k, ell, ab), (elam, ek, eell, eab) in zip(got, expected):
            assert (lam, k) == (elam, ek)
            assert ell == pytest.approx(eell, abs=1e-12)
            assert ab == pytest.approx(eab, abs=1e-12)

        # fixed (n, ell) = (2, 2) catalog: the integer-lam^2 sample rows
        fixed = {c.k: (c.lam ** 2, c.alpha_bar) for c in laguerre_enumerate_for_ell(2.0, 2.0, k_max=12)}
        for k, lam2, ab in [(0, 1.0, 2.0), (1, 5.0, 4.0), (2, 8.0, 5.0), (5, 16.0, 7.0), (7, 21.0, 8.0), (12, 33.0, 10.0)]:
            assert fixed[k][0] == pytest.approx(lam2, rel=1e-12)
            assert fixed[k][1] == pytest.approx(ab, rel=1e-12)

        # lam = 4 / order-5 row double-checked by brute-force scan over k;
        # a discrepancy would be reported by the assertion message itself
        hits = brute_force_orders(2.0, 2.0, 4.0)
        assert hits == [5], f"brute-force orders for lam=4 disagree with the catalog: {hits}"


# ---------------------------------------------------------------------------
# 2. Special-function suite
# ---------------------------------------------------------------------------

def test_criterion_2_special_functions():
    with criterion(2, "special-function-suite", 5.0):
        assert_suite_passes("specfun")


# ---------------------------------------------------------------------------
# 3. Momentum-space PDE
# ---------------------------------------------------------------------------

def test_criterion_3_momentum_pde():
    with criterion(3, "momentum-pde", 30.0):
        assert_suite_passes("momentum")


# ---------------------------------------------------------------------------
# 4. Inverse-Legendre consistency
# ---------------------------------------------------------------------------

def test_criterion_4_inverse_legendre():
    with criterion(4, "inverse-legendre", 30.0):
        assert_suite_passes("map")

        # sonic-circle extremum corner
        for n, ell, lam, k, abar in TRIPLES:
            p, sol, fac = catalog_triple(n, ell, lam, k, abar, c1=0.8, c2=0.45)
            mp = forward_map(p, sol, fac, p.rho_t, fac.extremum_angle())
            assert abs(mp.jac_inv) < 1e-10


# ---------------------------------------------------------------------------
# 5. Coordinate-space nonlinear PDE
# ---------------------------------------------------------------------------

def test_criterion_5_coordinate_pde():
    with criterion(5, "coordinate-pde", 60.0):
        # elliptic disk, lam = 2, ell = 0
        p, sol, fac = catalog_triple(2, 0, 2.0, 1, 2.0)
        probes = []
        for rb, th in [(0.35, 0.5), (0.55, 0.8), (0.75, 1.9), (0.6, 2.6)]:
            mp = forward_map(p, sol, fac, rb * p.rho_t, th)
            probes.append((mp.x, mp.y))
        report = verify.pde_residual_coordinate(
            p, verify.chart_phi_fn(p, sol, fac, (0.55 * p.rho_t, 0.8)), probes[:2], tol=1e-3,
            name="disk-a",
        )
        assert report.passed, report
        report = verify.pde_residual_coordinate(
            p, verify.chart_phi_fn(p, sol, fac, (0.75 * p.rho_t, 1.9)), probes[2:], tol=1e-3,
            name="disk-b",
        )
        assert report.passed, report

        # elliptic speed bound over the disk
        dom = SectorDomain(0.05 * p.rho_t, 0.98 * p.rho_t, 0.1, 2.0 * math.pi - 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnivalenceWarning)
            samples = sample_fields(p, sol, fac, dom, grid=(6, 24))
        assert all(s.speed < p.sigma_v for s in samples)

        # the three hyperbolic sectors: probes on the central (univalent) leaf
        for (n, ell, lam), (r1, r2, tmax) in SECTORS.items():
            k, abar = {(2, 0): (1, 2.0), (2, 4): (2, 7.0), (2, 2): (5, 7.0)}[(n, ell)]
            p, sol, fac = catalog_triple(n, ell, lam, k, abar, c1=0.0, c2=1.0)
            probes = []
            for rb in (r1 + 0.02, 0.5 * (r1 + r2), r2 - 0.02):
                for th in (-0.015, 0.02):
                    mp = forward_map(p, sol, fac, rb * p.rho_t, th)
                    probes.append((mp.x, mp.y))
            seed = (0.5 * (r1 + r2) * p.rho_t, 0.0)
            report = verify.pde_residual_coordinate(
                p, verify.chart_phi_fn(p, sol, fac, seed), probes, tol=1e-3,
                name=f"sector-{n}-{ell}-{lam:g}",
            )
            assert report.passed, report

            # speed bounds across the full stated sector
            dom = SectorDomain(r1 * p.rho_t, r2 * p.rho_t, -math.radians(tmax), math.radians(tmax))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UnivalenceWarning)
                samples = sample_fields(p, sol, fac, dom, grid=(10, 9))
            lo, hi = r1 * p.rho_t * abs(p.alpha), r2 * p.rho_t * abs(p.alpha)
            assert all(lo - 1e-12 <= s.speed <= hi + 1e-12 for s in samples)

        # angularly symmetric hyperbolic flow
        p = ModelParams(n=2, ell=0)
        probes = []
        for rb, th in [(1.3, 0.2), (1.8, 1.0), (2.3, 2.2)]:
            zb = zeta_bar(p, rb * p.rho_t)
            probes.append((zb * math.cos(th), zb * math.sin(th)))
        report = verify.pde_residual_coordinate(
            p, verify.chart_phi_fn_radial(p), probes, tol=1e-3, name="radial-flow",
        )
        assert report.passed, report


# ---------------------------------------------------------------------------
# 6. Quantum potential
# ---------------------------------------------------------------------------

def test_criterion_6_quantum_potential():
    with criterion(6, "quantum-potential", 60.0):
        assert_suite_passes("potentials")


# ---------------------------------------------------------------------------
# 7. Vortex wavefunction model
# ---------------------------------------------------------------------------

def test_criterion_7_psi_model():
    with criterion(7, "psi-model", 30.0):
        assert_suite_passes("psi")


# ---------------------------------------------------------------------------
# 8. Slope asymptotics
# ---------------------------------------------------------------------------

def _golden_section_argmin(fn, lo, hi, iters=200):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    for _ in range(iters):
        if fn(c) < fn(d):
            b = d
        else:
            a = c
        c, d = b - invphi * (b - a), a + invphi * (b - a)
    return 0.5 * (a + b)


def test_criterion_8a_slope_n2_limit():
    with criterion("8a", "slope-n2-limit", 1.0):
        p = ModelParams(n=2, ell=2)
        assert slope_rho_theta(p, 100.0 * p.rho_t) == pytest.approx(
            p.rho_t / math.sqrt(p.ell + 1.0), rel=0.01
        )


def test_criterion_8b_slope_n1_minimum_as_stated():
    """n = 1 slope minimum at (2/(2-n))^(1/n) rho_T = 2 rho_T (rel 1e-4).

    Erratum: the criterion quotes sqrt(2) rho_T, which is (2/(2-n))^(1/2), a
    square root where the n-th root is needed.  Derivation: rho^2 / Delta
    with Delta = (ell+1)(rho_bar^n - 1) has d/d rho = 0 only at
    rho_bar^n = 2/(2-n).  The quoted location is printed and must not be a
    minimum.
    """
    with criterion("8b", "slope-n1-minimum", 1.0):
        p = ModelParams(n=1, ell=2)
        argmin = _golden_section_argmin(
            lambda r: slope_rho_theta(p, r), 1.0001 * p.rho_t, 10.0 * p.rho_t
        )
        expected = p.rho_t * (2.0 / (2.0 - p.n)) ** (1.0 / p.n)
        stated = math.sqrt(2.0) * p.rho_t
        print(
            f"  golden-section argmin = {argmin / p.rho_t:.6f} rho_T "
            f"(definition: {expected / p.rho_t:.6f} rho_T, "
            f"stated: sqrt(2) = {stated / p.rho_t:.6f} rho_T)"
        )
        assert argmin == pytest.approx(expected, rel=1e-4)
        assert slope_rho_theta(p, stated) > slope_rho_theta(p, expected)


def test_criterion_8c_slope_n3_decay():
    # The bound is ell-dependent and the criterion leaves ell open: at the
    # catalog value ell = 4 the slope at 100 rho_T is 100/sqrt(5 (100^3-1))
    # = 0.0447 rho_T < 0.05 rho_T.  (At ell = 2 it would be 0.0577 rho_T.)
    with criterion("8c", "slope-n3-decay", 1.0):
        p = ModelParams(n=3, ell=4)
        assert slope_rho_theta(p, 100.0 * p.rho_t) < 0.05 * p.rho_t


# ---------------------------------------------------------------------------
# 9. Determinism of field export
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    with criterion(9, "map-fields-determinism", 30.0):
        args = [
            "map-fields", "--n", "2", "--ell", "4", "--lambda", "3", "--radial", "kummer+",
            "--rho-min", "1.5", "--rho-max", "1.89", "--theta-min", "-15", "--theta-max", "15",
            "--n-rho", "12", "--n-theta", "9",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(args + ["--output", str(a)]) == 0
        assert cli_main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".csv.json").read_bytes() == b.with_suffix(".csv.json").read_bytes()
        payload = json.loads(a.with_suffix(".csv.json").read_text())
        assert payload["summary"]["speed_min"] == pytest.approx(1.5, rel=1e-12)
        assert payload["summary"]["speed_max"] == pytest.approx(1.89, rel=1e-12)
