"""Acceptance gate: one test per release criterion, at the stated
tolerances and runtime budgets.  Each test prints a single pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).

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

import numpy as np
import pytest

from hodoflow import specfun, verify
from hodoflow.cli import main as cli_main
from hodoflow.errors import UnivalenceWarning
from hodoflow.mapping import (
    SectorDomain,
    forward_map,
    invert_map,
    sample_fields,
)
from hodoflow.maxwell import ModelParams, density_F, discriminant
from hodoflow.momentum import (
    AngularFactor,
    CharacteristicKind,
    LaguerreCase,
    RadialSolution,
    canonical_kappa,
    characteristic_chi,
    factorized_u,
    hill_coefficient_G,
    hill_substitution_zeta,
    laguerre_enumerate,
    laguerre_enumerate_for_ell,
    omega_slope,
    radial_row,
    slope_rho_theta,
    zeta_bar,
)
from hodoflow.potentials import (
    PsiModelParams,
    bohr_sommerfeld,
    circulation_quantum,
    potential_zeros,
    psi_classical_potential,
    psi_density,
    psi_quantum_potential,
    quantum_potential,
    schrodinger_residual_at,
    sigma_r_closed_form,
)
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


def catalog_triple(n, ell, lam, k, abar, c1=1.0, c2=0.0):
    p = ModelParams(n=n, ell=ell)
    case = LaguerreCase(lam=lam, k=k, n=float(n), ell=float(ell), alpha_bar=abar)
    sol = RadialSolution.from_laguerre_case(p, case)
    fac = AngularFactor(lam=lam, c1=c1, c2=c2)
    return p, sol, fac


TRIPLES = ((2, 0, 2.0, 1, 2.0), (2, 4, 3.0, 2, 7.0), (2, 2, 4.0, 5, 7.0))

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
        rng = np.random.default_rng(17)
        for _ in range(300):
            a = rng.uniform(-3.0, 3.0)
            b = rng.uniform(0.6, 5.0)
            z = rng.uniform(0.0, 10.0)
            m0 = specfun.kummer_m(a, b, z)
            m1 = specfun.kummer_m_deriv(a, b, z)
            m2 = a * (a + 1.0) / (b * (b + 1.0)) * specfun.kummer_m(a + 2.0, b + 2.0, z)
            assert abs(z * m2 + (b - z) * m1 - a * m0) / max(1.0, abs(m0)) < 1e-10

        for k in range(13):
            for abar in (0.5, 1.0, 3.0, 7.0, 10.0):
                for z in (0.04, 0.1):
                    c0 = specfun.gamma(1.0 + k) * specfun.gamma(1.0 + abar) / specfun.gamma(1.0 + abar + k)
                    lhs = specfun.kummer_m(float(-k), 1.0 + abar, z)
                    rhs = c0 * specfun.laguerre(k, abar, z)
                    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

        for x in (0.3, 1.0, 2.0, 5.0, -0.7):
            fd = (specfun.expint_ei(x + 1e-5) - specfun.expint_ei(x - 1e-5)) / 2e-5
            assert fd == pytest.approx(math.exp(x) / x, rel=1e-6)


# ---------------------------------------------------------------------------
# 3. Momentum-space PDE
# ---------------------------------------------------------------------------

def test_criterion_3_momentum_pde():
    with criterion(3, "momentum-pde", 30.0):
        # separated polynomial solutions on 50x50 grids spanning both regions
        for n, ell, lam, k, abar in TRIPLES:
            p, sol, fac = catalog_triple(n, ell, lam, k, abar)
            dom = SectorDomain(0.35 * p.rho_t, 2.1 * p.rho_t, 0.12, 0.75)
            report = verify.pde_residual_momentum(
                p, lambda r, t: factorized_u(p, sol, fac, r, t), dom, grid=(50, 50),
                tol=1e-5, name=f"acc3-{n}-{ell}-{lam:g}",
            )
            assert report.passed, report

        # oscillator (Hill) reduction, closed-form and series branches
        for params in (ModelParams(n=2, ell=2), ModelParams(n=2, ell=2.5)):
            sol = RadialSolution.kummer(params, 1.0)
            for rho0 in (0.6 * params.rho_t, 0.85 * params.rho_t, 1.35 * params.rho_t):
                z0 = hill_substitution_zeta(params, rho0)
                dz = 1e-3 * max(abs(z0), 1.0)
                vals = []
                rho_guess = rho0
                for i in (-2, -1, 0, 1, 2):
                    target = z0 + i * dz
                    rho = rho_guess
                    for _ in range(60):
                        rho -= (hill_substitution_zeta(params, rho) - target) / zeta_bar(params, rho)
                    rho_guess = rho
                    vals.append(radial_row(params, sol, rho)[0])
                second = (-vals[4] + 16.0 * vals[3] - 30.0 * vals[2] + 16.0 * vals[1] - vals[0]) / (12.0 * dz * dz)
                g_coef = hill_coefficient_G(params, sol.lam, rho0)
                residual = second + g_coef * vals[2]
                assert abs(residual) / max(abs(second), abs(g_coef * vals[2])) < 1e-4

        # characteristic slope identity, both regions, all four kinds
        p = ModelParams(n=2, ell=2)
        for kind in CharacteristicKind:
            radii = (1.3, 1.8, 2.4) if kind.hyperbolic else (0.4, 0.6, 0.85)
            for rb in radii:
                rho = rb * p.rho_t
                fd = verify.fd_derivative(
                    lambda r: characteristic_chi(p, kind, r, 0.2), rho, h=1e-6 * p.rho_t
                )
                exact = math.sqrt(abs(discriminant(p, rho))) / rho
                assert fd == pytest.approx(exact, rel=1e-6)

        # flow identity of the canonical first-order coefficient
        for rho in (1.4 * p.rho_t, 1.6 * p.rho_t, 2.0 * p.rho_t):
            lam_fn = lambda r: omega_slope(p, r) * r / math.sqrt(discriminant(p, r))
            dmu = math.sqrt(discriminant(p, rho)) / rho
            lam_prime = verify.fd_derivative(lam_fn, rho, h=1e-6 * p.rho_t) / dmu
            residual = lam_prime + 4.0 * canonical_kappa(p, rho, "hyperbolic") * lam_fn(rho)
            assert abs(residual) / abs(lam_prime) < 1e-4


# ---------------------------------------------------------------------------
# 4. Inverse-Legendre consistency
# ---------------------------------------------------------------------------

def test_criterion_4_inverse_legendre():
    with criterion(4, "inverse-legendre", 30.0):
        for n, ell, lam, k, abar in TRIPLES:
            p, sol, fac = catalog_triple(n, ell, lam, k, abar)
            for rho, theta in [(0.55 * p.rho_t, 0.5), (1.6 * p.rho_t, 0.35)]:
                mp = forward_map(p, sol, fac, rho, theta)
                seed = {"pt": (rho, theta)}

                def phi_at(x, y):
                    back = invert_map(p, sol, fac, (x, y), seed["pt"])
                    seed["pt"] = back
                    return forward_map(p, sol, fac, back.rho, back.theta).phi_val

                h = 1e-5 * max(abs(mp.x), abs(mp.y), 0.1)
                gx = (phi_at(mp.x + h, mp.y) - phi_at(mp.x - h, mp.y)) / (2.0 * h)
                gy = (phi_at(mp.x, mp.y + h) - phi_at(mp.x, mp.y - h)) / (2.0 * h)
                assert gx == pytest.approx(rho * math.cos(theta), rel=1e-4, abs=1e-8)
                assert gy == pytest.approx(rho * math.sin(theta), rel=1e-4, abs=1e-8)

                # closed-form inverse Jacobian vs the FD differential
                h_r, h_t = 1e-5 * p.rho_t, 1e-5
                f = lambda r, t: forward_map(p, sol, fac, r, t)
                dx_r = (f(rho + h_r, theta).x - f(rho - h_r, theta).x) / (2 * h_r)
                dy_r = (f(rho + h_r, theta).y - f(rho - h_r, theta).y) / (2 * h_r)
                dx_t = (f(rho, theta + h_t).x - f(rho, theta - h_t).x) / (2 * h_t)
                dy_t = (f(rho, theta + h_t).y - f(rho, theta - h_t).y) / (2 * h_t)
                ct, st = math.cos(theta), math.sin(theta)
                fd_jac = (dx_r * ct - dx_t * st / rho) * (dy_r * st + dy_t * ct / rho) - (
                    dx_r * st + dx_t * ct / rho
                ) * (dy_r * ct - dy_t * st / rho)
                assert mp.jac_inv == pytest.approx(fd_jac, rel=1e-4)

        # lam = 1 degeneracy everywhere
        p = ModelParams(n=2, ell=2)
        sol1 = RadialSolution.kummer(p, 1.0)
        fac1 = AngularFactor(lam=1.0, c1=0.7, c2=0.4)
        rng = np.random.default_rng(23)
        for _ in range(100):
            rho = rng.uniform(0.1, 2.5) * p.rho_t
            theta = rng.uniform(-math.pi, math.pi)
            assert abs(forward_map(p, sol1, fac1, rho, theta, allow_degenerate=True).jac_inv) < 1e-12

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
        for n, ell, lam, k, abar in TRIPLES:
            p, sol, fac = catalog_triple(n, ell, lam, k, abar)
            pts = [(0.5 * p.rho_t, 0.45), (0.62 * p.rho_t, 0.52), (1.55 * p.rho_t, 0.38)]
            closed = [quantum_potential(p, sol, fac, r, t) for r, t in pts]
            oracle = []
            for rho, theta in pts:
                mp = forward_map(p, sol, fac, rho, theta)
                seed = {"pt": (rho, theta)}

                def sqrt_f(x, y):
                    back = invert_map(p, sol, fac, (x, y), seed["pt"])
                    seed["pt"] = back
                    return math.sqrt(density_F(p, abs(p.alpha) * back.rho))

                h = 5e-4 * max(math.hypot(mp.x, mp.y), 1e-3)
                c0 = sqrt_f(mp.x, mp.y)
                lap = (
                    sqrt_f(mp.x + h, mp.y) + sqrt_f(mp.x - h, mp.y)
                    + sqrt_f(mp.x, mp.y + h) + sqrt_f(mp.x, mp.y - h) - 4.0 * c0
                ) / h ** 2
                oracle.append(p.alpha / p.beta * lap / c0)
            scale = max(abs(closed[1] - closed[0]), abs(closed[2] - closed[0]))
            for i in (1, 2):
                diff = (closed[i] - closed[0]) - (oracle[i] - oracle[0])
                assert abs(diff) / scale < 1e-3

        # reduction to the vortex closed form at lam = 0, constant radial factor
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = rng.uniform(0.7, 5.0)
            ell = rng.uniform(2.1, 9.0)
            sigma_r = rng.uniform(0.4, 2.5)
            r = rng.uniform(0.3, 4.0) * sigma_r
            pm = PsiModelParams(n=n, ell=ell, sigma_r=sigma_r, rho_t=2.0)
            params = ModelParams(n=n, ell=ell, sigma_v=1.0)
            fac0 = AngularFactor(lam=0.0, c1=pm.c1, c2=0.3)
            q_gen = quantum_potential(params, RadialSolution.constant(), fac0, abs(pm.c1) / r, rng.uniform(-1, 1))
            assert q_gen == pytest.approx(psi_quantum_potential(pm, r), rel=5e-13)


# ---------------------------------------------------------------------------
# 7. Vortex wavefunction model
# ---------------------------------------------------------------------------

def test_criterion_7_psi_model():
    with criterion(7, "psi-model", 30.0):
        regimes = ("two-zeros", "critical", "single-zero")
        for regime in regimes:
            pm = PsiModelParams.for_regime(4, 6, regime)
            for r in np.geomspace(0.3, 30.0, 20):
                assert schrodinger_residual_at(pm, float(r) * pm.sigma_r) < 1e-8

        pm = PsiModelParams(n=4, ell=6, sigma_r=1.3, rho_t=2.0)
        total = verify.quad2d_polar(
            lambda r, phi: psi_density(pm, r), (0.0, math.inf), (0.0, 2.0 * math.pi), tol=1e-10
        )
        assert total == pytest.approx(1.0, rel=1e-6)

        m1 = verify.quad2d_polar(lambda r, phi: r * psi_density(pm, r), (0.0, math.inf), (0.0, 2 * math.pi), tol=1e-10)
        m2 = verify.quad2d_polar(lambda r, phi: r * r * psi_density(pm, r), (0.0, math.inf), (0.0, 2 * math.pi), tol=1e-10)
        assert math.sqrt(m2 - m1 ** 2) == pytest.approx(sigma_r_closed_form(pm), rel=1e-6)

        for regime in regimes:
            pmr = PsiModelParams.for_regime(4, 6, regime)
            for r in potential_zeros(pmr):
                assert abs(psi_classical_potential(pmr, r)) < 1e-9

        pm2 = PsiModelParams(n=4, ell=6, sigma_r=1.0, rho_t=2.0)
        t = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)
        circle = np.column_stack([1.7 * np.cos(t), 1.7 * np.sin(t)])
        ellipse = np.column_stack([2.5 * np.cos(t), 0.8 * np.sin(t)])
        ref = circulation_quantum(pm2)
        assert bohr_sommerfeld(pm2, circle) == pytest.approx(ref, rel=1e-8)
        assert bohr_sommerfeld(pm2, ellipse) == pytest.approx(ref, rel=1e-8)

        expected = {"two-zeros": -2.0, "critical": -6.0, "single-zero": -2.0}
        for regime, slope_expected in expected.items():
            pmr = PsiModelParams.for_regime(4, 6, regime)
            r1, r2 = 1e3 * pmr.sigma_r, 2e3 * pmr.sigma_r
            slope = (
                math.log(abs(psi_classical_potential(pmr, r2)))
                - math.log(abs(psi_classical_potential(pmr, r1)))
            ) / (math.log(r2) - math.log(r1))
            assert slope == pytest.approx(slope_expected, rel=0.02)


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
