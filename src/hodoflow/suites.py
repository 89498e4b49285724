"""Named verification campaigns.

Each suite re-derives a slice of the library with independent numerics and
returns :class:`~hodoflow.verify.VerificationReport` records.  The `all`
suite is the concatenation.  Suites are deterministic (fixed grids, fixed
RNG seeds) and run at the acceptance grids and tolerances: acceptance
criteria 2, 3, 4, 6 and 7 (``tests/test_acceptance.py``) run the `specfun`,
`momentum`, `map`, `potentials` and `psi` suites and require every report
to pass, so each check has this one implementation.
"""

from __future__ import annotations

import math

import numpy as np

from . import potentials, specfun, verify
from .errors import ParameterError
from .mapping import SectorDomain, _image, forward_map, invert_map
from .maxwell import ALPHA, BETA, ModelParams, coeff_g, density_F, discriminant
from .momentum import (
    AngularFactor,
    CharacteristicKind,
    LaguerreCase,
    RadialSolution,
    canonical_kappa,
    characteristic_chi,
    factorized_u,
    hill_coefficient_G,
    hill_substitution_zeta,
    radial_row,
    zeta_bar,
)
from .potentials import (
    PsiModelParams,
    bohr_sommerfeld,
    circulation_quantum,
    hamilton_jacobi_residual,
    potential_zeros,
    psi_classical_potential,
    psi_density,
    psi_quantum_potential,
    quantum_potential,
    schrodinger_residual_at,
    sigma_r_closed_form,
    sigma_r_from_moments,
)
from .verify import VerificationReport, report_from_residuals

#: Catalog triples exercised by the mapped-field checks: (n, ell, lam, k, alpha_bar)
TRIPLES = ((2, 0, 2.0, 1, 2.0), (2, 4, 3.0, 2, 7.0), (2, 2, 4.0, 5, 7.0))


def _triple(n, ell, lam, k, abar):
    p = ModelParams(n=n, ell=ell)
    case = LaguerreCase(lam=lam, k=k, n=float(n), ell=float(ell), alpha_bar=abar)
    sol = RadialSolution.from_laguerre_case(p, case)
    fac = AngularFactor(lam=lam)
    return p, sol, fac


# ---------------------------------------------------------------------------
# specfun
# ---------------------------------------------------------------------------

def suite_specfun() -> list[VerificationReport]:
    reports = []
    rng = np.random.default_rng(17)
    residuals = []
    for _ in range(300):
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(0.6, 5.0)
        z = rng.uniform(0.0, 10.0)
        m0 = specfun.kummer_m(a, b, z)
        m1 = specfun.kummer_m_deriv(a, b, z)
        m2 = a * (a + 1.0) / (b * (b + 1.0)) * specfun.kummer_m(a + 2.0, b + 2.0, z)
        residuals.append((z * m2 + (b - z) * m1 - a * m0) / max(1.0, abs(m0)))
    reports.append(report_from_residuals("kummer-ode-analytic", "300 random (a,b,z)", residuals, 1e-10))

    rng = np.random.default_rng(101)  # shared by the contiguity and Gamma draws
    residuals = []
    h = 1e-5
    for _ in range(50):
        a = rng.uniform(-2.0, 2.5)
        b = rng.uniform(0.7, 4.0)
        z = rng.uniform(0.1, 8.0)
        fd = (specfun.kummer_m(a, b, z + h) - specfun.kummer_m(a, b, z - h)) / (2.0 * h)
        an = specfun.kummer_m_deriv(a, b, z)
        residuals.append((an - fd) / max(1.0, abs(an)))
    reports.append(report_from_residuals("kummer-contiguity-fd", "50 random, h=1e-5", residuals, 1e-6))

    residuals = []
    for k in range(13):
        for abar in (0.5, 1.0, 3.0, 7.0, 10.0):
            for z in (0.04, 0.1):
                c0 = specfun.gamma(1.0 + k) * specfun.gamma(1.0 + abar) / specfun.gamma(1.0 + abar + k)
                lhs = specfun.kummer_m(float(-k), 1.0 + abar, z)
                rhs = c0 * specfun.laguerre(k, abar, z)
                residuals.append((lhs - rhs) / rhs)
    reports.append(report_from_residuals("laguerre-kummer-bridge", "k<=12, abar<=10", residuals, 1e-12))

    residuals = []
    for _ in range(100):
        x = rng.uniform(-19.5, 49.0)  # none of the 100 draws lies within 0.02 of a pole
        residuals.append((specfun.gamma(x + 1.0) - x * specfun.gamma(x)) / specfun.gamma(x + 1.0))
    reports.append(report_from_residuals("gamma-recurrence", "100 random x", residuals, 1e-11))
    return reports


# ---------------------------------------------------------------------------
# momentum
# ---------------------------------------------------------------------------

def suite_momentum() -> list[VerificationReport]:
    reports = []
    for n, ell, lam, k, abar in TRIPLES:
        p, sol, fac = _triple(n, ell, lam, k, abar)
        dom = SectorDomain(0.35 * p.rho_t, 2.1 * p.rho_t, 0.12, 0.75)
        reports.append(
            verify.pde_residual_momentum(
                p,
                lambda r, t: factorized_u(p, sol, fac, r, t),
                dom,
                grid=(50, 50),
                name=f"momentum-pde-{n}-{ell}-{lam:g}",
            )
        )

    # oscillator (Hill) form for a non-catalog lam, at ell = n k and off it
    residuals = []
    for p in (ModelParams(n=2, ell=2), ModelParams(n=2, ell=2.5)):
        sol = RadialSolution.kummer(p, 1.0)
        for rho0 in (0.6 * p.rho_t, 0.85 * p.rho_t, 1.35 * p.rho_t):
            z0 = hill_substitution_zeta(p, rho0)
            dz = 1e-3 * max(abs(z0), 1.0)
            vals = []
            rho_guess = rho0
            for i in (-2, -1, 0, 1, 2):
                target = z0 + i * dz
                rho = rho_guess
                for _ in range(60):
                    step = (hill_substitution_zeta(p, rho) - target) / zeta_bar(p, rho)
                    if rho - step == rho:
                        break
                    rho -= step
                rho_guess = rho
                vals.append(radial_row(p, sol, rho)[0])
            second = (-vals[4] + 16.0 * vals[3] - 30.0 * vals[2] + 16.0 * vals[1] - vals[0]) / (12.0 * dz * dz)
            g_coef = hill_coefficient_G(p, sol.lam, rho0)
            residuals.append((second + g_coef * vals[2]) / max(abs(second), abs(g_coef * vals[2]), 1e-300))
    reports.append(report_from_residuals("hill-reduction", "ell 2, 2.5 x 3 radii, 5-pt stencil", residuals, 1e-4))

    # characteristic slope identity, both regions, all four kinds
    p = ModelParams(n=2, ell=2)
    residuals = []
    for kind in CharacteristicKind:
        for rb in (1.3, 1.8, 2.4) if kind.hyperbolic else (0.4, 0.6, 0.85):
            rho = rb * p.rho_t
            fd = verify.fd_derivative(lambda r: characteristic_chi(p, kind, r, 0.2), rho, h=1e-6 * p.rho_t)
            exact = math.sqrt(abs(discriminant(p, rho))) / rho
            residuals.append((fd - exact) / exact)
    reports.append(report_from_residuals("characteristic-ode", "4 kinds x 3 radii, theta=0.2", residuals, 1e-6))

    # flow identity along the radial canonical coordinate
    residuals = []
    for rho in (1.4 * p.rho_t, 1.6 * p.rho_t, 2.0 * p.rho_t):
        lam_fn = lambda r: zeta_bar(p, r) * r / math.sqrt(discriminant(p, r))
        dmu = math.sqrt(discriminant(p, rho)) / rho
        lam_prime = verify.fd_derivative(lam_fn, rho, h=1e-6 * p.rho_t) / dmu
        residuals.append(
            (lam_prime + 4.0 * canonical_kappa(p, rho) * lam_fn(rho)) / abs(lam_prime)
        )
    reports.append(report_from_residuals("kappa-flow-identity", "3 hyperbolic radii", residuals, 1e-4))

    # the angularly symmetric solution's row: R' (zeta_bar) against the FD slope of R (Omega)
    omega = RadialSolution.omega()
    residuals = []
    for rho in (1.2 * p.rho_t, 1.9 * p.rho_t, 2.8 * p.rho_t):
        slope = radial_row(p, omega, rho)[1]
        fd = verify.fd_derivative(lambda r: radial_row(p, omega, r)[0], rho, h=1e-6 * p.rho_t)
        residuals.append((fd - slope) / slope)
    reports.append(report_from_residuals("omega-zeta-derivative", "3 radii, h=1e-6 rho_T", residuals, 1e-8))
    return reports


# ---------------------------------------------------------------------------
# map
# ---------------------------------------------------------------------------

def suite_map() -> list[VerificationReport]:
    reports, jac_residuals = [], []
    for n, ell, lam, k, abar in TRIPLES:
        p, sol, fac = _triple(n, ell, lam, k, abar)
        f = lambda r, t: forward_map(p, sol, fac, r, t)
        residuals = []
        for rho, theta in [(0.55 * p.rho_t, 0.5), (1.6 * p.rho_t, 0.35)]:
            mp = f(rho, theta)
            h = 1e-5 * max(abs(mp.x), abs(mp.y), 0.1)
            phi_at = verify.chart_phi_fn(p, sol, fac, (rho, theta))
            gx = (phi_at(mp.x + h, mp.y) - phi_at(mp.x - h, mp.y)) / (2.0 * h)
            gy = (phi_at(mp.x, mp.y + h) - phi_at(mp.x, mp.y - h)) / (2.0 * h)
            # each component to rel 1e-4 with abs 1e-8
            for grad, exact in ((gx, rho * math.cos(theta)), (gy, rho * math.sin(theta))):
                residuals.append((grad - exact) / max(abs(exact), 1e-4))

            # closed-form inverse Jacobian vs the FD differential, relative to the smaller
            h_r, h_t = 1e-5 * p.rho_t, 1e-5
            r_up, r_down = f(rho + h_r, theta), f(rho - h_r, theta)
            t_up, t_down = f(rho, theta + h_t), f(rho, theta - h_t)
            dx_r, dy_r = (r_up.x - r_down.x) / (2 * h_r), (r_up.y - r_down.y) / (2 * h_r)
            dx_t, dy_t = (t_up.x - t_down.x) / (2 * h_t), (t_up.y - t_down.y) / (2 * h_t)
            ct, st = math.cos(theta), math.sin(theta)
            fd_jac = (dx_r * ct - dx_t * st / rho) * (dy_r * st + dy_t * ct / rho) - (
                dx_r * st + dx_t * ct / rho
            ) * (dy_r * ct - dy_t * st / rho)
            jac_residuals.append((mp.jac_inv - fd_jac) / max(min(abs(mp.jac_inv), abs(fd_jac)), 1e-300))
        reports.append(
            report_from_residuals(f"legendre-gradient-{n}-{ell}-{lam:g}", "2 probes", residuals, 1e-4)
        )
    reports.append(report_from_residuals("jacobian-formula-fd", "3 triples x 2 probes", jac_residuals, 1e-4))

    p = ModelParams(n=2, ell=2)
    sol = RadialSolution.kummer(p, 1.0)
    fac = AngularFactor(lam=1.0, c1=0.7, c2=0.4)
    rng = np.random.default_rng(23)
    residuals = []
    for _ in range(100):
        rho = rng.uniform(0.1, 2.5) * p.rho_t
        theta = rng.uniform(-math.pi, math.pi)
        # forward_map's arithmetic without its chart check, which lam = 1 fails
        r, rp, _ = radial_row(p, sol, rho)
        residuals.append(_image(rho, r, rp, coeff_g(p, rho), fac.lam, fac.value(theta), fac.deriv(theta),
                                math.cos(theta), math.sin(theta))[3])
    reports.append(report_from_residuals("degenerate-lam1-jacobian", "100 random points", residuals, 1e-12))

    p, sol, fac = _triple(2, 0, 2.0, 1, 2.0)
    residuals = []
    for rho, theta in [(0.5 * p.rho_t, 0.6), (1.9 * p.rho_t, 0.3)]:
        mp = forward_map(p, sol, fac, rho, theta)
        back = invert_map(p, sol, fac, (mp.x, mp.y), (rho * 1.03, theta + 0.02))
        residuals.append((back.rho - rho) / rho)
        residuals.append(back.theta - theta)
    reports.append(report_from_residuals("inverse-roundtrip", "2 probes", residuals, 1e-10))
    return reports


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def suite_potentials() -> list[VerificationReport]:
    reports = []
    for n, ell, lam, k, abar in TRIPLES:
        p, sol, fac = _triple(n, ell, lam, k, abar)
        pts = [(0.5 * p.rho_t, 0.45), (0.62 * p.rho_t, 0.52), (1.55 * p.rho_t, 0.38)]
        closed = [quantum_potential(p, sol, fac, r, t) for r, t in pts]
        oracle = []
        for rho, theta in pts:
            mp = forward_map(p, sol, fac, rho, theta)
            seed = {"pt": (rho, theta)}

            def sqrt_f(x, y):
                back = invert_map(p, sol, fac, (x, y), seed["pt"])
                seed["pt"] = back
                return math.sqrt(density_F(p, abs(ALPHA) * back.rho))

            h = 5e-4 * max(math.hypot(mp.x, mp.y), 1e-3)
            c0 = sqrt_f(mp.x, mp.y)
            lap = (
                sqrt_f(mp.x + h, mp.y) + sqrt_f(mp.x - h, mp.y)
                + sqrt_f(mp.x, mp.y + h) + sqrt_f(mp.x, mp.y - h) - 4.0 * c0
            ) / h ** 2
            oracle.append(ALPHA / BETA * lap / c0)
        scale = max(abs(closed[1] - closed[0]), abs(closed[2] - closed[0]))
        residuals = [
            ((closed[i] - closed[0]) - (oracle[i] - oracle[0])) / scale for i in (1, 2)
        ]
        reports.append(
            report_from_residuals(f"qpotential-fd-differences-{n}-{ell}-{lam:g}", "3 probes", residuals, 1e-3)
        )

    rng = np.random.default_rng(42)
    residuals = []
    for _ in range(100):
        n = rng.uniform(0.7, 5.0)
        ell = rng.uniform(2.1, 9.0)
        sigma_r = rng.uniform(0.4, 2.5)
        r = rng.uniform(0.3, 4.0) * sigma_r
        params = ModelParams(n=n, ell=ell)
        pm = PsiModelParams(n=n, ell=ell, sigma_r=sigma_r, rho_t=params.rho_t)
        fac0 = AngularFactor(lam=0.0, c1=pm.c1, c2=0.3)
        q_gen = quantum_potential(params, RadialSolution.constant(), fac0, abs(pm.c1) / r, rng.uniform(-1, 1))
        q_ref = psi_quantum_potential(pm, r)
        residuals.append((q_gen - q_ref) / max(abs(q_ref), 1e-300))
    reports.append(report_from_residuals("vortex-reduction", "100 random draws", residuals, 5e-13))

    residuals = []
    pm = PsiModelParams(n=4, ell=6, sigma_r=1.0, rho_t=2.0)
    for r in (0.4, 1.0, 2.7, 9.0):
        residuals.append(hamilton_jacobi_residual(pm, r))
    reports.append(report_from_residuals("hamilton-jacobi-closure", "4 radii", residuals, 1e-10))
    return reports


# ---------------------------------------------------------------------------
# psi (vortex model)
# ---------------------------------------------------------------------------

def suite_psi() -> list[VerificationReport]:
    reports = []
    regimes = ("two-zeros", "critical", "single-zero")

    residuals = []
    for regime in regimes:
        pm = PsiModelParams.for_regime(4, 6, regime)
        for r in np.geomspace(0.3, 30.0, 20):
            residuals.append(schrodinger_residual_at(pm, float(r) * pm.sigma_r))
    reports.append(report_from_residuals("schrodinger-analytic", "3 regimes x 20 radii", residuals, 1e-8))

    # the radial Laplacian of the amplitude from central differences, step 1e-4 sigma_r
    residuals = []
    pm = PsiModelParams.for_regime(4, 6, "two-zeros")
    c, h = (pm.ell + 1.0) / pm.n, 1e-4 * pm.sigma_r
    amp = lambda r: r ** (-pm.ell / 2.0) * math.exp(-0.5 * c * pm.sigma_r ** pm.n / r ** pm.n)
    for r in (0.8, 1.5, 3.0):
        up, a0, down = amp(r + h), amp(r), amp(r - h)
        radial_lap = ((up - 2.0 * a0 + down) / h ** 2 + (up - down) / (2.0 * h * r)) / a0
        residuals.append(potentials._schrodinger_residual(pm, r, radial_lap))
    reports.append(report_from_residuals("schrodinger-fd", "3 radii, h=1e-4 sigma", residuals, 1e-4))

    pm = PsiModelParams(n=4, ell=6, sigma_r=1.3, rho_t=2.0)
    # the density does not depend on phi: the plane integral of r^p psi is 2 pi times one over r
    total, quad_m1, quad_m2 = [
        verify.adaptive_quad(lambda r: 2.0 * math.pi * r ** (p + 1) * psi_density(pm, r), 0.0)
        for p in (0, 1, 2)
    ]
    reports.append(report_from_residuals("normalization-quadrature", "plane integral", [total - 1.0], 1e-6))

    sig_quad = math.sqrt(quad_m2 - quad_m1 ** 2)
    sig_closed = sigma_r_closed_form(pm)
    reports.append(
        report_from_residuals("sigma-r-quadrature", "2-D moments", [(sig_quad - sig_closed) / sig_closed], 1e-6)
    )
    reports.append(
        report_from_residuals(
            "sigma-r-moments-closed",
            "Gamma forms",
            [(sigma_r_from_moments(pm) - sig_closed) / sig_closed],
            1e-12,
        )
    )

    residuals = []
    for regime in regimes:
        pmr = PsiModelParams.for_regime(4, 6, regime)
        residuals.extend(psi_classical_potential(pmr, r) for r in potential_zeros(pmr))
    reports.append(report_from_residuals("potential-zeros", "3 regimes", residuals, 1e-9))

    pm2 = PsiModelParams(n=4, ell=6, sigma_r=1.0, rho_t=2.0)
    t = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)
    circle = np.column_stack([1.7 * np.cos(t), 1.7 * np.sin(t)])
    ellipse = np.column_stack([2.5 * np.cos(t), 0.8 * np.sin(t)])
    ref = circulation_quantum(pm2)
    reports.append(
        report_from_residuals(
            "bohr-sommerfeld",
            "circle+ellipse, 1e4 segments",
            [(bohr_sommerfeld(pm2, circle) - ref) / ref, (bohr_sommerfeld(pm2, ellipse) - ref) / ref],
            1e-8,
        )
    )

    residuals = []
    expected = {"two-zeros": -2.0, "critical": -6.0, "single-zero": -2.0}
    for regime, slope_expected in expected.items():
        pmr = PsiModelParams.for_regime(4, 6, regime)
        r1, r2 = 1e3 * pmr.sigma_r, 2e3 * pmr.sigma_r
        slope = (
            math.log(abs(psi_classical_potential(pmr, r2))) - math.log(abs(psi_classical_potential(pmr, r1)))
        ) / (math.log(r2) - math.log(r1))
        residuals.append((slope - slope_expected) / abs(slope_expected))
    reports.append(report_from_residuals("potential-asymptotics", "log-log slopes", residuals, 0.02))
    return reports


#: Every suite, in the order `all` runs them.
_SUITES = {
    "specfun": suite_specfun,
    "momentum": suite_momentum,
    "map": suite_map,
    "potentials": suite_potentials,
    "psi": suite_psi,
}
SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str) -> list[VerificationReport]:
    """Run one named suite ('all' concatenates every suite in order)."""
    if name == "all":
        return [report for suite in _SUITES.values() for report in suite()]
    if name not in _SUITES:
        raise ParameterError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")
    return _SUITES[name]()
