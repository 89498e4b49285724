"""Exact momentum-space solutions: polynomial catalog, separated solutions,
the oscillator form, and the angularly symmetric hyperbolic solution.

In the scaled variable tau the radial equation is confluent hypergeometric;
for special (lam, ell) pairs the regular branch terminates in a generalized
Laguerre polynomial.  This demo enumerates those pairs, evaluates one of the
separated solutions, and verifies the equation residual on the fly.

Run:  python3 demos/02_momentum_space_solutions.py
"""

from hodoflow import (
    AngularFactor,
    ModelParams,
    RadialSolution,
    SectorDomain,
    factorized_u,
    hill_coefficient_G,
    hyperbolic_omega,
    laguerre_enumerate,
    laguerre_enumerate_for_ell,
    pde_residual_momentum,
    zeta_bar,
)
from hodoflow.momentum import LaguerreCase, radial_row

print("=== polynomial radial factors for n = 2, integer lam ===")
print(f"{'lam':>4} {'k':>3} {'ell':>10} {'alpha_bar':>10}")
for case in laguerre_enumerate(2.0, [2.0, 3.0, 4.0], ell_max=1e9):
    print(f"{case.lam:>4g} {case.k:>3d} {case.ell:>10.6g} {case.alpha_bar:>10.6g}")

print()
print("=== fixed (n, ell) = (2, 2): lam values admitting polynomials ===")
for case in laguerre_enumerate_for_ell(2.0, 2.0, k_max=12):
    tag = " (integer lam^2)" if abs(case.lam ** 2 - round(case.lam ** 2)) < 1e-9 else ""
    print(f"lam = {case.lam:.6f}  k = {case.k:<2d} alpha_bar = {case.alpha_bar:.6f}{tag}")

print()
print("=== a separated solution and its equation residual ===")
p = ModelParams(n=2, ell=4)
case = LaguerreCase(lam=3.0, k=2, n=2.0, ell=4.0, alpha_bar=7.0)
sol = RadialSolution.from_laguerre_case(p, case)
fac = AngularFactor(lam=3.0, c1=1.0, c2=0.0)
print(f"u(rho, theta) = (-1)^2 rho_bar^{sol.exponents(p)[0]:g} L_2^(7)(tau) sin(3 theta)")
for rho_bar, theta in [(0.5, 0.4), (1.0, 0.4), (1.7, 0.4)]:
    print(f"  u({rho_bar} rho_T, {theta}) = {factorized_u(p, sol, fac, rho_bar * p.rho_t, theta):+.6f}")
report = pde_residual_momentum(
    p, lambda r, t: factorized_u(p, sol, fac, r, t),
    SectorDomain(0.4 * p.rho_t, 1.9 * p.rho_t, 0.15, 0.9), grid=(20, 20), name="momentum-pde-2-4-3",
)
print(f"  FD residual of the polar equation over a 20x20 grid: max {report.max_abs:.2e}")

print()
print("=== oscillator form: the squared frequency changes sign at rho_T ===")
for rho_bar in (0.5, 0.9, 1.0, 1.2, 1.8):
    g_val = hill_coefficient_G(p, 3.0, rho_bar * p.rho_t)
    print(f"  G({rho_bar} rho_T) = {g_val:+.5f}")

print()
print("=== angularly symmetric hyperbolic solution ===")
p0 = ModelParams(n=2, ell=0)
omega = RadialSolution.omega()
print("Omega is zeta shifted by a constant, so d Omega/d rho is the map radius zeta_bar:")
for rho_bar in (1.2, 1.6, 2.2):
    rho = rho_bar * p0.rho_t
    slope = radial_row(p0, omega, rho)[1]
    print(f"  rho = {rho_bar} rho_T: Omega = {hyperbolic_omega(p0, rho):+.6f}, "
          f"Omega' = {slope:.6f}, zeta_bar = {zeta_bar(p0, rho):.6f}")
