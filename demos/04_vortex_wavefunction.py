"""The closed-form vortex state: potentials, zeros, circulation, spreads.

With a constant radial factor and a linear angular factor, the mapped flow
becomes an exact stationary wavefunction with an azimuthal probability flux
~ 1/r.  Its external potential has three far-field regimes selected by the
size of |c1| = rho_t sigma_r against ell, the circulation around the vortex
core is quantized, and all moments of the density are Gamma functions.

Run:  python3 demos/04_vortex_wavefunction.py
"""

import math

import numpy as np

from hodoflow import (
    PsiModelParams,
    bohr_sommerfeld,
    circulation_quantum,
    potential_zeros,
    psi_classical_potential,
    psi_model_eval,
    radial_moments,
    schrodinger_residual_at,
    sigma_r_closed_form,
    sigma_r_from_moments,
)

print("=== three far-field regimes for (n, ell) = (4, 6) ===")
for regime in ("two-zeros", "critical", "single-zero"):
    pm = PsiModelParams.for_regime(4, 6, regime)
    zeros = ", ".join(f"{z:.4f}" for z in potential_zeros(pm))
    u_far = psi_classical_potential(pm, 1e3 * pm.sigma_r)
    print(f"{regime:>12}: |c1| = {abs(pm.c1):.2f} vs ell = {pm.ell:g}; "
          f"U zeros at r = [{zeros}] sigma_r; sign of U at 1e3 sigma: {'+' if u_far > 0 else '-'}")

print()
print("=== the state solves its wave equation to working precision ===")
pm = PsiModelParams.for_regime(4, 6, "two-zeros")
worst = max(schrodinger_residual_at(pm, r) for r in np.geomspace(0.3, 30.0, 40).tolist())
print(f"analytic-derivative residual over 40 radii: max {worst:.2e}")

print()
print("=== a profile slice ===")
print(f"{'r/sigma':>8} {'density':>12} {'Q':>12} {'U':>12} {'v_phi':>10}")
for r_bar in (0.6, 0.9, 1.3, 2.0, 3.5):
    r = r_bar * pm.sigma_r
    out = psi_model_eval(pm, r, phi=0.0)
    print(f"{r_bar:>8.2f} {out['density']:>12.6f} {out['Q']:>12.5f} {out['U']:>12.5f} {out['v_phi']:>10.5f}")

print()
print("=== quantized circulation, independent of the contour shape ===")
t = np.linspace(0.0, 2.0 * math.pi, 20_000, endpoint=False)
circle = np.column_stack([1.3 * np.cos(t), 1.3 * np.sin(t)])
ellipse = np.column_stack([3.1 * np.cos(t), 0.6 * np.sin(t)])
print(f"quantum (h/2)|c1|    = {circulation_quantum(pm):.10f}")
print(f"circle  integral     = {bohr_sommerfeld(pm, circle):.10f}")
print(f"ellipse integral     = {bohr_sommerfeld(pm, ellipse):.10f}")

print()
print("=== radial moments and the true radial spread ===")
pm8 = PsiModelParams(n=4, ell=8, sigma_r=1.0, rho_t=2.0)
print(f"<1>    = {radial_moments(pm8, 0):.12f} (normalization)")
print(f"<r>    = {radial_moments(pm8, 1):.12f}")
print(f"<r^2>  = {radial_moments(pm8, 2):.12f}")
print(f"sigma_r(true) from moments     = {sigma_r_from_moments(pm8):.12f}")
print(f"sigma_r(true) pure Gamma form  = {sigma_r_closed_form(pm8):.12f}")
print("(the model's scale parameter sigma_r = 1 differs from the true spread)")
