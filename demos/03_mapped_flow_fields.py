"""Coordinate-space flow fields through the inverse Legendre transform.

A momentum sector maps to a coordinate-space patch carrying the phase, the
velocity field (speed |alpha| rho along the momentum direction), the density
evaluated at the local speed, and the quantum and classical potentials.  The
demo reproduces the three benchmark hyperbolic sectors and the radially
symmetric flow with its empty core, and prints the command line that writes
the same fields as a CSV.

Run:  python3 demos/03_mapped_flow_fields.py
"""

import math
import warnings

import numpy as np

from hodoflow import (
    AngularFactor,
    ModelParams,
    RadialSolution,
    SectorDomain,
    UnivalenceWarning,
    forward_map,
    invert_map,
    sample_fields,
)
from hodoflow.maxwell import ALPHA
from hodoflow.momentum import LaguerreCase

SECTORS = [
    (2, 0, 2.0, 1, 2.0, 1.8, 2.4, 12.0),
    (2, 4, 3.0, 2, 7.0, 1.5, 1.89, 15.0),
    (2, 2, 4.0, 5, 7.0, 1.45, 1.75, 12.0),
]

print("=== hyperbolic sectors: speed windows and density contrast ===")
for n, ell, lam, k, abar, r1, r2, tmax in SECTORS:
    p = ModelParams(n=n, ell=ell)
    sol = RadialSolution.from_laguerre_case(
        p, LaguerreCase(lam=lam, k=k, n=float(n), ell=float(ell), alpha_bar=abar)
    )
    fac = AngularFactor(lam=lam, c1=0.0, c2=1.0)  # symmetric sector about theta = 0
    dom = SectorDomain(r1 * p.rho_t, r2 * p.rho_t, -math.radians(tmax), math.radians(tmax))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnivalenceWarning)
        fields = sample_fields(p, sol, fac, dom, grid=(10, 9))
    print(f"(n, ell, lam) = ({n}, {ell}, {lam:g}): speeds in [{fields.speed.min():.3f}, {fields.speed.max():.3f}] "
          f"(window [{r1}, {r2}] sigma_v), density in [{fields.density.min():.4f}, {fields.density.max():.4f}]"
          " - slowest points are densest on the distribution tail")

print()
print("=== roundtrip through the numerical inverse ===")
p = ModelParams(n=2, ell=4)
sol = RadialSolution.from_laguerre_case(p, LaguerreCase(lam=3.0, k=2, n=2.0, ell=4.0, alpha_bar=7.0))
fac = AngularFactor(lam=3.0, c1=1.0, c2=0.0)
mp = forward_map(p, sol, fac, 1.1 * p.rho_t, 0.5)
back = invert_map(p, sol, fac, (mp.x, mp.y), (1.2 * p.rho_t, 0.45))
print(f"forward(1.1 rho_T, 0.5) = ({mp.x:.6f}, {mp.y:.6f}); inverse recovers "
      f"(rho, theta) = ({back.rho / p.rho_t:.12f} rho_T, {back.theta:.12f})")

print()
print("=== radially symmetric hyperbolic flow: empty core of radius e^((ell+1)/n) ===")
# Omega(rho) is the lam = 0 separated solution with Theta = 1; Omega' =
# zeta_bar, so rho maps to radius zeta_bar(rho)
p0 = ModelParams(n=2, ell=0)
omega_chart = (p0, RadialSolution.omega(), AngularFactor(lam=0.0, c1=0.0, c2=1.0))
floor = math.exp((p0.ell + 1.0) / p0.n)
print(f"image floor r_min = {floor:.6f}")
for rho_bar in (1.05, 1.4, 2.0):
    mp = forward_map(*omega_chart, rho_bar * p0.rho_t, 0.0)
    print(f"  rho = {rho_bar} rho_T maps to r = {math.hypot(mp.x, mp.y):.6f}, "
          f"speed = {abs(ALPHA) * rho_bar * p0.rho_t:.3f}")

dom = SectorDomain(1.2 * p0.rho_t, 2.2 * p0.rho_t, 0.0, 2.0 * math.pi - 1e-9)
fields = sample_fields(*omega_chart, dom, grid=(8, 12))
print(f"sampled {len(fields)} radial-flow records; min radius in the image: "
      f"{np.hypot(fields.x, fields.y).min():.6f}")
print()
print("The same exports are available from the command line, e.g.")
print("  hodoflow map-fields --n 2 --ell 4 --lambda 3 --rho-min 1.5 --rho-max 1.89 \\")
print("      --theta-min -15 --theta-max 15 --output fields.csv")
