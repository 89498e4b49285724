"""Speed distributions and the three regions of the linearized equation.

The model starts from a density that depends on position only through the
flow speed z: F(z) ~ z^ell exp(-const z^n).  Tying the distribution scale to
the unit of speed SIGMA_V makes every member of the family share the same
sonic speed: below it the linearized momentum-space equation is elliptic,
above it hyperbolic.

Run:  python3 demos/01_speed_distributions_and_regions.py
"""

import math

import numpy as np

from hodoflow import (
    ModelParams,
    classify,
    coeff_g,
    density_F,
    density_F_speed_integral,
    discriminant,
    slope_rho_theta,
)
from hodoflow.maxwell import SIGMA_V

print("=== the generalized Maxwell family ===")
for n, ell, label in [(2, 0, "Gaussian"), (2, 2, "classical Maxwell"), (4, 6, "flat-top")]:
    p = ModelParams(n=n, ell=ell)
    zs = np.linspace(0.05, 3.0, 8) * SIGMA_V
    mode = SIGMA_V * (ell / (ell + 1.0)) ** (1.0 / n) if ell > 0 else 0.0
    print(f"n={n} ell={ell} ({label}): mode at z = {mode:.4f}, "
          f"speed integral = {density_F_speed_integral(p):.6f}")
    print("   F(z):", " ".join(f"{density_F(p, float(z)):.4f}" for z in zs))

print()
print("=== region classification (rho in units of rho_T) ===")
p = ModelParams(n=2, ell=2)
print(f"sonic radius rho_T = sigma_v/|alpha| = {p.rho_t}")
for rho_bar in (0.25, 0.5, 0.999999, 1.0, 1.5, 2.0, 3.0):
    rho = rho_bar * p.rho_t
    print(f"rho/rho_T = {rho_bar:<9g} Delta = {discriminant(p, rho):+.4f}  "
          f"g = {coeff_g(p, rho):+.4f}  -> {classify(p, rho).value}")

print()
print("=== characteristic slope d rho/d theta and its n-dependence ===")
for n in (1, 2, 3):
    p = ModelParams(n=n, ell=2)
    far = slope_rho_theta(p, 100.0 * p.rho_t)
    print(f"n={n}: slope at 100 rho_T = {far / p.rho_t:.4f} rho_T "
          f"(n=2 tends to rho_T/sqrt(ell+1) = {1.0 / math.sqrt(3.0):.4f}, n>2 to 0, n<2 grows)")
