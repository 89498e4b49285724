"""Independent reference formulas for the benchmark's output checks.

Nothing here imports hodoflow.  Every quantity is evaluated from the
definitions, with ``scipy.special`` for the special functions:

- the separated solution ``u = R(rho) Theta(theta)`` with
  ``R = rho_bar^nu T(tau)``, ``T`` a Kummer ``M`` (``hyp1f1``), a Tricomi
  ``U`` (``hyperu``) or, on the Laguerre catalog, ``(-1)^k L_k^(abar)``
  (``eval_genlaguerre``);
- the Legendre transform ``(x, y) = grad_p u`` and ``Phi = p . grad_p u - u``;
- the inverse Jacobian as the determinant of the momentum Hessian of ``u``,
  from ``R''`` and ``Theta''`` directly (no use of the momentum-space PDE);
- the speed density ``F`` in its ``sigma_{n,ell}`` form;
- the Bohm potential ``(alpha/beta) Lap sqrt(f) / sqrt(f)`` by finite
  differences over the inverted chart, with a Newton inverse of the map above;
- the sector normalization with both integrals split at the folds.

Units are those of the program's defaults: ``sigma_v = 1``, ``alpha = -1/2``,
``beta = 1``, so ``rho_T = 2``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special

SIGMA_V = 1.0
ALPHA = -0.5
BETA = 1.0
RHO_T = SIGMA_V / abs(ALPHA)


class Solution:
    """One separated solution, built from a case dictionary of the benchmark."""

    def __init__(self, case: dict):
        self.n = float(case["n"])
        self.ell = float(case["ell"])
        self.lam = float(case["lam"])
        self.kind = case["radial"]
        self.c1 = float(case["fc1"])
        self.c2 = float(case["fc2"])
        n, ell, lam = self.n, self.ell, self.lam
        if self.kind == "laguerre":
            self.k = int(case["k"])
            self.nu = lam * lam - self.k * n
            self.abar = (2.0 * self.nu + ell) / n
        else:
            root = math.sqrt(ell * ell / 4.0 + lam * lam * (ell + 1.0))
            self.nu = -ell / 2.0 + (root if self.kind.endswith("+") else -root)
            self.a = (self.nu - lam * lam) / n
            self.b = (2.0 * self.nu + n + ell) / n

    def tau(self, rho):
        return (self.ell + 1.0) / self.n * (np.asarray(rho) / RHO_T) ** self.n

    def kernel(self, tau):
        """T(tau) and its first two tau-derivatives."""
        if self.kind == "laguerre":
            k, ab = self.k, self.abar
            sign = -1.0 if k % 2 else 1.0
            t0 = special.eval_genlaguerre(k, ab, tau)
            t1 = -special.eval_genlaguerre(k - 1, ab + 1.0, tau) if k >= 1 else 0.0 * tau
            t2 = special.eval_genlaguerre(k - 2, ab + 2.0, tau) if k >= 2 else 0.0 * tau
            return sign * t0, sign * t1, sign * t2
        a, b = self.a, self.b
        if self.kind.startswith("tricomi"):
            # U'' from Kummer's equation z U'' + (b - z) U' - a U = 0: scipy's
            # hyperu(a + 2, b + 2, z) has NaN holes for negative b + 2
            t0 = special.hyperu(a, b, tau)
            t1 = -a * special.hyperu(a + 1.0, b + 1.0, tau)
            return t0, t1, (a * t0 - (b - tau) * t1) / tau
        return (
            special.hyp1f1(a, b, tau),
            a / b * special.hyp1f1(a + 1.0, b + 1.0, tau),
            a * (a + 1.0) / (b * (b + 1.0)) * special.hyp1f1(a + 2.0, b + 2.0, tau),
        )

    def radial(self, rho):
        """R, dR/drho and d2R/drho2 (up to the solution's constant scale)."""
        rho = np.asarray(rho, dtype=float)
        n, nu = self.n, self.nu
        rb = rho / RHO_T
        tau = self.tau(rho)
        t0, t1, t2 = self.kernel(tau)
        r0 = rb ** nu * t0
        inner = nu * t0 + n * tau * t1
        r1 = rb ** (nu - 1.0) * inner / RHO_T
        r2 = rb ** (nu - 2.0) * (
            (nu - 1.0) * inner + nu * n * tau * t1 + n * n * tau * t1 + n * n * tau * tau * t2
        ) / RHO_T ** 2
        return r0, r1, r2

    def angular(self, theta):
        """Theta, Theta' and Theta''."""
        lam = self.lam
        s, c = np.sin(lam * np.asarray(theta)), np.cos(lam * np.asarray(theta))
        th0 = self.c1 * s + self.c2 * c
        th1 = lam * (self.c1 * c - self.c2 * s)
        return th0, th1, -lam * lam * th0


def map_fields(sol: Solution, rho, theta) -> dict:
    """Legendre-transform image of (rho, theta); arrays broadcast together."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    r0, r1, r2 = sol.radial(rho)
    t0, t1, t2 = sol.angular(theta)
    ct, st = np.cos(theta), np.sin(theta)
    u_r = r1 * t0                  # du/drho
    u_t_over = r0 * t1 / rho       # (1/rho) du/dtheta
    x = u_r * ct - u_t_over * st
    y = u_r * st + u_t_over * ct
    phi = rho * u_r - r0 * t0
    # det of the momentum Hessian of u in polar form
    u_rr = r2 * t0
    lap_rest = u_r / rho + r0 * t2 / rho ** 2
    cross = (r1 * t1 * rho - r0 * t1) / rho ** 2
    jac = u_rr * lap_rest - cross ** 2
    return {"x": x, "y": y, "phi": phi, "jac_inv": jac, "u": r0 * t0, "theta_val": t0, "T": sol.kernel(sol.tau(rho))[0]}


def density(n: float, ell: float, speed):
    """F(z) = (z/s)^ell 2^(-ell/2) exp(-(z/s)^n 2^(-n/2)), s = sigma_{n,ell}."""
    s = SIGMA_V / math.sqrt(2.0) * (n / (ell + 1.0)) ** (1.0 / n)
    w = np.asarray(speed, dtype=float) / s
    return w ** ell * 2.0 ** (-ell / 2.0) * np.exp(-(w ** n) * 2.0 ** (-n / 2.0))


def map_jacobian(sol: Solution, rho: float, theta: float) -> np.ndarray:
    """d(x, y) / d(rho, theta) of the map, from R, R', R'' and Theta, Theta', Theta''."""
    r0, r1, r2 = (float(v) for v in sol.radial(rho))
    t0, t1, t2 = (float(v) for v in sol.angular(theta))
    ct, st = math.cos(theta), math.sin(theta)
    u_r, u_rr, u_rt = r1 * t0, r2 * t0, r1 * t1
    w, w_r, w_t = r0 * t1 / rho, (r1 * t1 * rho - r0 * t1) / rho ** 2, r0 * t2 / rho  # w = u_theta / rho
    return np.array([
        [u_rr * ct - w_r * st, (u_rt - w) * ct - (u_r + w_t) * st],
        [u_rr * st + w_r * ct, (u_rt - w) * st + (u_r + w_t) * ct],
    ])


def invert(sol: Solution, target, seed) -> tuple[float, float]:
    """Momentum point (rho, theta) whose image is ``target``, by Newton from ``seed``."""

    def resid(v):
        f = map_fields(sol, v[0], v[1])
        return [float(f["x"]) - target[0], float(f["y"]) - target[1]]

    # analytic Jacobian: hybr's forward differences step by a share of each
    # variable, which is no step at all at theta = -3e-17 on a symmetric grid
    out = optimize.root(resid, seed, jac=lambda v: map_jacobian(sol, v[0], v[1]),
                        method="hybr", tol=1e-15)
    # hybr reports "no further improvement" once the residual sits at rounding level
    if not math.hypot(*resid(out.x)) <= 1e-12 * math.hypot(*target):
        raise ArithmeticError(f"reference inversion failed at {target}: {out.message}")
    return float(out.x[0]), float(out.x[1])


def bohm_potential_fd(sol: Solution, rho: float, theta: float, h_rel: float = 2.5e-4) -> float:
    """(alpha/beta) Lap sqrt(f) / sqrt(f) by five-point stencils in coordinates.

    The stencils at steps h and h/2 are combined by Richardson extrapolation,
    which leaves an O(h^4) truncation error.
    """
    f = map_fields(sol, rho, theta)
    x0, y0 = float(f["x"]), float(f["y"])
    centre = math.sqrt(float(density(sol.n, sol.ell, abs(ALPHA) * rho)))

    def sqrt_f(x, y):
        r, _ = invert(sol, (x, y), (rho, theta))
        return math.sqrt(float(density(sol.n, sol.ell, abs(ALPHA) * r)))

    def laplacian(h):
        return (
            sqrt_f(x0 + h, y0) + sqrt_f(x0 - h, y0) + sqrt_f(x0, y0 + h) + sqrt_f(x0, y0 - h)
            - 4.0 * centre
        ) / h ** 2

    h = h_rel * max(math.hypot(x0, y0), 1e-3)
    lap = (4.0 * laplacian(h / 2.0) - laplacian(h)) / 3.0
    return ALPHA / BETA * lap / centre


def fold_angles(sol: Solution, rho: float, lo: float, hi: float) -> list[float]:
    """Angles in (lo, hi) where the inverse Jacobian vanishes, for Theta = cos(lam theta).

    With ``c1 = 0`` the zero set solves ``tan^2(lam theta) = -g w2^2 / (lam^2 w1^2)``,
    ``g = (ell+1)(1 - rho_bar^n)``, ``w1 = rho R' - R``, ``w2 = rho R' - lam^2 R``;
    it is empty where ``g >= 0``.
    """
    if sol.c1 != 0.0:
        raise ValueError("closed-form fold angles need c1 = 0")
    lam = sol.lam
    g = (sol.ell + 1.0) * (1.0 - (rho / RHO_T) ** sol.n)
    if g >= 0.0:
        return []
    r0, r1, _ = sol.radial(rho)
    w1, w2 = rho * r1 - r0, rho * r1 - lam * lam * r0
    base = math.pi / 2.0 if w1 == 0.0 else math.atan(math.sqrt(-g) * abs(w2) / (lam * abs(w1)))
    out = []
    j_lo, j_hi = math.floor((lam * lo - base) / math.pi) - 1, math.ceil((lam * hi + base) / math.pi) + 1
    for j in range(j_lo, j_hi + 1):
        for ang in ((base + j * math.pi) / lam, (-base + j * math.pi) / lam):
            if lo < ang < hi:
                out.append(ang)
    return sorted(out)


def normalization(sol: Solution, rho_lo: float, rho_hi: float, th_lo: float, th_hi: float,
                  epsrel: float = 1e-13) -> float:
    """1 / integral of F(|alpha| rho) |J^-1| rho over the sector, split at the folds."""

    def ring(rho: float) -> float:
        r0, r1, r2 = (float(v) for v in sol.radial(rho))

        def integrand(theta: float) -> float:
            t0, t1, t2 = (float(v) for v in sol.angular(theta))
            u_rr = r2 * t0
            rest = r1 * t0 / rho + r0 * t2 / rho ** 2
            cross = (r1 * t1 * rho - r0 * t1) / rho ** 2
            return abs(u_rr * rest - cross ** 2)

        cuts = [th_lo, *fold_angles(sol, rho, th_lo, th_hi), th_hi]
        total = sum(
            integrate.quad(integrand, a, b, epsabs=0.0, epsrel=epsrel, limit=200)[0]
            for a, b in zip(cuts[:-1], cuts[1:])
        )
        return float(density(sol.n, sol.ell, abs(ALPHA) * rho)) * total * rho

    # the ring integral has a kink where a fold angle meets an edge of the sector
    grid = np.linspace(rho_lo, rho_hi, 65)
    counts = [len(fold_angles(sol, r, th_lo, th_hi)) for r in grid]
    cuts = [rho_lo]
    for i in range(len(grid) - 1):
        if counts[i] != counts[i + 1]:
            cuts.append(_fold_edge_radius(sol, grid[i], grid[i + 1], th_lo, th_hi, counts[i]))
    cuts.append(rho_hi)
    inv = sum(
        integrate.quad(ring, a, b, epsabs=0.0, epsrel=epsrel, limit=200)[0]
        for a, b in zip(cuts[:-1], cuts[1:])
    )
    return 1.0 / inv


def _fold_edge_radius(sol: Solution, a: float, b: float, th_lo: float, th_hi: float,
                      count_a: int) -> float:
    """Radius in (a, b) where the number of fold angles inside the sector changes."""
    for _ in range(200):
        mid = 0.5 * (a + b)
        if len(fold_angles(sol, mid, th_lo, th_hi)) == count_a:
            a = mid
        else:
            b = mid
        if b - a <= 4e-16 * b:
            break
    return 0.5 * (a + b)


def psi_potential_bracket(n: float, ell: float, sigma_r: float, rho_t: float, r: float) -> tuple[float, float]:
    """Bracket of the vortex model's U(r) = -(1/(8 r^2)) [...] and the size of its terms.

    ``[...] = (rho_t sigma_r)^2 - ell^2 + 2 (ell+1)(ell+n) s - (ell+1)^2 s^2``
    with ``s = (sigma_r / r)^n``.
    """
    s = (sigma_r / r) ** n
    terms = ((rho_t * sigma_r) ** 2, -ell ** 2, 2.0 * (ell + 1.0) * (ell + n) * s, -((ell + 1.0) * s) ** 2)
    return sum(terms), max(abs(t) for t in terms)
