"""Independent test oracles for the momentum-space catalog and the radial flow.

Each one recomputes a library result along a second, deliberately naive
path, so the tests compare two derivations instead of one against itself.
"""

import math

import pytest

from hodoflow.errors import ParameterError
from hodoflow.maxwell import ALPHA, BETA, EPS_PARABOLIC


def frobenius_roots(ell: float, lam: float) -> tuple[float, float]:
    """Indicial roots of nu^2 + nu (g0 - 1) - lam^2 g0 = 0 with g0 = ell + 1.

    Independent algebraic path kept for cross-checks against
    :func:`hodoflow.momentum.nu_roots`.
    """
    g0 = ell + 1.0
    disc = math.sqrt((g0 - 1.0) ** 2 + 4.0 * lam * lam * g0)
    return (-(g0 - 1.0) + disc) / 2.0, (-(g0 - 1.0) - disc) / 2.0


def brute_force_orders(n: float, ell: float, lam: float, k_max: int = 200) -> list[int]:
    """Integer orders k satisfying the degeneration condition, by direct scan.

    Kept deliberately naive: it double-checks the closed-form enumeration.
    """
    lam2 = lam * lam
    hits = []
    for k in range(0, k_max + 1):
        kn = k * n
        if k == 0:
            if abs(lam2 * (lam2 - 1.0)) <= 1e-9 * max(1.0, lam2 ** 2) and lam >= 1.0 - 1e-12:
                hits.append(k)
            continue
        residual = kn * ell - ((lam2 - kn) ** 2 - lam2)
        if abs(residual) <= 1e-6 * max(1.0, lam2 ** 2) and kn <= math.sqrt(
            max(lam2 * (lam2 - 1.0), 0.0)
        ) * (1.0 + 1e-9):
            hits.append(k)
    return hits


def polar_quad(f, r_range: tuple[float, float], phi_range: tuple[float, float], tol: float) -> float:
    """Integral of f(r, phi) over the polar measure r dr dphi by nested
    ``scipy.integrate.quad``, with tol as both its absolute and its relative
    tolerance: phi inside, r outside (an infinite r bound is quad's own)."""
    integrate = pytest.importorskip("scipy.integrate")

    def ring(r: float) -> float:
        return r * integrate.quad(lambda phi: f(r, phi), *phi_range, epsabs=tol, epsrel=tol, limit=200)[0]

    return integrate.quad(ring, *r_range, epsabs=tol, epsrel=tol, limit=300)[0]


def radial_flow_q(params, rho: float) -> float:
    """Quantum potential of the angularly symmetric hyperbolic flow at rho > rho_T.

    Chain rule through the radial map r = zeta_bar(rho):
    (alpha/beta) (Lap sqrt f)/sqrt f with Lap = d^2/dr^2 + (1/r) d/dr, written
    in closed form from f(rho) and zeta_bar; the library evaluates the same
    flow through the general separated closed form instead.
    """
    n, ell = params.n, params.ell
    tau = params.tau(rho)
    rbn = params.rho_bar(rho) ** n
    zb = params.rho_bar(rho) ** (-(ell + 1.0)) * math.exp(tau)
    # p = d ln sqrt(f) / drho;  w = dr/drho
    p = (ell - n * tau) / (2.0 * rho)
    p_prime = -(n * n * tau + ell - n * tau) / (2.0 * rho ** 2)
    w = zb * (ell + 1.0) * (rbn - 1.0) / rho
    w_prime = w * (ell + 1.0) * (rbn - 1.0) / rho + zb * (ell + 1.0) * ((n - 1.0) * rbn + 1.0) / rho ** 2
    lap_over = (p_prime * w - p * w_prime) / w ** 3 + (p / w) ** 2 + p / (w * zb)
    return ALPHA / BETA * lap_over


def coeff_h_bar(params, rho: float) -> float:
    """The quasilinear coefficient h in momentum form, evaluated directly from
    its own formula: ``ell / rho^2 - n |alpha|^n rho^(n-2) / (sigma_nl^n 2^(n/2))``."""
    s2n = params.sigma_nl ** params.n * 2.0 ** (params.n / 2.0)
    return params.ell / rho ** 2 - params.n * abs(ALPHA) ** params.n * rho ** (params.n - 2.0) / s2n


def band_edge_radii(params) -> list[float]:
    """rho_T (1 -+ EPS_PARABOLIC), the edges of the parabolic band of
    :func:`hodoflow.maxwell.classify`, and the radii one ulp to either side
    of each, in ascending order: where a second implementation of the band
    rule would first disagree with it."""
    edges = (params.rho_t * (1.0 - EPS_PARABOLIC), params.rho_t * (1.0 + EPS_PARABOLIC))
    return [r for edge in edges for r in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))]


def nu_plus(case) -> float:
    """The exponent nu+ = lam^2 - k n of a Laguerre catalog case, from the
    degeneration condition a+ = -k rather than from the indicial roots."""
    return case.lam ** 2 - case.k * case.n


def extremum_angle(fac) -> float:
    """An angle theta_e = (pi/2 - atan2(c2, c1)) / lam with Theta'(theta_e) = 0
    (lam > 0 only)."""
    if fac.lam == 0.0:
        raise ParameterError("the linear angular factor has no extremum")
    return (math.pi / 2.0 - math.atan2(fac.c2, fac.c1)) / fac.lam
