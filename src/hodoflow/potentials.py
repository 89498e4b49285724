"""Quantum and classical potentials of the mapped flows, and the closed-form
vortex wavefunction model (lam = 0, constant radial factor).

The quantum potential of a mapped separated solution has a closed form that
is rational in the four quantities

    z1 = Rcal - 1,  z2 = Rcal - lam^2,  z3 = g,  z4 = Upsilon,

where ``Rcal`` and ``Upsilon`` are the radial and angular log-derivative
combinations.  The classical potential follows from stationarity:
``U = (1/(4 alpha beta)) |v|^2 - Q + E`` with ``E = 0`` in the eigen-frame
convention used throughout (the constant would shift Q and E together and
cancel in U).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import momentum, specfun
from .errors import DivergenceError, DomainError, NodeError, ParameterError
from .maxwell import ALPHA, BETA, ModelParams, coeff_g, normalization_psi_model, require_finite
from .momentum import AngularFactor, RadialSolution

HBAR = 1.0
MASS = 1.0

#: :func:`bohr_sommerfeld` rejects contours that come closer to the velocity
#: pole at the origin than this radius.
POLE_MIN_RADIUS = 1e-12


def _a_coeffs(n: float, ell: float, lam: float, z1: float, z2: float, z3: float) -> tuple[float, float, float]:
    lam2 = lam * lam
    z1_2, z2_2 = z1 * z1, z2 * z2
    a0 = z2_2 * z2 * (lam2 * z1 * (1.0 - z3) * z3 + z2 * ((1.0 - n) * z3 + n * (ell + 1.0)))
    a1 = z1 * z2 * (
        z1 * z2 * (2.0 * (z3 * z3) + (3.0 + n) * (1.0 - z3) + n * ell)
        + 3.0 * (1.0 - z3) * (z2_2 * z3 - lam2 * z1_2)
    )
    a2 = z1_2 * z1 * (z1 - z2 * (1.0 - z3))
    return a0, a1, a2


def _mapped_q(params: ModelParams, lam: float, rho, u, z1, z2, z3, z4, denom):
    """The closed form: ALPHA rho^2 / (2 BETA u^2) times the bracket A + B.

    Elementwise on floats or broadcast arrays (z1..z3 per rho row, z4 per
    theta column); ``a0, a1, a2`` depend on z1..z3 only, so over a grid they
    are computed once per rho row.  ``denom`` is ``z1^2 z4^2 + z3 z2^2``, and
    the caller excludes points where it vanishes: a float divides by zero
    there, an array holds inf or NaN.
    """
    n, ell = params.n, params.ell
    a0, a1, a2 = _a_coeffs(n, ell, lam, z1, z2, z3)
    z4_2, denom_2, z3_1 = z4 * z4, denom * denom, z3 - 1.0
    part_a = z3_1 * (a0 + a1 * z4_2 + a2 * (z4_2 * z4_2)) / (denom_2 * denom)
    part_b = (
        (z1 * z1 * z4_2 + z2 * z2)
        / denom_2
        * (0.5 * (z3_1 * z3_1) + z3_1 * (n - 1.0) - n * ell)
    )
    return ALPHA * (rho * rho) / (2.0 * BETA * (u * u)) * (part_a + part_b)


def stationary_u(rho, q):
    """External potential from stationarity, U = ALPHA rho^2/(4 BETA) - Q (E = 0 frame), given Q."""
    return ALPHA * (rho * rho) / (4.0 * BETA) - q


def quantum_potential(
    params: ModelParams,
    sol: RadialSolution,
    fac: AngularFactor,
    rho: float,
    theta: float,
) -> float:
    """Closed-form quantum potential of a mapped separated solution.

    Reported with its natural additive constant; comparisons against the
    finite-difference oracle are made on point differences, where the free
    constant cancels.  One point of :func:`potentials_on_grid`, on NumPy
    floats, so the two share their node rule and their bits.  Raises
    :class:`DegenerateMapError` for lam = 1 and a constant u, where no
    coordinate chart exists, and :class:`ParameterError` for a sol and fac
    that are not one solution of params (:func:`momentum.require_chart`);
    :class:`DomainError` where the radial factor cannot be evaluated or u^2
    is beyond the float range; :class:`NodeError` where
    :func:`potentials_on_grid` flags a node: a zero of u, a pole of Rcal or
    Upsilon, or a zero of the closed form's denominator.
    """
    momentum.require_chart(params, sol, fac)
    r_val, _, rcal = momentum.radial_row(params, sol, rho)
    th = fac.value(theta)
    ups = math.nan if fac.at_node(theta) else fac.deriv(theta) / th
    with np.errstate(all="ignore"):
        u = np.float64(r_val) * th
        q, _, node = potentials_on_grid(params, sol.lam, rho, u, np.float64(rcal), coeff_g(params, rho), ups)
        if np.isinf(u * u):
            raise DomainError(f"u^2 at rho = {rho} is beyond the float range")
    if node:
        raise NodeError(f"the quantum potential is singular at rho = {rho}, theta = {theta}: "
                        "a node of u, R or Theta, or a zero of its denominator")
    return float(q)


def classical_potential(
    params: ModelParams,
    sol: RadialSolution,
    fac: AngularFactor,
    rho: float,
    theta: float,
) -> float:
    """External potential recovered from stationarity: U = alpha rho^2/(4 beta) - Q.

    The kinetic term is (1/(4 alpha beta)) |v|^2 with |v| = |alpha| rho.  U is
    single-valued across quantum states: shifting the energy shifts Q by the
    same constant and cancels here, so U is given in the E = 0 frame.
    """
    return stationary_u(rho, quantum_potential(params, sol, fac, rho, theta))


def potentials_on_grid(params: ModelParams, lam: float, rho, u, rcal, g, ups):
    """Q and U of a mapped separated solution over a broadcast grid.

    ``rho``, ``rcal`` and ``g`` are columns (one value per rho row), ``ups``
    a row (one Upsilon per theta column, NaN at nodes of Theta) and ``u`` the
    grid of R Theta.  Returns ``(Q, U, node)``: ``node`` marks the points
    where :func:`quantum_potential` raises :class:`NodeError`, and Q and U
    are NaN there.
    """
    z1, z2 = rcal - 1.0, rcal - lam ** 2
    with np.errstate(all="ignore"):
        denom = z1 * z1 * (ups * ups) + g * (z2 * z2)
        node = (u == 0.0) | np.isnan(rcal) | np.isnan(ups) | (denom == 0.0)
        q = np.where(node, math.nan, _mapped_q(params, lam, rho, u, z1, z2, g, ups, denom))
        return q, stationary_u(rho, q), node


# ---------------------------------------------------------------------------
# Vortex wavefunction model (lam = 0, constant radial factor)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiModelParams:
    """Closed-form vortex state: density ~ r^-ell exp(-c sigma^n / r^n), flux ~ e_phi / r.

    ``ell > 2`` is required for a normalizable density.  The angular constant
    is ``c1 = -rho_t * sigma_r``; its magnitude against ell selects the
    far-field behavior of the potential (see :func:`potential_zeros`).
    Energies use hbar = m = 1, in the E = 0 frame: the state is stationary.
    """

    n: float
    ell: float
    sigma_r: float = 1.0
    rho_t: float = 2.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.n <= 0.0:
            raise ParameterError(f"n must be positive, got {self.n}")
        if self.ell <= 2.0:
            raise DivergenceError(f"normalizable vortex states need ell > 2, got {self.ell}")
        if self.sigma_r <= 0.0 or self.rho_t <= 0.0:
            raise ParameterError("sigma_r and rho_t must be positive")
        self.norm  # noqa: B018 - computes and caches N: DomainError where it leaves the float range

    @property
    def c1(self) -> float:
        return -self.rho_t * self.sigma_r

    @property
    def sigma_v(self) -> float:
        """Characteristic speed |ALPHA| rho_t, in the map's units (ALPHA = -hbar/(2m))."""
        return abs(ALPHA) * self.rho_t

    @property
    def angular_number(self) -> float:
        """Phase winding rate kappa: arg psi = kappa phi."""
        return self.rho_t * self.sigma_r / 2.0

    @functools.cached_property
    def norm(self) -> float:
        return normalization_psi_model(self.n, self.ell, self.sigma_r)

    @property
    def regime_discriminant(self) -> float:
        """Sign selects the far-field branch: rho_t^2 sigma_r^2 - ell^2."""
        return specfun.checked_pow(self.rho_t * self.sigma_r, 2) - self.ell ** 2

    @staticmethod
    def for_regime(n: float, ell: float, regime: str, sigma_r: float = 1.0) -> "PsiModelParams":
        """Pick rho_t so that |c1| is below / at / above ell.

        ``two-zeros`` gives a potential with two radial zeros, ``critical``
        the borderline decay, ``single-zero`` the slow -1/r^2 tail.
        """
        factors = {"two-zeros": 0.75, "critical": 1.0, "single-zero": 1.4}
        if regime not in factors:
            raise ParameterError(f"unknown regime {regime!r}; expected one of {sorted(factors)}")
        return PsiModelParams(n=n, ell=ell, sigma_r=sigma_r, rho_t=factors[regime] * ell / sigma_r)


def _psi_powers(pm: PsiModelParams, r: float) -> tuple[float, float, float]:
    """``(sigma_r^n, r^n, r^2)`` at a radius r > 0, the powers the vortex
    profiles are formed from, with :class:`DomainError` where one of them or
    ``sigma_r^n / r^n`` leaves the float range: beyond it, or for the divisors
    r^n and r^2 below it to zero."""
    sigma_n, r_n, r_2 = specfun.checked_pow(pm.sigma_r, pm.n), specfun.checked_pow(r, pm.n), specfun.checked_pow(r, 2)
    if r_n == 0.0 or r_2 == 0.0 or sigma_n / r_n == math.inf:
        raise DomainError(f"sigma_r^n / r^n at r = {r:g}, n = {pm.n:g} is out of the float range")
    return sigma_n, r_n, r_2


def psi_density(pm: PsiModelParams, r: float) -> float:
    """Probability density; defined as 0 at r = 0 (the essential decay wins).
    Raises :class:`DomainError` where a power of r leaves the float range."""
    if not r >= 0.0:
        raise DomainError(f"radius must be non-negative, got {r}")
    if r == 0.0:
        return 0.0
    c = (pm.ell + 1.0) / pm.n
    sigma_n, r_n, _ = _psi_powers(pm, r)
    return pm.norm * c ** (pm.ell / pm.n) * specfun.checked_pow(pm.sigma_r / r, pm.ell) * math.exp(-c * sigma_n / r_n)


def psi_quantum_potential(pm: PsiModelParams, r: float) -> float:
    """Q(r) = -(1/(8 r^2)) [ell^2 - 2(ell+1)(ell+n) s^n/r^n + (ell+1)^2 s^2n/r^2n]."""
    if not r > 0.0:
        raise DomainError(f"radius must be positive, got {r}")
    sigma_n, r_n, r_2 = _psi_powers(pm, r)
    s = sigma_n / r_n
    bracket = pm.ell ** 2 - 2.0 * (pm.ell + 1.0) * (pm.ell + pm.n) * s + (pm.ell + 1.0) ** 2 * s * s
    return -(HBAR ** 2) / (8.0 * MASS * r_2) * bracket


def psi_classical_potential(pm: PsiModelParams, r: float) -> float:
    """U(r) from stationarity; decays like +1/r^2, -1/r^(n+2) or -1/r^2 by regime."""
    if not r > 0.0:
        raise DomainError(f"radius must be positive, got {r}")
    sigma_n, r_n, r_2 = _psi_powers(pm, r)
    s = sigma_n / r_n
    bracket = (
        pm.regime_discriminant
        + 2.0 * (pm.ell + 1.0) * (pm.ell + pm.n) * s
        - (pm.ell + 1.0) ** 2 * s * s
    )
    return -(HBAR ** 2) / (8.0 * MASS * r_2) * bracket


def psi_velocity(pm: PsiModelParams, r: float) -> float:
    """Azimuthal flux speed v_phi = sigma_r sigma_v / r (the flux is along +e_phi)."""
    if not r > 0.0:
        raise DomainError(f"radius must be positive, got {r}")
    return pm.sigma_r * pm.sigma_v / r


def psi_model_eval(pm: PsiModelParams, r: float, phi: float) -> dict:
    """Density, phase, potentials, and velocity of the vortex state at one point
    (the state is stationary: nothing depends on time)."""
    return {
        "density": psi_density(pm, r),
        "phase": pm.angular_number * phi,
        "Q": psi_quantum_potential(pm, r) if r > 0.0 else -math.inf,
        "U": psi_classical_potential(pm, r) if r > 0.0 else math.inf,
        "v_phi": psi_velocity(pm, r) if r > 0.0 else math.inf,
    }


def potential_zeros(pm: PsiModelParams) -> list[float]:
    """Radii where the classical potential vanishes (E = 0 frame).

    Solving in x = (sigma_r / r)^n:
    (ell+1)^2 x^2 - 2 (ell+1)(ell+n) x - (rho_t^2 sigma_r^2 - ell^2) = 0,
    x = [(ell+n) +- sqrt(D)] / (ell+1),   D = n^2 + 2 n ell + rho_t^2 sigma_r^2 > 0
    (n > 0 and ell > 2 in :class:`PsiModelParams`).

    Two zeros when |c1| < ell, one otherwise.
    """
    d = pm.n ** 2 + 2.0 * pm.n * pm.ell + (pm.rho_t * pm.sigma_r) ** 2
    roots = []
    for x in ((pm.ell + pm.n) + math.sqrt(d), (pm.ell + pm.n) - math.sqrt(d)):
        x /= pm.ell + 1.0
        if x > 1e-14:
            roots.append(pm.sigma_r * x ** (-1.0 / pm.n))
    return sorted(roots)


def schrodinger_residual_at(pm: PsiModelParams, r: float) -> float:
    """Relative residual of the stationary wave equation at radius r, with
    the amplitude differentiated exactly.  :class:`DomainError` where a power
    of r leaves the float range."""
    if not r > 0.0:
        raise DomainError(f"radius must be positive, got {r}")
    sigma_n, _, r_2 = _psi_powers(pm, r)
    r_n1, r_n2 = specfun.checked_pow(r, pm.n + 1.0), specfun.checked_pow(r, pm.n + 2.0)
    if r_n2 == 0.0:  # below r = 1, r^(n+2) <= r^(n+1)
        raise DomainError(f"r^(n+2) at r = {r:g}, n = {pm.n:g} is out of the float range")
    c = (pm.ell + 1.0) / pm.n
    dlog = -pm.ell / (2.0 * r) + 0.5 * c * pm.n * sigma_n / r_n1
    d2log = pm.ell / (2.0 * r_2) - 0.5 * c * pm.n * (pm.n + 1.0) * sigma_n / r_n2
    return _schrodinger_residual(pm, r, d2log + dlog ** 2 + dlog / r)


def _schrodinger_residual(pm: PsiModelParams, r: float, radial_lap: float) -> float:
    """The wave equation's residual at radius r over its scale, from the radial Laplacian of the
    amplitude ``r^(-ell/2) exp(-(c/2) (sigma_r/r)^n)``, c = (ell+1)/n, over the amplitude."""
    kappa = pm.angular_number
    lap = radial_lap - kappa ** 2 / r ** 2
    u_val = psi_classical_potential(pm, r)
    residual = HBAR ** 2 / (2.0 * MASS) * lap - u_val
    scale = max(abs(u_val), abs(psi_quantum_potential(pm, r)), HBAR ** 2 * kappa ** 2 / (2.0 * MASS * r ** 2), 1e-30)
    return abs(residual) / scale


def hamilton_jacobi_residual(pm: PsiModelParams, r: float) -> float:
    """Residual of the stationary phase equation 0 = (m/2) v^2 + U + Q (E = 0 frame).

    The kinetic coefficient is the one consistent with the wave equation and
    with the closed forms of U and Q (m/2, i.e. -1/(4 alpha beta) in the
    alpha-beta convention).
    """
    v = pm.sigma_r * pm.sigma_v / r
    residual = 0.5 * MASS * v ** 2 + psi_classical_potential(pm, r) + psi_quantum_potential(pm, r)
    scale = max(0.5 * MASS * v ** 2, abs(psi_quantum_potential(pm, r)), 1e-30)
    return abs(residual) / scale


def bohr_sommerfeld(pm: PsiModelParams, contour: np.ndarray) -> float:
    """Momentum circulation along a closed polyline, exact per segment.

    The momentum is ``m sigma_r sigma_v (-y, x) / r^2``, and along a straight
    segment from ``(x0, y0)`` to ``(x1, y1)`` the circulation of
    ``(-y, x) / r^2`` is the angle the segment subtends at the origin,
    ``atan2(x0 y1 - y0 x1, x0 x1 + y0 y1)``; the segments' angles are summed.
    The polyline is implicitly closed.  Contours that do not enclose the
    velocity pole integrate to ~0; contours with a vertex or a segment
    midpoint closer to the pole than ``POLE_MIN_RADIUS`` are rejected.
    Compare against :func:`circulation_quantum`.
    """
    pts = np.asarray(contour, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise DomainError("contour must be an (N, 2) array with N >= 3")
    x0, y0 = pts.T
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    near = POLE_MIN_RADIUS ** 2
    if np.any(x0 * x0 + y0 * y0 < near) or np.any((x0 + x1) ** 2 + (y0 + y1) ** 2 < 4.0 * near):
        raise DomainError("contour passes through the velocity pole at the origin")
    angles = np.arctan2(x0 * y1 - y0 * x1, x0 * x1 + y0 * y1)
    return float(MASS * pm.sigma_r * pm.sigma_v * np.sum(angles))


def circulation_quantum(pm: PsiModelParams) -> float:
    """Quantized circulation (h/2)|c1| with h = 2 pi hbar."""
    return math.pi * HBAR * abs(pm.c1)


def radial_moments(pm: PsiModelParams, s: int) -> float:
    """s-th radial moment of the density over the plane (closed form).

    ``<r^s> = 2 pi sigma^{s+2} N ((ell+1)/n)^{(s+2)/n} Gamma((ell-s-2)/n) / n``;
    diverges unless ell > s + 2.  The Gamma form is evaluated for any real
    ell in range, not only integers.
    """
    if s < 0 or s != int(s):
        raise ParameterError(f"moment order must be a non-negative integer, got {s}")
    if pm.ell <= s + 2.0:
        raise DivergenceError(f"moment of order {s} diverges for ell = {pm.ell} <= {s + 2}")
    return (
        2.0 * math.pi * pm.sigma_r ** (s + 2) * pm.norm
        * ((pm.ell + 1.0) / pm.n) ** ((s + 2.0) / pm.n)
        / pm.n
        * specfun.gamma((pm.ell - s - 2.0) / pm.n)
    )


def sigma_r_from_moments(pm: PsiModelParams) -> float:
    """Radial standard deviation assembled from the first two moments."""
    m1 = radial_moments(pm, 1)
    m2 = radial_moments(pm, 2)
    return math.sqrt(m2 - m1 * m1)


def sigma_r_closed_form(pm: PsiModelParams) -> float:
    """Radial standard deviation in pure Gamma-function form (needs ell > 4)."""
    if pm.ell <= 4.0:
        raise DivergenceError(f"sigma_r needs ell > 4, got {pm.ell}")
    g2 = specfun.gamma((pm.ell - 2.0) / pm.n)
    g3 = specfun.gamma((pm.ell - 3.0) / pm.n)
    g4 = specfun.gamma((pm.ell - 4.0) / pm.n)
    return (
        pm.sigma_r
        * ((pm.ell + 1.0) / pm.n) ** (1.0 / pm.n)
        / g2
        * math.sqrt(g4 * g2 - g3 * g3)
    )
