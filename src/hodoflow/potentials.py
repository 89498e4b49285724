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
from .maxwell import ModelParams, coeff_g, normalization_psi_model, require_finite
from .momentum import AngularFactor, RadialSolution

HBAR = 1.0
MASS = 1.0

#: Closed forms stay evaluable down to r = 0+, but FD oracles degrade in the
#: essential-singularity zone; grid sweeps skip radii below this floor.
R_FLOOR_REL = 1e-6

#: :func:`bohr_sommerfeld` rejects contours that come closer to the velocity
#: pole at the origin than this radius.
POLE_MIN_RADIUS = 1e-12


@dataclass(frozen=True)
class QPotentialArgs:
    """Arguments of the closed-form quantum potential: floats, or arrays that
    broadcast (z1, z2, z3 per rho row, z4 per theta column)."""

    z1: float
    z2: float
    z3: float
    z4: float

    @functools.cached_property
    def denominator(self):
        """z1^2 z4^2 + z3 z2^2; the closed form is singular where it vanishes."""
        return self.z1 ** 2 * self.z4 ** 2 + self.z3 * self.z2 ** 2

    @staticmethod
    def of(lam: float, rcal, g, ups) -> "QPotentialArgs":
        """The arguments from Rcal, g and Upsilon."""
        return QPotentialArgs(z1=rcal - 1.0, z2=rcal - lam ** 2, z3=g, z4=ups)


def _a_coeffs(n: float, ell: float, lam: float, z1: float, z2: float, z3: float) -> tuple[float, float, float]:
    lam2 = lam * lam
    a0 = z2 ** 3 * (lam2 * z1 * (1.0 - z3) * z3 + z2 * ((1.0 - n) * z3 + n * (ell + 1.0)))
    a1 = z1 * z2 * (
        z1 * z2 * (2.0 * z3 ** 2 + (3.0 + n) * (1.0 - z3) + n * ell)
        + 3.0 * (1.0 - z3) * (z2 ** 2 * z3 - lam2 * z1 ** 2)
    )
    a2 = z1 ** 3 * (z1 - z2 * (1.0 - z3))
    return a0, a1, a2


def q_potential_core(n: float, ell: float, lam: float, args: QPotentialArgs):
    """The bracket A + B of the closed form (everything except alpha rho^2 / (2 beta u^2)).

    Elementwise on floats or broadcast arrays; ``a0, a1, a2`` depend on
    z1..z3 only, so over a grid they are computed once per rho row.  The
    caller excludes points where ``args.denominator`` vanishes: a float
    divides by zero there, an array holds inf or NaN.
    """
    z1, z2, z3, z4 = args.z1, args.z2, args.z3, args.z4
    denom = args.denominator
    a0, a1, a2 = _a_coeffs(n, ell, lam, z1, z2, z3)
    part_a = (z3 - 1.0) * (a0 + a1 * z4 ** 2 + a2 * z4 ** 4) / denom ** 3
    part_b = (
        (z1 ** 2 * z4 ** 2 + z2 ** 2)
        / denom ** 2
        * (0.5 * (z3 - 1.0) ** 2 + (z3 - 1.0) * (n - 1.0) - n * ell)
    )
    return part_a + part_b


def _mapped_q(params: ModelParams, lam: float, rho, u, args: QPotentialArgs):
    """alpha rho^2 / (2 beta u^2) times the bracket, on floats or broadcast arrays."""
    core = q_potential_core(params.n, params.ell, lam, args)
    return params.alpha * rho ** 2 / (2.0 * params.beta * u ** 2) * core


def stationary_u(params: ModelParams, rho, q, energy: float = 0.0):
    """External potential from stationarity, U = alpha rho^2/(4 beta) - Q + E, given Q."""
    return params.alpha * rho ** 2 / (4.0 * params.beta) - q + energy


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
    constant cancels.  Raises :class:`NodeError` on zeros of u, on the poles
    of Rcal and Upsilon, and where the closed form's denominator vanishes;
    :class:`DomainError` where the radial factor cannot be evaluated or u^2
    is beyond the float range.
    """
    if abs(sol.lam - 1.0) <= 1e-12:
        raise ParameterError("lam = 1 admits no coordinate chart (degenerate map)")
    momentum.require_matching_lam(sol, fac)
    r_val, _, rcal = momentum.radial_row(params, sol, rho)
    u = r_val * fac.value(theta)
    if math.isinf(u * u):
        raise DomainError(f"u^2 at rho = {rho} is beyond the float range")
    if u == 0.0:
        raise NodeError("u = 0: quantum potential singular on the nodal set")
    if math.isnan(rcal):
        raise NodeError(f"the radial factor vanishes at rho = {rho}: log-derivative pole")
    args = QPotentialArgs.of(sol.lam, rcal, coeff_g(params, rho), fac.logderiv(theta))
    if args.denominator == 0.0:
        raise NodeError("quantum-potential denominator vanishes (degenerate point)")
    return _mapped_q(params, sol.lam, rho, u, args)


def classical_potential(
    params: ModelParams,
    sol: RadialSolution,
    fac: AngularFactor,
    rho: float,
    theta: float,
    energy: float = 0.0,
) -> float:
    """External potential recovered from stationarity: U = alpha rho^2/(4 beta) - Q + E.

    The kinetic term is (1/(4 alpha beta)) |v|^2 with |v| = |alpha| rho.  U is
    single-valued across quantum states: shifting the energy shifts Q by the
    same constant and cancels here.
    """
    return stationary_u(params, rho, quantum_potential(params, sol, fac, rho, theta), energy)


def potentials_on_grid(params: ModelParams, lam: float, rho, u, rcal, g, ups):
    """Q and U of a mapped separated solution over a broadcast grid.

    ``rho``, ``rcal`` and ``g`` are columns (one value per rho row), ``ups``
    a row (one Upsilon per theta column, NaN at nodes of Theta) and ``u`` the
    grid of R Theta.  Returns ``(Q, U, node)``: ``node`` marks the points
    where :func:`quantum_potential` raises :class:`NodeError`, and Q and U
    are NaN there.
    """
    args = QPotentialArgs.of(lam, rcal, g, ups)
    with np.errstate(all="ignore"):
        node = (u == 0.0) | np.isnan(rcal) | np.isnan(ups) | (args.denominator == 0.0)
        q = np.where(node, math.nan, _mapped_q(params, lam, rho, u, args))
        return q, stationary_u(params, rho, q), node


# ---------------------------------------------------------------------------
# Vortex wavefunction model (lam = 0, constant radial factor)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiModelParams:
    """Closed-form vortex state: density ~ r^-ell exp(-c sigma^n / r^n), flux ~ e_phi / r.

    ``ell > 2`` is required for a normalizable density.  The angular constant
    is ``c1 = -rho_t * sigma_r``; its magnitude against ell selects the
    far-field behavior of the potential (see :func:`potential_zeros`).
    Energies use hbar = m = 1.
    """

    n: float
    ell: float
    sigma_r: float = 1.0
    rho_t: float = 2.0
    energy: float = 0.0

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
        """Characteristic speed; |alpha| rho_t with alpha = -hbar/(2m)."""
        return HBAR / (2.0 * MASS) * self.rho_t

    @property
    def angular_number(self) -> float:
        """Phase winding rate kappa: arg psi = kappa phi - E t / hbar."""
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
    if r < 0.0:
        raise DomainError(f"radius must be non-negative, got {r}")
    if r == 0.0:
        return 0.0
    c = (pm.ell + 1.0) / pm.n
    sigma_n, r_n, _ = _psi_powers(pm, r)
    return pm.norm * c ** (pm.ell / pm.n) * specfun.checked_pow(pm.sigma_r / r, pm.ell) * math.exp(-c * sigma_n / r_n)


def psi_quantum_potential(pm: PsiModelParams, r: float) -> float:
    """Q(r) = -(1/(8 r^2)) [ell^2 - 2(ell+1)(ell+n) s^n/r^n + (ell+1)^2 s^2n/r^2n]."""
    if r <= 0.0:
        raise DomainError(f"radius must be positive, got {r}")
    sigma_n, r_n, r_2 = _psi_powers(pm, r)
    s = sigma_n / r_n
    bracket = pm.ell ** 2 - 2.0 * (pm.ell + 1.0) * (pm.ell + pm.n) * s + (pm.ell + 1.0) ** 2 * s * s
    return -(HBAR ** 2) / (8.0 * MASS * r_2) * bracket


def psi_classical_potential(pm: PsiModelParams, r: float) -> float:
    """U(r) from stationarity; decays like +1/r^2, -1/r^(n+2) or -1/r^2 by regime."""
    if r <= 0.0:
        raise DomainError(f"radius must be positive, got {r}")
    sigma_n, r_n, r_2 = _psi_powers(pm, r)
    s = sigma_n / r_n
    bracket = (
        pm.regime_discriminant
        + 2.0 * (pm.ell + 1.0) * (pm.ell + pm.n) * s
        - (pm.ell + 1.0) ** 2 * s * s
    )
    return -(HBAR ** 2) / (8.0 * MASS * r_2) * bracket + pm.energy


def psi_velocity(pm: PsiModelParams, r: float) -> float:
    """Azimuthal flux speed v_phi = sigma_r sigma_v / r (the flux is along +e_phi)."""
    if r <= 0.0:
        raise DomainError(f"radius must be positive, got {r}")
    return pm.sigma_r * pm.sigma_v / r


def psi_model_eval(pm: PsiModelParams, r: float, phi: float, t: float = 0.0) -> dict:
    """Density, phase, potentials, and velocity of the vortex state at one point."""
    return {
        "density": psi_density(pm, r),
        "phase": pm.angular_number * phi - pm.energy / HBAR * t,
        "Q": psi_quantum_potential(pm, r) if r > 0.0 else -math.inf,
        "U": psi_classical_potential(pm, r) if r > 0.0 else math.inf,
        "v_phi": psi_velocity(pm, r) if r > 0.0 else math.inf,
    }


def potential_zeros(pm: PsiModelParams) -> list[float]:
    """Radii where the classical potential vanishes (E = 0 frame).

    Solving in x = (sigma_r / r)^n:
    (ell+1)^2 x^2 - 2 (ell+1)(ell+n) x - (rho_t^2 sigma_r^2 - ell^2) = 0,
    x = [(ell+n) +- sqrt(D)] / (ell+1),   D = n^2 + 2 n ell + rho_t^2 sigma_r^2.

    Two zeros when |c1| < ell, one otherwise.
    """
    d = pm.n ** 2 + 2.0 * pm.n * pm.ell + (pm.rho_t * pm.sigma_r) ** 2
    if d <= 0.0:
        raise DomainError("zero discriminant is not positive")
    roots = []
    for x in ((pm.ell + pm.n) + math.sqrt(d), (pm.ell + pm.n) - math.sqrt(d)):
        x /= pm.ell + 1.0
        if x > 1e-14:
            roots.append(pm.sigma_r * x ** (-1.0 / pm.n))
    return sorted(roots)


def schrodinger_residual_at(pm: PsiModelParams, r: float, use_fd: bool = False, h: float | None = None) -> float:
    """Relative residual of the stationary wave equation at radius r.

    Analytic mode differentiates the amplitude exactly; FD mode replaces the
    radial Laplacian by central differences of the amplitude (step ``h``).
    """
    if r <= 0.0:
        raise DomainError(f"radius must be positive, got {r}")
    c = (pm.ell + 1.0) / pm.n
    kappa = pm.angular_number

    def amp(rr: float) -> float:
        return rr ** (-pm.ell / 2.0) * math.exp(-0.5 * c * pm.sigma_r ** pm.n / rr ** pm.n)

    if use_fd:
        hh = h if h is not None else 1e-4 * pm.sigma_r
        a0 = amp(r)
        lap = (
            (amp(r + hh) - 2.0 * a0 + amp(r - hh)) / hh ** 2
            + (amp(r + hh) - amp(r - hh)) / (2.0 * hh * r)
        ) / a0 - kappa ** 2 / r ** 2
    else:
        dlog = -pm.ell / (2.0 * r) + 0.5 * c * pm.n * pm.sigma_r ** pm.n / r ** (pm.n + 1.0)
        d2log = pm.ell / (2.0 * r ** 2) - 0.5 * c * pm.n * (pm.n + 1.0) * pm.sigma_r ** pm.n / r ** (pm.n + 2.0)
        lap = d2log + dlog ** 2 + dlog / r - kappa ** 2 / r ** 2
    u_val = psi_classical_potential(pm, r)
    residual = pm.energy + HBAR ** 2 / (2.0 * MASS) * lap - u_val
    scale = max(abs(u_val), abs(psi_quantum_potential(pm, r)), HBAR ** 2 * kappa ** 2 / (2.0 * MASS * r ** 2), 1e-30)
    return abs(residual) / scale


def schrodinger_residual(
    pm: PsiModelParams,
    r_values,
    use_fd: bool = False,
    tol: float = 1e-8,
    name: str = "schrodinger-residual",
):
    """Wave-equation residual report over a radial grid.

    Radii below ``R_FLOOR_REL * sigma_r`` are skipped (counted in the
    report); the azimuthal direction enters only through the exact phase
    winding, so a radial grid suffices.  Time never enters: the state is
    stationary and the energy term is evaluated directly.
    """
    from .verify import report_from_residuals

    floor = R_FLOOR_REL * pm.sigma_r
    residuals = []
    skipped = 0
    for r in r_values:
        if r < floor:
            skipped += 1
            continue
        residuals.append(schrodinger_residual_at(pm, float(r), use_fd=use_fd))
    return report_from_residuals(
        name, f"{len(residuals)} radii{' (FD)' if use_fd else ''}", residuals, tol,
        skipped, len(residuals) + skipped,
    )


def hamilton_jacobi_residual(pm: PsiModelParams, r: float) -> float:
    """Residual of the stationary phase equation E = (m/2) v^2 + U + Q.

    The kinetic coefficient is the one consistent with the wave equation and
    with the closed forms of U and Q (m/2, i.e. -1/(4 alpha beta) in the
    alpha-beta convention).
    """
    v = pm.sigma_r * pm.sigma_v / r
    residual = pm.energy - (0.5 * MASS * v ** 2 + psi_classical_potential(pm, r) + psi_quantum_potential(pm, r))
    scale = max(0.5 * MASS * v ** 2, abs(psi_quantum_potential(pm, r)), 1e-30)
    return abs(residual) / scale


def bohr_sommerfeld(pm: PsiModelParams, contour: np.ndarray) -> float:
    """Momentum circulation along a closed polyline (per-segment Simpson rule).

    The polyline is implicitly closed.  Contours that do not enclose the
    velocity pole integrate to ~0; contours through the pole (closer than
    ``POLE_MIN_RADIUS``) are rejected.
    Compare against :func:`circulation_quantum`.
    """
    pts = np.asarray(contour, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise DomainError("contour must be an (N, 2) array with N >= 3")
    ends = np.roll(pts, -1, axis=0)
    d = ends - pts
    # per segment: start, midpoint and end, each dotted with the segment vector
    nodes = np.stack([pts, 0.5 * (pts + ends), ends])
    r2 = nodes[..., 0] ** 2 + nodes[..., 1] ** 2
    if np.any(r2 < POLE_MIN_RADIUS ** 2):
        raise DomainError("contour passes through the velocity pole at the origin")
    p_dot = (-nodes[..., 1] * d[:, 0] + nodes[..., 0] * d[:, 1]) / r2
    return float(MASS * pm.sigma_r * pm.sigma_v * np.sum(p_dot[0] + 4.0 * p_dot[1] + p_dot[2]) / 6.0)


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
