"""Inverse Legendre transform: from factorized momentum-space solutions to
coordinate-space phase, velocity, and density fields.

The map sends a momentum point (rho, theta) to

    (x, y) = (u / rho) Rot(theta) (Rcal, Upsilon)^T,
    Phi    = u (Rcal - 1),

with ``Rcal = rho R'/R`` and ``Upsilon = Theta'/Theta``.  Internally all
formulas are evaluated through the node-free combinations ``rho R' - R`` and
``R Theta'``, so positions and Jacobians stay finite on nodal lines of Theta
and M; only log-derivative quantities are singular there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import momentum, potentials
from .errors import (
    DegenerateMapError,
    DomainError,
    FoldError,
    NoConvergenceError,
    NodeError,
    RegionError,
    UnivalenceWarning,
)
from .maxwell import ModelParams, RegionTag, classify, coeff_g, density_F
from .momentum import AngularFactor, RadialKind, RadialSolution
from .specfun import DEFAULT_SERIES, SeriesControl


class MomentumPoint(NamedTuple):
    rho: float
    theta: float


class CoordPoint(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class MapPoint:
    """Image of one momentum point under the inverse Legendre transform."""

    rho: float
    theta: float
    x: float
    y: float
    phi_val: float
    jac_inv: float
    region: RegionTag

    @property
    def xy(self) -> CoordPoint:
        return CoordPoint(self.x, self.y)


@dataclass(frozen=True)
class SectorDomain:
    """Radial momentum sector (angles in radians)."""

    rho_min: float
    rho_max: float
    theta_min: float
    theta_max: float

    def __post_init__(self) -> None:
        if not self.rho_min < self.rho_max:
            raise DomainError(f"need rho_min < rho_max, got [{self.rho_min}, {self.rho_max}]")
        if not self.theta_min < self.theta_max:
            raise DomainError(f"need theta_min < theta_max, got [{self.theta_min}, {self.theta_max}]")
        if self.rho_min <= 0.0:
            raise DomainError(f"need rho_min > 0, got {self.rho_min}")

    def require_hyperbolic(self, params: ModelParams) -> None:
        if self.rho_min <= params.rho_t:
            raise RegionError("hyperbolic sector requires rho_min > rho_T")


class FieldSample(NamedTuple):
    """One coordinate-space record of the mapped flow (a named tuple: read-only)."""

    x: float
    y: float
    phi: float
    vx: float
    vy: float
    speed: float
    density: float
    q_pot: float
    u_pot: float
    jac_inv: float
    region: RegionTag
    flag: str = ""

    CSV_COLUMNS = ("x", "y", "phi", "vx", "vy", "speed", "density", "q_pot", "u_pot", "jac_inv", "region")


def script_R(
    params: ModelParams,
    sol: RadialSolution,
    rho: float,
    control: SeriesControl = DEFAULT_SERIES,
) -> float:
    """Radial log-derivative combination Rcal(rho) = nu + n tau (d/dtau) ln T(tau).

    Taken from :func:`momentum.radial_row`.  Raises :class:`NodeError` on
    nodal lines of T.
    """
    _, _, rcal = momentum.radial_row(params, sol, rho, control)
    if math.isnan(rcal):
        raise NodeError(f"the radial factor vanishes at rho = {rho}: log-derivative pole")
    return rcal


def _require_chart(sol: RadialSolution, fac: AngularFactor) -> None:
    """Raise :class:`DegenerateMapError` where no coordinate chart exists: lam = 1,
    or a constant u (R = 1, from the constant kind or nu = a = 0, where M and Psi
    are 1; and Theta = c2), whose image collapses to the origin."""
    if abs(sol.lam - 1.0) <= 1e-12:
        raise DegenerateMapError(
            "lam = 1: the map Jacobian vanishes identically and no coordinate chart exists"
        )
    unit_radial = sol.kind is RadialKind.CONSTANT or (sol.kind.kummer_based and sol.nu == 0.0 and sol.a == 0.0)
    if unit_radial and fac.lam == 0.0 and fac.c1 == 0.0:
        raise DegenerateMapError(
            "u is constant (R = 1, Theta = c2): the map collapses to the origin and no coordinate chart exists"
        )


def _weights(rho, r, rp, lam):
    """Node-free radial combinations w1 = R (Rcal - 1) and w2 = R (Rcal - lam^2)."""
    return rho * rp - r, rho * rp - lam ** 2 * r


def _image(rho, r, rp, g, lam, th, thp, cos_t, sin_t):
    """Position, phase and inverse Jacobian from the separated factors.

    Plain arithmetic: floats give one point, and columns of radial quantities
    (``rho, r, rp, g``) with rows of angular ones (``th, thp, cos_t, sin_t``)
    broadcast to the whole grid.
    """
    w1, w2 = _weights(rho, r, rp, lam)
    x = rp * th * cos_t - r * thp * sin_t / rho
    y = rp * th * sin_t + r * thp * cos_t / rho
    phi = rho * rp * th - r * th
    jac_inv = -_fold_form(w1, w2, g, th, thp) / rho ** 4
    return x, y, phi, jac_inv


def _fold_form(w1, w2, g, th, thp):
    """P = w1^2 Theta'^2 + g w2^2 Theta^2 = -rho^4 J^-1; the fold is its zero set."""
    return (w1 * thp) ** 2 + g * (w2 * th) ** 2


def _fold_angles(w1: float, w2: float, g: float, fac: AngularFactor, lo: float, hi: float) -> list[float]:
    """Angles in (lo, hi), ascending, where P vanishes at one rho (closed form).

    P takes both signs only where ``g < 0``.  With ``S = c1^2 + c2^2`` and
    ``y = lam theta - atan2(c1, c2)``, Theta = sqrt(S) cos y and
    ``P = S (lam^2 w1^2 sin^2 y + g w2^2 cos^2 y)``, zero at ``y = +-y0 + k pi``,
    ``y0 = atan2(sqrt(-g) |w2|, lam |w1|)``.  For lam = 0,
    ``P = c1^2 w1^2 + g w2^2 s^2`` with ``s = c1 theta + c2``, zero at
    ``s = +-|c1 w1| / (sqrt(-g) |w2|)``.
    """
    c1, c2, lam = fac.c1, fac.c2, fac.lam
    if not g < 0.0 or w2 == 0.0 or (lam == 0.0 and c1 == 0.0):
        return []
    if lam == 0.0:
        s0 = abs(c1 * w1) / (math.sqrt(-g) * abs(w2))
        cands = [(-s0 - c2) / c1, (s0 - c2) / c1]
    else:
        phi0 = math.atan2(c1, c2)
        y0 = math.atan2(math.sqrt(-g) * abs(w2), lam * abs(w1))
        k_lo = math.floor((lam * lo - phi0 - y0) / math.pi)
        k_hi = math.ceil((lam * hi - phi0 + y0) / math.pi)
        cands = [(phi0 + y + k * math.pi) / lam for k in range(k_lo, k_hi + 1) for y in (-y0, y0)]
    return sorted(t for t in cands if lo < t < hi)


def _abs_jac_inv_arc(rho: float, r: float, rp: float, g: float, fac: AngularFactor,
                     lo: float, hi: float) -> float:
    """Exact integral of |J^-1| over theta in [lo, hi] at one rho.

    P (:func:`_fold_form`) is a trigonometric polynomial of degree one in
    ``2 lam theta`` (a quadratic in theta for lam = 0), so it has a closed
    antiderivative; splitting at :func:`_fold_angles` makes the integral of
    ``|P|`` the sum of the absolute integrals of the pieces.
    """
    w1, w2 = _weights(rho, r, rp, fac.lam)
    a, b = (fac.lam * w1) ** 2, g * w2 ** 2
    cuts = [lo, *_fold_angles(w1, w2, g, fac, lo, hi), hi]
    total = 0.0
    for t1, t2 in zip(cuts[:-1], cuts[1:]):
        if fac.lam == 0.0:
            s1, s2 = fac.value(t1), fac.value(t2)
            piece = (t2 - t1) * ((fac.c1 * w1) ** 2 + b * (s1 * s1 + s1 * s2 + s2 * s2) / 3.0)
        else:
            # d is half the integral of cos(2 y) over the piece
            y_sum = fac.lam * (t1 + t2) - 2.0 * math.atan2(fac.c1, fac.c2)
            d = math.cos(y_sum) * math.sin(fac.lam * (t2 - t1)) / (2.0 * fac.lam)
            piece = (fac.c1 ** 2 + fac.c2 ** 2) * ((a + b) * (t2 - t1) / 2.0 + (b - a) * d)
        total += abs(piece)
    return total / rho ** 4


def _arc_kink_terms(rho: float, r: float, rp: float, g: float, fac: AngularFactor,
                    lo: float, hi: float) -> tuple[float, ...]:
    """Where one of these changes sign along rho, the theta integral of |J^-1|
    has a kink: P at either edge (a fold enters or leaves the sector) and
    w1, w2 (two folds merge).  The discriminant of the fold condition is
    ``-lam^2 w1^2 g w2^2``; its other factor, g, vanishes at rho_T."""
    w1, w2 = _weights(rho, r, rp, fac.lam)
    p_lo, p_hi = (_fold_form(w1, w2, g, fac.value(t), fac.deriv(t)) for t in (lo, hi))
    return w1, w2, p_lo, p_hi


def forward_map(
    params: ModelParams,
    sol: RadialSolution,
    fac: AngularFactor,
    rho: float,
    theta: float,
    control: SeriesControl = DEFAULT_SERIES,
    allow_degenerate: bool = False,
) -> MapPoint:
    """Image of (rho, theta) in coordinate space, with phase and inverse Jacobian.

    ``lam = 1`` makes the inverse Jacobian vanish identically (the momentum
    solution is affine, so the tangent transform loses uniqueness), and a
    constant u maps every point to the origin; by default both raise
    :class:`DegenerateMapError`.  Pass ``allow_degenerate=True`` to evaluate
    anyway, e.g. to inspect the vanishing Jacobian.
    """
    if not allow_degenerate:
        _require_chart(sol, fac)
    r, rp, _ = momentum.radial_row(params, sol, rho, control)
    x, y, phi, jac_inv = _image(
        rho, r, rp, coeff_g(params, rho), fac.lam,
        fac.value(theta), fac.deriv(theta), math.cos(theta), math.sin(theta),
    )
    return MapPoint(rho=rho, theta=theta, x=x, y=y, phi_val=phi, jac_inv=jac_inv,
                    region=classify(params, rho))


def map_differential(
    params: ModelParams,
    sol: RadialSolution,
    fac: AngularFactor,
    rho: float,
    theta: float,
    control: SeriesControl = DEFAULT_SERIES,
) -> np.ndarray:
    """Analytic 2x2 differential d(x, y)/d(rho, theta) of the forward map.

    Uses the radial and angular equations to eliminate second derivatives, so
    it is exact for genuine separated solutions.
    """
    r, rp = momentum.radial_value_slope(params, sol, rho, control)
    g = coeff_g(params, rho)
    w1, w2 = _weights(rho, r, rp, fac.lam)
    th, thp = fac.value(theta), fac.deriv(theta)
    ct, st = math.cos(theta), math.sin(theta)
    x_rho = (-g * w2 * th * ct - w1 * thp * st) / rho ** 2
    y_rho = (-g * w2 * th * st + w1 * thp * ct) / rho ** 2
    x_theta = (w1 * thp * ct - w2 * th * st) / rho
    y_theta = (w1 * thp * st + w2 * th * ct) / rho
    return np.array([[x_rho, x_theta], [y_rho, y_theta]])


def _radial_chart(params: ModelParams, matched: ModelParams, rho: float, control: SeriesControl):
    """Image radius zeta_bar, phase and inverse Jacobian of the radial flow at one rho.

    ``matched`` is ``params`` with c1 from :func:`momentum.omega_matched_c1`.
    """
    if rho <= params.rho_t:
        raise RegionError(f"the radial map needs rho > rho_T, got rho = {rho}")
    omega = momentum.hyperbolic_omega(matched, rho, control)  # checks the series cap first
    zb = momentum.zeta_bar(params, rho)
    phi = rho * zb - omega
    jac_inv = (params.ell + 1.0) * (params.rho_bar(rho) ** params.n - 1.0) * zb ** 2 / rho ** 2
    return zb, phi, jac_inv


def forward_map_radial(
    params: ModelParams,
    rho: float,
    theta: float,
    control: SeriesControl = DEFAULT_SERIES,
) -> MapPoint:
    """Coordinate image of the angularly symmetric hyperbolic solution.

    The map collapses to ``r = zeta_bar(rho), phi = theta`` and the phase is
    ``Phi = rho zeta_bar(rho) - Omega(rho)`` with the integration constant of
    Omega matched to c0 (so that Omega' = zeta_bar exactly).
    """
    matched = params.with_(c1=momentum.omega_matched_c1(params))
    zb, phi, jac_inv = _radial_chart(params, matched, rho, control)
    return MapPoint(rho=rho, theta=theta, x=zb * math.cos(theta), y=zb * math.sin(theta),
                    phi_val=phi, jac_inv=jac_inv, region=classify(params, rho))


def invert_map_radial(params: ModelParams, r: float, tol: float = 1e-14) -> float:
    """Solve zeta_bar(rho) = r for rho > rho_T (monotone; Newton with bisection fallback)."""
    r_min = momentum.zeta_bar(params, params.rho_t)
    if r < r_min * (1.0 - 1e-12):
        raise DomainError(f"radius {r} below the image floor {r_min}")
    lo = params.rho_t
    hi = params.rho_t * 1.5
    while momentum.zeta_bar(params, hi) < r:
        hi *= 1.5
        if hi > 1e6 * params.rho_t:
            raise NoConvergenceError("could not bracket the radial inverse")
    rho = 0.5 * (lo + hi)
    target = math.log(r)
    for _ in range(200):
        val = math.log(momentum.zeta_bar(params, rho)) - target
        if val > 0.0:
            hi = rho
        else:
            lo = rho
        deriv = (params.ell + 1.0) * (params.rho_bar(rho) ** params.n - 1.0) / rho
        step = val / deriv if deriv > 0.0 else math.inf
        cand = rho - step
        if not lo < cand < hi:
            cand = 0.5 * (lo + hi)  # bisection fallback
        if abs(cand - rho) <= tol * rho:
            return cand
        rho = cand
    raise NoConvergenceError(f"radial inversion stalled at r = {r}")


def invert_map(
    params: ModelParams,
    sol: RadialSolution,
    fac: AngularFactor,
    target: CoordPoint | tuple[float, float],
    seed: MomentumPoint | tuple[float, float],
    max_iter: int = 50,
    control: SeriesControl = DEFAULT_SERIES,
) -> MomentumPoint:
    """Numerical inverse of the forward map by damped Newton iteration.

    The seed must lie on the same univalent leaf as the target; a sign change
    of the inverse Jacobian along the path raises :class:`FoldError` (the
    transform is multivalent there), and failure to converge within
    ``max_iter`` raises :class:`NoConvergenceError`.  Converged points satisfy
    ``|forward(rho, theta) - target| <~ 1e-13 * scale``.
    """
    tx, ty = float(target[0]), float(target[1])
    rho, theta = float(seed[0]), float(seed[1])
    scale = max(math.hypot(tx, ty), 1e-30)
    point = forward_map(params, sol, fac, rho, theta, control)
    sign0 = math.copysign(1.0, point.jac_inv) if point.jac_inv != 0.0 else 0.0
    err = math.hypot(point.x - tx, point.y - ty)
    tol = 1e-13 * scale
    for _ in range(max_iter):
        if err <= tol:
            return MomentumPoint(rho, theta)
        jac = map_differential(params, sol, fac, rho, theta, control)
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        if det == 0.0 or not math.isfinite(det):
            raise NoConvergenceError("singular differential on the Newton path")
        fx, fy = point.x - tx, point.y - ty
        drho = -(jac[1, 1] * fx - jac[0, 1] * fy) / det
        dtheta = -(-jac[1, 0] * fx + jac[0, 0] * fy) / det
        # backtracking: keep rho positive and the residual decreasing
        lam_step = 1.0
        for _bt in range(30):
            cand_rho = rho + lam_step * drho
            cand_theta = theta + lam_step * dtheta
            if cand_rho > 0.0:
                try:
                    cand = forward_map(params, sol, fac, cand_rho, cand_theta, control)
                except (DomainError, NodeError):
                    cand = None
                if cand is not None:
                    cand_err = math.hypot(cand.x - tx, cand.y - ty)
                    if cand_err < err or lam_step < 1e-6:
                        if sign0 != 0.0 and cand.jac_inv * sign0 < 0.0:
                            raise FoldError(
                                "inverse Jacobian changed sign on the Newton path: "
                                "target lies beyond a fold of the transform"
                            )
                        rho, theta, point, err = cand_rho, cand_theta, cand, cand_err
                        break
            lam_step *= 0.5
        else:
            raise NoConvergenceError("Newton backtracking could not reduce the residual")
    if err <= tol:
        return MomentumPoint(rho, theta)
    raise NoConvergenceError(f"no convergence after {max_iter} iterations (residual {err:.3e})")


def _grid(domain: SectorDomain, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    n_rho, n_theta = shape
    if n_rho < 2 or n_theta < 2:
        raise DomainError(f"grid must be at least 2x2, got {shape}")
    return (
        np.linspace(domain.rho_min, domain.rho_max, n_rho),
        np.linspace(domain.theta_min, domain.theta_max, n_theta),
    )


def _row_densities(params: ModelParams, rhos: list[float], norm: float) -> tuple[np.ndarray, np.ndarray]:
    """F(|alpha| rho) per row, NaN and True in the second array where F is singular."""
    dens, singular = [], []
    for rho in rhos:
        try:
            dens.append(density_F(params, abs(params.alpha) * rho, norm))
            singular.append(False)
        except DomainError:
            dens.append(math.nan)
            singular.append(True)
    return np.array(dens), np.array(singular)


def _records(
    params: ModelParams,
    rhos: np.ndarray,
    thetas: np.ndarray,
    norm: float,
    grids: tuple,
    node: np.ndarray,
    out_of_range: np.ndarray,
) -> list[FieldSample]:
    """FieldSample records, row-major in rho, with velocity, speed, density,
    region and flag added.

    ``grids`` holds x, y, phi, q_pot, u_pot and jac_inv, each broadcastable
    to the (rho, theta) grid; ``node`` is a grid mask and ``out_of_range`` a
    row mask.
    """
    shape = (rhos.size, thetas.size)
    rho_list = rhos.tolist()
    rho = rhos[:, None]
    density, density_singular = _row_densities(params, rho_list, norm)
    x, y, phi, q_pot, u_pot, jac_inv = grids
    q_pot = np.where(density_singular[:, None], math.nan, q_pot)
    u_pot = np.where(density_singular[:, None], math.nan, u_pot)
    vx = -params.alpha * rho * np.cos(thetas)
    vy = -params.alpha * rho * np.sin(thetas)
    speed = abs(params.alpha) * rho
    columns = [
        np.broadcast_to(a, shape).ravel().tolist()
        for a in (x, y, phi, vx, vy, speed, density[:, None], q_pot, u_pot, jac_inv)
    ]
    regions = [region for r in rho_list for region in [classify(params, r)] * shape[1]]
    flag = np.full(shape, "", dtype=object)
    flag[node] = "node"
    flag[density_singular, :] = "density-singular"
    flag[out_of_range, :] = "out-of-range"
    return list(map(FieldSample._make, zip(*columns, regions, flag.ravel().tolist())))


def sample_fields(
    params: ModelParams,
    sol: RadialSolution,
    fac: AngularFactor,
    domain: SectorDomain,
    grid: tuple[int, int],
    norm: float = 1.0,
    control: SeriesControl = DEFAULT_SERIES,
) -> list[FieldSample]:
    """Full field records on a (rho, theta) product grid, row-major in rho.

    The solution separates as ``u = R(rho) Theta(theta)``, so the radial
    factor is evaluated once per rho row (two series, see
    :func:`momentum.radial_row`) and Theta once per theta column; the map,
    the inverse Jacobian and both potentials are then broadcast over the
    grid.  Each value equals the scalar path's (:func:`forward_map`,
    :func:`potentials.quantum_potential`, ...) to rounding.

    The sweep never aborts on a point; flagged points carry NaN:

    - ``node``: on a nodal line of u, R or Theta, or where the quantum
      potential's denominator vanishes; NaN in ``q_pot`` and ``u_pot``.
    - ``density-singular``: F is singular at the row's speed; NaN in
      ``density``, ``q_pot`` and ``u_pot``.
    - ``out-of-range``: the radial factor cannot be evaluated at the row's rho
      (tau above the Kummer z_max, or rho_bar^n above ``RHO_BAR_N_CAP``);
      NaN in ``x, y, phi, jac_inv, q_pot, u_pot``.

    A sign change of the inverse Jacobian across the grid only warns
    (:class:`UnivalenceWarning`), matching the policy that leaf selection is
    the caller's responsibility.  lam = 1 and a constant u raise
    :class:`DegenerateMapError`.
    """
    _require_chart(sol, fac)
    momentum.require_matching_lam(sol, fac)
    rhos, thetas = _grid(domain, grid)
    rho_list = rhos.tolist()
    rows = []
    for rho in rho_list:
        try:
            rows.append(momentum.radial_row(params, sol, rho, control))
        except DomainError:
            rows.append((math.nan, math.nan, math.nan))
    r, rp, rcal = (np.array(col)[:, None] for col in zip(*rows))
    out_of_range = np.isnan(r[:, 0])
    g = np.array([coeff_g(params, rho) for rho in rho_list])[:, None]
    rho = rhos[:, None]
    with np.errstate(all="ignore"):
        th, thp = fac.value(thetas), fac.deriv(thetas)
        ups = np.where(fac.at_node(thetas), np.nan, thp / th)
        x, y, phi, jac_inv = _image(rho, r, rp, g, fac.lam, th, thp, np.cos(thetas), np.sin(thetas))
        q_pot, u_pot, node = potentials.potentials_on_grid(params, sol.lam, rho, r * th, rcal, g, ups)
    if (jac_inv > 0.0).any() and (jac_inv < 0.0).any():
        warnings.warn(
            "inverse Jacobian changes sign over the grid: the image is not univalent",
            UnivalenceWarning,
            stacklevel=2,
        )
    return _records(params, rhos, thetas, norm, (x, y, phi, q_pot, u_pot, jac_inv), node, out_of_range)


def sample_fields_radial(
    params: ModelParams,
    domain: SectorDomain,
    grid: tuple[int, int],
    norm: float = 1.0,
    control: SeriesControl = DEFAULT_SERIES,
) -> list[FieldSample]:
    """Field records for the angularly symmetric hyperbolic flow.

    Everything but the position depends on rho only and is evaluated once
    per row; rows beyond the Omega series cap are flagged ``out-of-range``
    as in :func:`sample_fields`.
    """
    domain.require_hyperbolic(params)
    rhos, thetas = _grid(domain, grid)
    rho_list = rhos.tolist()
    matched = params.with_(c1=momentum.omega_matched_c1(params))
    rows = []
    for rho in rho_list:
        try:
            zb, phi, jac_inv = _radial_chart(params, matched, rho, control)
            q = potentials.quantum_potential_radial(params, rho)
            rows.append((zb, phi, jac_inv, q, potentials.stationary_u(params, rho, q)))
        except DomainError:
            rows.append((math.nan,) * 5)
    zb, phi, jac_inv, q_pot, u_pot = (np.array(col)[:, None] for col in zip(*rows))
    no_node = np.zeros((rhos.size, thetas.size), dtype=bool)
    x, y = zb * np.cos(thetas), zb * np.sin(thetas)
    grids = (x, y, phi, q_pot, u_pot, jac_inv)
    return _records(params, rhos, thetas, norm, grids, no_node, np.isnan(zb[:, 0]))
