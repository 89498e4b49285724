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
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import maxwell, momentum, potentials, specfun
from .errors import (
    DegenerateMapError,
    DomainError,
    FoldError,
    NoConvergenceError,
    NodeError,
    RegionError,
    UnivalenceWarning,
)
from .maxwell import ModelParams, RegionTag, classify, coeff_g
from .momentum import AngularFactor, RadialKind, RadialSolution


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
    rho_rp = rho * rp
    return rho_rp - r, rho_rp - lam ** 2 * r


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


def _fold_angles(w1, w2, g, fac: AngularFactor, lo: float, hi: float) -> np.ndarray:
    """Angles where P vanishes at each rho (closed form), one row per rho, in
    ascending order within (lo, hi) and padded to a common width with ``hi``.

    P takes both signs only where ``g < 0``.  With ``S = c1^2 + c2^2`` and
    ``y = lam theta - atan2(c1, c2)``, Theta = sqrt(S) cos y and
    ``P = S (lam^2 w1^2 sin^2 y + g w2^2 cos^2 y)``, zero at ``y = +-y0 + k pi``,
    ``y0 = atan2(sqrt(-g) |w2|, lam |w1|)`` in [0, pi/2], so one range of k,
    with a margin of one on each side, serves every row.  For lam = 0,
    ``P = c1^2 w1^2 + g w2^2 s^2`` with ``s = c1 theta + c2``, zero at
    ``s = +-|c1 w1| / (sqrt(-g) |w2|)``.
    """
    c1, c2, lam = fac.c1, fac.c2, fac.lam
    folds = (g < 0.0) & (w2 != 0.0) & (lam != 0.0 or c1 != 0.0)
    if not folds.any():
        return np.full((w1.size, 0), hi)
    # math's functions row by row: NumPy's atan2 can differ from them in the last bit
    rows = zip(folds.tolist(), w1.tolist(), w2.tolist(), g.tolist())
    if lam == 0.0:
        s0 = np.array([abs(c1 * v1) / (math.sqrt(-gk) * abs(v2)) if fold else 0.0 for fold, v1, v2, gk in rows])
        cands = np.stack([(-s0 - c2) / c1, (s0 - c2) / c1], axis=-1)
    else:
        phi0 = math.atan2(c1, c2)
        y0 = np.array([[math.atan2(math.sqrt(-gk) * abs(v2), lam * abs(v1)) if fold else 0.0]
                       for fold, v1, v2, gk in rows])
        k = np.arange(math.floor((lam * lo - phi0) / math.pi) - 1, math.ceil((lam * hi - phi0) / math.pi) + 2)
        cands = np.concatenate([(phi0 - y0 + k * math.pi) / lam, (phi0 + y0 + k * math.pi) / lam], axis=-1)
    return np.sort(np.where(folds[:, None] & (lo < cands) & (cands < hi), cands, hi), axis=-1)


def _abs_jac_inv_arc(rho, r, rp, g, fac: AngularFactor, lo: float, hi: float) -> np.ndarray:
    """Exact integral of |J^-1| over theta in [lo, hi] at each rho: one
    radial row per element of the arrays ``rho, r, rp, g``.

    P (:func:`_fold_form`) is a trigonometric polynomial of degree one in
    ``2 lam theta`` (a quadratic in theta for lam = 0), so it has a closed
    antiderivative; splitting at :func:`_fold_angles` makes the integral of
    ``|P|`` the sum of the absolute integrals of the pieces.  A row with
    fewer folds than the widest has pieces of zero width at ``hi``.
    """
    with np.errstate(all="ignore"):
        w1, w2 = _weights(rho, r, rp, fac.lam)
        folds = _fold_angles(w1, w2, g, fac, lo, hi)
        cuts = np.empty((rho.size, folds.shape[1] + 2))
        cuts[:, 0], cuts[:, 1:-1], cuts[:, -1] = lo, folds, hi
        t1, t2 = cuts[:, :-1], cuts[:, 1:]
        b = (g * w2 ** 2)[:, None]
        if fac.lam == 0.0:
            s1, s2 = fac.value(t1), fac.value(t2)
            pieces = (t2 - t1) * (((fac.c1 * w1) ** 2)[:, None] + b * (s1 * s1 + s1 * s2 + s2 * s2) / 3.0)
        else:
            a = ((fac.lam * w1) ** 2)[:, None]
            # d is half the integral of cos(2 y) over the piece
            y_sum = fac.lam * (t1 + t2) - 2.0 * math.atan2(fac.c1, fac.c2)
            d = np.cos(y_sum) * np.sin(fac.lam * (t2 - t1)) / (2.0 * fac.lam)
            pieces = (fac.c1 ** 2 + fac.c2 ** 2) * ((a + b) * (t2 - t1) / 2.0 + (b - a) * d)
        # summed in the order of the pieces, as a running total
        return np.add.accumulate(np.abs(pieces), axis=-1)[:, -1] / specfun._power(rho, 4)


def _arc_kink_terms(rho, r, rp, g, fac: AngularFactor, lo: float, hi: float) -> tuple:
    """Where one of these changes sign along rho, the theta integral of |J^-1|
    has a kink: P at either edge (a fold enters or leaves the sector) and
    w1, w2 (two folds merge).  The discriminant of the fold condition is
    ``-lam^2 w1^2 g w2^2``; its other factor, g, vanishes at rho_T.  Plain
    arithmetic: floats give one rho, arrays every rho of a scan."""
    w1, w2 = _weights(rho, r, rp, fac.lam)
    p_lo, p_hi = (_fold_form(w1, w2, g, fac.value(t), fac.deriv(t)) for t in (lo, hi))
    return w1, w2, p_lo, p_hi


def forward_map(
    params: ModelParams,
    sol: RadialSolution,
    fac: AngularFactor,
    rho: float,
    theta: float,
    allow_degenerate: bool = False,
) -> MapPoint:
    """Image of (rho, theta) in coordinate space, with phase and inverse Jacobian.

    ``lam = 1`` makes the inverse Jacobian vanish identically (the momentum
    solution is affine, so the tangent transform loses uniqueness), and a
    constant u maps every point to the origin; by default both raise
    :class:`DegenerateMapError`.  Pass ``allow_degenerate=True`` to evaluate
    anyway, e.g. to inspect the vanishing Jacobian.  Raises
    :class:`DomainError` where the radial factor cannot be evaluated or the
    inverse Jacobian is beyond the float range.
    """
    if not allow_degenerate:
        _require_chart(sol, fac)
    r, rp, _ = momentum.radial_row(params, sol, rho)
    try:
        x, y, phi, jac_inv = _image(
            rho, r, rp, coeff_g(params, rho), fac.lam,
            fac.value(theta), fac.deriv(theta), math.cos(theta), math.sin(theta),
        )
    except (OverflowError, ZeroDivisionError):  # a square in J^-1 overflows, or rho^4 underflows
        jac_inv = math.inf
    if math.isinf(jac_inv):
        raise DomainError(f"the inverse Jacobian at rho = {rho} is beyond the float range")
    return MapPoint(rho=rho, theta=theta, x=x, y=y, phi_val=phi, jac_inv=jac_inv,
                    region=classify(params, rho))


def map_differential(
    params: ModelParams,
    sol: RadialSolution,
    fac: AngularFactor,
    rho: float,
    theta: float,
) -> np.ndarray:
    """Analytic 2x2 differential d(x, y)/d(rho, theta) of the forward map.

    Uses the radial and angular equations to eliminate second derivatives, so
    it is exact for genuine separated solutions.
    """
    r, rp, _ = momentum.radial_row(params, sol, rho)
    g = coeff_g(params, rho)
    w1, w2 = _weights(rho, r, rp, fac.lam)
    th, thp = fac.value(theta), fac.deriv(theta)
    ct, st = math.cos(theta), math.sin(theta)
    x_rho = (-g * w2 * th * ct - w1 * thp * st) / rho ** 2
    y_rho = (-g * w2 * th * st + w1 * thp * ct) / rho ** 2
    x_theta = (w1 * thp * ct - w2 * th * st) / rho
    y_theta = (w1 * thp * st + w2 * th * ct) / rho
    return np.array([[x_rho, x_theta], [y_rho, y_theta]])


def invert_map(
    params: ModelParams,
    sol: RadialSolution,
    fac: AngularFactor,
    target: CoordPoint | tuple[float, float],
    seed: MomentumPoint | tuple[float, float],
    max_iter: int = 50,
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
    point = forward_map(params, sol, fac, rho, theta)
    sign0 = math.copysign(1.0, point.jac_inv) if point.jac_inv != 0.0 else 0.0
    err = math.hypot(point.x - tx, point.y - ty)
    tol = 1e-13 * scale
    for _ in range(max_iter):
        if err <= tol:
            return MomentumPoint(rho, theta)
        jac = map_differential(params, sol, fac, rho, theta)
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
                    cand = forward_map(params, sol, fac, cand_rho, cand_theta)
                except (DomainError, NodeError, RegionError):
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


#: The flag of each code of :func:`_field_block`; a higher code takes precedence.
_FLAGS = np.array(["", "node", "out-of-range", "density-singular"], dtype=object)


def _field_block(params: ModelParams, sol: RadialSolution, fac: AngularFactor, domain: SectorDomain,
                 grid: tuple[int, int], norm: float) -> tuple:
    """The numbers of :func:`sample_fields`' records: ``(block, speed,
    density, region, code, univalent)``.  ``block`` is ``(8, n_rho, n_theta)``
    with the fields x, y, phi, vx, vy, q_pot, u_pot, jac_inv; ``speed`` and
    ``density`` are arrays and ``region`` a list, one entry per rho row;
    ``code`` is the ``(n_rho, n_theta)`` flag code (an index into
    ``_FLAGS``); ``univalent`` says whether the inverse Jacobian keeps one
    sign on the grid."""
    _require_chart(sol, fac)
    momentum.require_matching_lam(sol, fac)
    if sol.kind is RadialKind.HYPERBOLIC_OMEGA:
        momentum._require_hyperbolic(params, domain.rho_min)
    rhos, thetas = _grid(domain, grid)
    r, rp, rcal = (col[:, None] for col in momentum.radial_rows(params, sol, rhos))
    g = maxwell._g(params, rhos)[:, None]
    rho, cos_t, sin_t = rhos[:, None], np.cos(thetas), np.sin(thetas)
    block = np.empty((8, rhos.size, thetas.size))
    x, y, phi, vx, vy, q_pot, u_pot, jac_inv = block
    with np.errstate(all="ignore"):
        th, thp = fac.value(thetas), fac.deriv(thetas)
        ups = np.where(fac.at_node(thetas), np.nan, thp / th)
        u = r * th
        x[...], y[...], phi[...], jac_inv[...] = _image(rho, r, rp, g, fac.lam, th, thp, cos_t, sin_t)
        q_pot[...], u_pot[...], node = potentials.potentials_on_grid(params, sol.lam, rho, u, rcal, g, ups)
        out_of_range = np.isnan(r[:, 0]) | np.isinf(jac_inv).any(axis=1) | np.isinf(u * u).any(axis=1)
    block[:, out_of_range] = math.nan
    univalent = not ((jac_inv > 0.0).any() and (jac_inv < 0.0).any())
    vx[...], vy[...] = -params.alpha * rho * cos_t, -params.alpha * rho * sin_t
    speed = abs(params.alpha) * rhos
    density = maxwell._density(params, speed, norm)
    density_singular = np.isnan(density)
    block[5:7, density_singular] = math.nan  # q_pot and u_pot
    code = np.maximum(node, np.maximum(2 * out_of_range, 3 * density_singular)[:, None])
    region = [classify(params, v) for v in rhos.tolist()]
    return block, speed, density, region, code, univalent


def sample_fields(
    params: ModelParams,
    sol: RadialSolution,
    fac: AngularFactor,
    domain: SectorDomain,
    grid: tuple[int, int],
    norm: float = 1.0,
) -> list[FieldSample]:
    """Full field records on a (rho, theta) product grid, row-major in rho.

    The solution separates as ``u = R(rho) Theta(theta)``, so the radial
    factor is evaluated once per rho row, all rows as arrays
    (:func:`momentum.radial_rows`, with g and the density F from the arrays
    that :func:`maxwell.normalization_sector` uses), and Theta once per theta
    column; the map, the inverse Jacobian and both potentials are then
    broadcast over the grid.  Each value equals the scalar path's (:func:`forward_map`,
    :func:`potentials.quantum_potential`, ...) to rounding.

    The sweep never aborts on a point; flagged points carry NaN:

    - ``node``: on a nodal line of u, R or Theta, or where the quantum
      potential's denominator vanishes; NaN in ``q_pot`` and ``u_pot``.
    - ``density-singular``: F is singular at the row's speed; NaN in
      ``density``, ``q_pot`` and ``u_pot``.  A row whose speed underflows
      to 0 is also out of range (below); it keeps this flag.
    - ``out-of-range``: the radial factor cannot be evaluated at the row's rho
      (tau above ``specfun.KUMMER_Z_MAX``, rho_bar^n above ``RHO_BAR_N_CAP``,
      or a power of rho_bar or tau beyond the float range at small rho), or
      u^2 or the inverse Jacobian is beyond the float range somewhere on the
      row (where :func:`potentials.quantum_potential` or :func:`forward_map`
      raises :class:`DomainError`); NaN in ``x, y, phi, jac_inv, q_pot, u_pot``.

    A sign change of the inverse Jacobian across the grid only warns
    (:class:`UnivalenceWarning`), matching the policy that leaf selection is
    the caller's responsibility.  lam = 1 and a constant u raise
    :class:`DegenerateMapError`; an Omega sector that reaches below rho_T,
    where Omega does not exist, raises :class:`RegionError`.
    """
    block, speed, density, region, code, univalent = _field_block(params, sol, fac, domain, grid, norm)
    if not univalent:
        warnings.warn(
            "inverse Jacobian changes sign over the grid: the image is not univalent",
            UnivalenceWarning,
            stacklevel=2,
        )
    # one tolist() makes every float of the block
    per_row = np.array([speed, density, region], dtype=object)
    speed, density, region = np.repeat(per_row, block.shape[2], axis=1).tolist()
    x, y, phi, vx, vy, q_pot, u_pot, jac_inv = block.reshape(8, -1).tolist()
    flag = _FLAGS[code].ravel().tolist()
    del block, code  # the arrays go before the records come
    columns = x, y, phi, vx, vy, speed, density, q_pot, u_pot, jac_inv, region, flag
    return list(map(tuple.__new__, repeat(FieldSample), zip(*columns)))
