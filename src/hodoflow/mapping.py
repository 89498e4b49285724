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
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from . import maxwell, momentum, potentials, specfun
from .errors import (
    DomainError,
    FoldError,
    NoConvergenceError,
    RegionError,
    UnivalenceWarning,
)
from .maxwell import ALPHA, ModelParams, RegionTag, coeff_g
from .momentum import AngularFactor, RadialKind, RadialSolution


#: Newton steps :func:`invert_map` takes before it raises :class:`NoConvergenceError`.
NEWTON_MAX_ITER = 50


class MomentumPoint(NamedTuple):
    rho: float
    theta: float


class MapPoint(NamedTuple):
    """Image of one momentum point under the inverse Legendre transform: its
    position, phase and inverse Jacobian (a named tuple: read-only)."""

    x: float
    y: float
    phi: float
    jac_inv: float


@dataclass(frozen=True)
class SectorDomain:
    """Radial momentum sector (angles in radians)."""

    rho_min: float
    rho_max: float
    theta_min: float
    theta_max: float

    def __post_init__(self) -> None:
        maxwell.require_finite(self)
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
    flag: str

    CSV_COLUMNS = ("x", "y", "phi", "vx", "vy", "speed", "density", "q_pot", "u_pot", "jac_inv", "region")


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
    jac_inv = -_fold_form(w1, w2, g, th, thp) / specfun._power(rho, 4)
    return x, y, phi, jac_inv


def _fold_form(w1, w2, g, th, thp):
    """P = w1^2 Theta'^2 + g w2^2 Theta^2 = -rho^4 J^-1; the fold is its zero set."""
    a, b = w1 * thp, w2 * th
    return a * a + g * (b * b)


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
    # rows without folds give NaN or inf here (the caller ignores those
    # floating-point errors); the mask below drops them
    root_g_w2 = np.sqrt(-g) * np.abs(w2)
    if lam == 0.0:
        s0 = np.abs(c1 * w1) / root_g_w2
        cands = np.stack([(-s0 - c2) / c1, (s0 - c2) / c1], axis=-1)
    else:
        phi0 = math.atan2(c1, c2)
        y0 = np.arctan2(root_g_w2, lam * np.abs(w1))[:, None]
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
) -> MapPoint:
    """Image of (rho, theta) in coordinate space: ``MapPoint(x, y, phi,
    jac_inv)``, the position, the phase and the inverse Jacobian, each bit for
    bit the value of :func:`sample_fields`' record there.  The point's region
    is :func:`maxwell.classify`'s.

    ``lam = 1`` makes the inverse Jacobian vanish identically (the momentum
    solution is affine, so the tangent transform loses uniqueness), and a
    constant u maps every point to the origin; both raise
    :class:`DegenerateMapError` (:func:`momentum.require_chart`).  Raises
    :class:`ParameterError` unless sol and fac are one solution of params
    (:func:`momentum.require_matching`), and :class:`DomainError` where the
    radial factor cannot be evaluated or the inverse Jacobian is beyond the
    float range.
    """
    momentum.require_chart(params, sol, fac)
    r, rp, _ = momentum.radial_row(params, sol, rho)
    try:
        x, y, phi, jac_inv = _image(
            rho, r, rp, coeff_g(params, rho), fac.lam,
            fac.value(theta), fac.deriv(theta), math.cos(theta), math.sin(theta),
        )
    except ZeroDivisionError:  # rho^4 underflows
        jac_inv = math.inf
    if not math.isfinite(jac_inv):  # a square in J^-1, or rho^4, overflows
        raise DomainError(f"the inverse Jacobian at rho = {rho} is beyond the float range")
    return MapPoint(x, y, phi, jac_inv)


def map_differential(
    params: ModelParams,
    sol: RadialSolution,
    fac: AngularFactor,
    rho: float,
    theta: float,
) -> np.ndarray:
    """Analytic 2x2 differential d(x, y)/d(rho, theta) of the forward map.

    Uses the radial and angular equations to eliminate second derivatives, so
    it is exact for genuine separated solutions (:func:`momentum.require_matching`).
    """
    momentum.require_matching(params, sol, fac)
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
    target: tuple[float, float],
    seed: MomentumPoint | tuple[float, float],
) -> MomentumPoint:
    """Numerical inverse of the forward map by damped Newton iteration.

    The seed must lie on the same univalent leaf as the target; a sign change
    of the inverse Jacobian along the path raises :class:`FoldError` (the
    transform is multivalent there), and failure to converge within
    ``NEWTON_MAX_ITER`` steps raises :class:`NoConvergenceError`.  Converged points satisfy
    ``|forward(rho, theta) - target| <~ 1e-13 * scale``.
    """
    tx, ty = float(target[0]), float(target[1])
    rho, theta = float(seed[0]), float(seed[1])
    scale = max(math.hypot(tx, ty), 1e-30)
    point = forward_map(params, sol, fac, rho, theta)
    sign0 = math.copysign(1.0, point.jac_inv) if point.jac_inv != 0.0 else 0.0
    err = math.hypot(point.x - tx, point.y - ty)
    tol = 1e-13 * scale
    steps = 0
    while not err <= tol:  # a NaN residual keeps iterating, and so fails
        if steps == NEWTON_MAX_ITER:
            raise NoConvergenceError(f"no convergence after {NEWTON_MAX_ITER} iterations (residual {err:.3e})")
        steps += 1
        jac = map_differential(params, sol, fac, rho, theta)
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        if det == 0.0 or not math.isfinite(det):
            raise NoConvergenceError("singular differential on the Newton path")
        fx, fy = point.x - tx, point.y - ty
        drho = float(-(jac[1, 1] * fx - jac[0, 1] * fy) / det)
        dtheta = float(-(-jac[1, 0] * fx + jac[0, 0] * fy) / det)
        # backtracking: keep rho positive and the residual decreasing
        lam_step = 1.0
        for _bt in range(30):
            cand_rho = rho + lam_step * drho
            cand_theta = theta + lam_step * dtheta
            if cand_rho > 0.0:
                try:
                    cand = forward_map(params, sol, fac, cand_rho, cand_theta)
                except (DomainError, RegionError):
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
    return MomentumPoint(rho, theta)


def _grid(domain: SectorDomain, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    n_rho, n_theta = shape
    if n_rho < 2 or n_theta < 2:
        raise DomainError(f"grid must be at least 2x2, got {shape}")
    return (
        np.linspace(domain.rho_min, domain.rho_max, n_rho),
        np.linspace(domain.theta_min, domain.theta_max, n_theta),
    )


#: The flag of each code of :attr:`FieldGrid.code`; a higher code takes precedence.
_FLAGS = np.array(["", "node", "out-of-range", "density-singular"], dtype=object)


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """The mapped flow on a (rho, theta) product grid, as read-only arrays.

    ``rho`` and ``theta`` are the grid's axes.  ``x, y, phi, vx, vy, q_pot,
    u_pot, jac_inv`` are ``(n_rho, n_theta)`` arrays; ``speed``, ``density``
    and ``region`` hold one entry per rho row.  ``code`` is the
    ``(n_rho, n_theta)`` flag code: 0 no flag, then ``node``,
    ``out-of-range`` and ``density-singular`` (their names are ``_FLAGS``).
    ``univalent`` says whether the inverse Jacobian keeps one sign on the
    grid.

    ``len`` counts the points.  Iterating yields one :class:`FieldSample` per
    point, row-major in rho, built as it is read: the records cost their
    Python objects only to a caller that iterates them.  There is no integer
    indexing: the arrays are the indexed view, and ``list(grid)`` gives
    positions.
    """

    rho: np.ndarray
    theta: np.ndarray
    x: np.ndarray
    y: np.ndarray
    phi: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    q_pot: np.ndarray
    u_pot: np.ndarray
    jac_inv: np.ndarray
    speed: np.ndarray
    density: np.ndarray
    region: tuple[RegionTag, ...]
    code: np.ndarray
    univalent: bool

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def __len__(self) -> int:
        return self.code.size

    def __iter__(self) -> Iterator[FieldSample]:
        # one tolist() a column makes its floats; a row's speed, density and
        # region repeat its Python value, and no list holds every record
        speed, density, region = (chain.from_iterable(map(repeat, col, repeat(self.theta.size)))
                                  for col in (self.speed.tolist(), self.density.tolist(), self.region))
        x, y, phi, vx, vy, q_pot, u_pot, jac_inv = (
            field.ravel().tolist()
            for field in (self.x, self.y, self.phi, self.vx, self.vy, self.q_pot, self.u_pot, self.jac_inv)
        )
        flag = _FLAGS[self.code].ravel().tolist()
        columns = x, y, phi, vx, vy, speed, density, q_pot, u_pot, jac_inv, region, flag
        return map(tuple.__new__, repeat(FieldSample), zip(*columns))


def _field_block(params: ModelParams, sol: RadialSolution, fac: AngularFactor, domain: SectorDomain,
                 grid: tuple[int, int], norm: float) -> FieldGrid:
    """The fields of :func:`sample_fields` and ``map-fields`` on the grid,
    with ``density`` ``norm`` times F; no warning."""
    momentum.require_chart(params, sol, fac)
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
        out_of_range = np.isnan(r[:, 0]) | ~np.isfinite(jac_inv).all(axis=1) | np.isinf(u * u).any(axis=1)
        speed = abs(ALPHA) * rhos
        density = maxwell._density(params, speed, norm)
    block[:, out_of_range] = math.nan
    univalent = not ((jac_inv > 0.0).any() and (jac_inv < 0.0).any())
    vx[...], vy[...] = -ALPHA * rho * cos_t, -ALPHA * rho * sin_t
    density_singular = np.isnan(density)
    block[5:7, density_singular] = math.nan  # q_pot and u_pot
    code = np.maximum(node, np.maximum(2 * out_of_range, 3 * density_singular)[:, None])
    region = tuple(maxwell._regions(params, rhos))
    return FieldGrid(rhos, thetas, *block, speed, density, region, code, univalent)


def sample_fields(
    params: ModelParams,
    sol: RadialSolution,
    fac: AngularFactor,
    domain: SectorDomain,
    grid: tuple[int, int],
) -> FieldGrid:
    """The fields on a (rho, theta) product grid, as a :class:`FieldGrid`:
    its arrays, and its :class:`FieldSample` records row-major in rho, which
    are built only as the result is iterated.

    The solution separates as ``u = R(rho) Theta(theta)``, so the radial
    factor is evaluated once per rho row, all rows as arrays
    (:func:`momentum.radial_rows`, with g and the density F at N = 1 from the arrays
    that :func:`maxwell.normalization_sector` uses), and Theta once per theta
    column; the map, the inverse Jacobian and both potentials are then
    broadcast over the grid.  Each value equals the scalar path's (:func:`forward_map`,
    :func:`potentials.quantum_potential`, ...) bit for bit: the shared formulas run no NumPy power.

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
    :class:`DegenerateMapError`, a sol and fac that are not one solution of
    params :class:`ParameterError`, and an Omega sector that reaches below
    rho_T, where Omega does not exist, :class:`RegionError`.
    """
    fields = _field_block(params, sol, fac, domain, grid, 1.0)
    if not fields.univalent:
        warnings.warn(
            "inverse Jacobian changes sign over the grid: the image is not univalent",
            UnivalenceWarning,
            stacklevel=2,
        )
    return fields
