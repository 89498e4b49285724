"""Generalized Maxwell speed distributions and the induced momentum-space coefficients.

The distribution family is ``F(z) ~ z^ell exp(-const z^n)`` over the speed
``z``; ``n = ell = 2`` is the classical Maxwell case, ``n = 2, ell = 0`` a
Gaussian.  The characteristic scale is always tied to the unit of speed
``SIGMA_V`` so that the sonic radius ``rho_T = SIGMA_V / |ALPHA|`` is parameter
free: speeds below ``SIGMA_V`` fall in the elliptic region of the linearized
momentum-space equation, speeds above in the hyperbolic one.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DivergenceError, DomainError, NoConvergenceError, ParameterError, PoleError
from . import specfun


class RegionTag(enum.Enum):
    """Type of the linearized momentum-space equation at a given radius."""

    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"

    def __str__(self) -> str:  # CSV-friendly
        return self.value


def require_finite(obj) -> None:
    """Raise :class:`ParameterError` if a float field of the dataclass ``obj`` is NaN or infinite."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ParameterError(f"{type(obj).__name__}.{f.name} must be finite, got {value}")


#: The units, hbar = m = 1, shared with the vortex model of :mod:`potentials`,
#: the unit of speed ``SIGMA_V``, the sonic speed of every distribution, and
#: the flows' two constants: ``ALPHA`` sets the velocity ``v = -ALPHA p`` and
#: the sonic radius ``rho_T = SIGMA_V / |ALPHA|``, ``BETA`` the quantum
#: potential ``Q = (ALPHA / BETA) Lap sqrt(F) / sqrt(F)``.
HBAR = MASS = SIGMA_V = 1.0
ALPHA = -HBAR / (2.0 * MASS)
BETA = 1.0 / HBAR

#: Relative half-width of the parabolic band used by :func:`classify`.  The
#: parabolic set has measure zero; the band only steers branch selection.
EPS_PARABOLIC = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Parameters fixing one exact solution family, in the units of
    :data:`ALPHA`, :data:`BETA` and :data:`SIGMA_V` (hbar = m = 1).  ``c2``
    sets the angularly symmetric hyperbolic solution Omega on the sonic
    circle, ``Omega(rho_T) = rho_T c2 / n``; its amplitude is the angular
    factor's.
    """

    n: float
    ell: float
    c2: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.n <= 0.0:
            raise ParameterError(f"n must be positive, got {self.n}")
        if self.ell <= -1.0:
            raise ParameterError(f"ell must exceed -1, got {self.ell}")

    @property
    def rho_t(self) -> float:
        """Sonic momentum radius separating the elliptic and hyperbolic regions."""
        return SIGMA_V / abs(ALPHA)

    @property
    def sigma_nl(self) -> float:
        """Distribution scale sigma_{<v>,n,ell} tied to SIGMA_V (never free)."""
        return SIGMA_V / math.sqrt(2.0) * (self.n / (self.ell + 1.0)) ** (1.0 / self.n)

    def rho_bar(self, rho: float) -> float:
        return rho / self.rho_t

    def tau(self, rho: float) -> float:
        """Kummer argument tau = ((ell+1)/n) (rho/rho_T)^n; :class:`DomainError`
        where the power leaves the float range."""
        return (self.ell + 1.0) / self.n * specfun.checked_pow(self.rho_bar(rho), self.n)


def density_F(params: ModelParams, z: float) -> float:
    """Speed density F(z) = N (z/s)^ell 2^(-ell/2) exp(-(z/s)^n 2^(-n/2)), s = sigma_nl.

    Equivalent closed form used here: ``N ((ell+1)/n)^(ell/n) w^ell e^(-((ell+1)/n) w^n)``
    with ``w = z / SIGMA_V`` and N = 1.  For -1 < ell < 0 the density diverges at z = 0;
    where the decay underflows, F is 0.
    """
    if not z >= 0.0:
        raise DomainError(f"speed must be non-negative, got {z}")
    if z == 0.0 and params.ell < 0.0:
        raise DomainError("F has a power singularity at z = 0 for -1 < ell < 0")
    return _density(params, z, 1.0)


def _density(params: ModelParams, z, norm: float):
    """N F at a speed z >= 0, or at each speed of an array: NaN where F is
    singular (z = 0 with ell < 0), 0 where its decay underflows (an array's
    caller ignores the overflows past it); the powers and the exponential
    are Python's, so both give :func:`density_F`'s bits at N = 1."""
    w = z / SIGMA_V
    c = (params.ell + 1.0) / params.n
    decay = specfun._exp(-c * specfun._power(w, params.n))
    value = norm * specfun.checked_pow(c, params.ell / params.n) * specfun._power(w, params.ell) * decay
    if isinstance(value, np.ndarray):
        return np.where(decay > 0.0, value, 0.0)
    return value if decay > 0.0 else 0.0


def density_F_speed_integral(params: ModelParams) -> float:
    """Closed form of the 1-D speed integral of F (N = 1) over [0, inf)."""
    return (
        1.0
        / params.n
        * specfun.gamma((params.ell + 1.0) / params.n)
        * params.sigma_nl
        * math.sqrt(2.0)
    )


def coeff_h(params: ModelParams, z: float) -> float:
    """Quasilinear coefficient h(z) = ALPHA^2 F'(z) / (z F(z)) in speed form,
    with :class:`DomainError` where a power of z or h leaves the float range."""
    if not z > 0.0:
        raise DomainError(f"h requires z > 0, got {z}")
    s2n = params.sigma_nl ** params.n * 2.0 ** (params.n / 2.0)
    z2 = specfun.checked_pow(z, 2)
    h = ALPHA ** 2 / z2 * (params.ell - params.n * specfun.checked_pow(z, params.n) / s2n) if z2 else math.inf
    if not math.isfinite(h):
        raise DomainError(f"h at z = {z:g} is beyond the float range")
    return h


def coeff_g(params: ModelParams, rho: float) -> float:
    """g(rho) = 1 + rho^2 h_bar(rho) = (ell+1)(1 - (rho/rho_T)^n), with
    :class:`DomainError` where (rho/rho_T)^n leaves the float range."""
    if not rho > 0.0:
        raise DomainError(f"g requires rho > 0, got {rho}")
    g = _g(params, rho)
    if math.isnan(g):
        raise DomainError(f"(rho/rho_T)^n at rho = {rho:g} is out of the float range")
    return g


def _g(params: ModelParams, rho):
    """:func:`coeff_g` at a rho > 0, or at each rho of an array (Python's power)."""
    return (params.ell + 1.0) * (1.0 - specfun._power(params.rho_bar(rho), params.n))


def discriminant(params: ModelParams, rho: float) -> float:
    """Type discriminant Delta(rho) = -g(rho); positive in the hyperbolic region."""
    return -coeff_g(params, rho)


_REGION_TAGS = (RegionTag.ELLIPTIC, RegionTag.PARABOLIC, RegionTag.HYPERBOLIC)


def classify(params: ModelParams, rho: float) -> RegionTag:
    """Region of the linearized equation at radius rho.

    A relative band ``|rho - rho_T| <= EPS_PARABOLIC rho_T`` is tagged parabolic so
    that floating-point radii on the sonic circle select the right branch.
    """
    if not rho > 0.0:
        raise DomainError(f"classification requires rho > 0, got {rho}")
    return _REGION_TAGS[_region_code(params, rho)]


def _region_code(params: ModelParams, rho):
    """The index into ``_REGION_TAGS`` of :func:`classify` at a rho, or at each
    rho of an array: 1 plus the sign of ``rho - rho_T`` outside the band, in
    comparisons floats and arrays share."""
    offset, half_width = rho - params.rho_t, EPS_PARABOLIC * params.rho_t
    return 1 + (offset > half_width) - (offset < -half_width)


def _regions(params: ModelParams, rhos: np.ndarray) -> list[RegionTag]:
    """:func:`classify` at each rho of an array, with its :class:`DomainError`."""
    if not (rhos > 0.0).all():
        raise DomainError(f"classification requires rho > 0, got {rhos[~(rhos > 0.0)][0]}")
    return [_REGION_TAGS[code] for code in _region_code(params, rhos).tolist()]


def normalization_psi_model(n: float, ell: float, sigma_r: float) -> float:
    """Normalization constant of the vortex-model density over the plane.

    ``N^-1 = (2 pi sigma_r^2 / n) ((ell+1)/n)^(2/n) Gamma((ell-2)/n)``; the
    integral diverges for ell <= 2.  :class:`DomainError` where N or a factor
    of it leaves the float range or Gamma's argument is at its pole 0.
    """
    if ell <= 2.0:
        raise DivergenceError(f"plane normalization diverges for ell = {ell} <= 2")
    try:
        norm = 1.0 / (
            2.0 * math.pi * sigma_r ** 2 / n
            * ((ell + 1.0) / n) ** (2.0 / n)
            * specfun.gamma((ell - 2.0) / n)
        )
    except (OverflowError, ZeroDivisionError, PoleError):
        norm = 0.0
    if not 0.0 < norm < math.inf:
        raise DomainError(f"the vortex-model normalization at n = {n:g}, ell = {ell:g}, "
                          f"sigma_r = {sigma_r:g} is beyond the float range")
    return norm


#: Gauss-Legendre orders compared on every rho panel of :func:`normalization_sector`,
#: and the relative difference of their sums over the panels it accepts.
SECTOR_GL_ORDERS = (12, 24)
SECTOR_TOL = 1e-9

#: Panels :func:`normalization_sector` may bisect its rho range into before it gives up.
SECTOR_MAX_PANELS = 200


def normalization_sector(params: ModelParams, sol, fac, domain) -> float:
    """Normalization constant over the coordinate image of a momentum sector.

    Computed without inverting the map: the area element of the image pulls
    back to ``|J^-1| rho drho dtheta``, so ``N^-1 = integral F(|ALPHA| rho) |J^-1| rho``.

    The solution separates, so the rho integrand needs the radial factor once
    per rho, and the theta integral of ``|J^-1|`` is taken in closed form,
    split at the fold angles (:func:`mapping._abs_jac_inv_arc`).  The rho
    integrand is then analytic except at the radii where a fold meets a
    sector edge or two folds merge (w1 or w2 vanishes): a sign scan over the
    sector's two edges and the Gauss-Legendre nodes of the panels between
    them, and bisection, find them, and the rho range is cut there and at
    rho_T, where the folds are born with a width growing like
    ``sqrt(rho - rho_T)``.  A panel starting at rho_T is integrated in
    ``s = sqrt(rho - rho_T)``, which makes that growth smooth.  Every panel gets Gauss-Legendre rules of both
    orders in ``SECTOR_GL_ORDERS``; the panel where they differ most is
    bisected until they agree (this also covers a kink the scan missed).

    Every set of radii goes through one array pass: the radial rows
    (:func:`momentum.radial_rows`), g, F, the kink terms or the arc integral,
    and the Gauss-Legendre sums, for all rows at once.  The scan reads the
    rows of the first panels' nodes, and a panel the cuts leave standing
    keeps them; only the bisection evaluates one rho at a time, through the
    scalar :func:`momentum.radial_row` and the same kink terms.

    Accuracy contract: N is the reciprocal of the higher-order sum, and the
    two sums differ by at most ``SECTOR_TOL`` relative; where that takes more than
    ``SECTOR_MAX_PANELS`` panels, :class:`NoConvergenceError` is raised.
    lam = 1 and a constant u raise :class:`DegenerateMapError`, a ``sol`` and
    ``fac`` that are not one solution of ``params``
    (:func:`momentum.require_matching`) raise :class:`ParameterError`, and a sector on
    which the radial factor cannot be evaluated (tau above
    ``specfun.KUMMER_Z_MAX``) raises :class:`DomainError`.
    """
    from . import mapping, momentum  # deferred: both import this module

    momentum.require_chart(params, sol, fac)
    arc = (domain.theta_min, domain.theta_max)
    rho_t = params.rho_t

    def rows(rhos: np.ndarray) -> tuple:
        """rho, R, R' and g at every rho, from one radial sweep; where the
        sweep could not evaluate a row, the scalar path raises the reason."""
        r, rp, _ = momentum.radial_rows(params, sol, rhos)
        if np.isnan(r).any():
            momentum.radial_row(params, sol, float(rhos[np.isnan(r)][0]))
        return rhos, r, rp, _g(params, rhos)

    def negative(rho: float) -> list[bool]:
        r, rp, _ = momentum.radial_row(params, sol, rho)
        return [v < 0.0 for v in mapping._arc_kink_terms(rho, r, rp, coeff_g(params, rho), fac, *arc)]

    def nodes(lo: float, hi: float) -> tuple:
        """A panel's range of integration, both rules' nodes on it, and their
        radii: a panel from rho_T runs in s = sqrt(rho - rho_T)."""
        a, b = (0.0, math.sqrt(hi - lo)) if lo == rho_t else (lo, hi)
        s = _legendre_nodes(a, b, SECTOR_GL_ORDERS)
        return a, b, s, lo + s * s if lo == rho_t else s

    def panel(lo: float, hi: float, swept: tuple | None = None) -> list:
        """[lo, hi, integral, error] of one panel; ``swept`` holds its rows if
        they are already known."""
        a, b, s, rhos = nodes(lo, hi)
        rhos, r, rp, g = swept or rows(rhos)
        arc_integral = mapping._abs_jac_inv_arc(rhos, r, rp, g, fac, *arc)
        with np.errstate(all="ignore"):  # a sum that is not finite raises DivergenceError below
            values = _density(params, abs(ALPHA) * rhos, 1.0) * rhos * arc_integral
        if lo == rho_t:
            values = 2.0 * s * values
        sums = _legendre_sums(values, a, b, SECTOR_GL_ORDERS)
        return [lo, hi, sums[-1], abs(sums[-1] - sums[0])]

    # The two edges and the nodes of the first panels (from edge to edge, cut
    # at rho_T) go through one sweep; in order of rho, they are the radii of
    # the kink scan, and a first panel that no kink cuts keeps its rows.
    lo, hi = domain.rho_min, domain.rho_max
    edges = [lo, *([rho_t] if lo < rho_t < hi else []), hi]
    spans = list(zip(edges[:-1], edges[1:]))
    radii = [np.array([lo, hi]), *(nodes(a, b)[3] for a, b in spans)]
    swept = rows(np.concatenate(radii))
    order = np.argsort(swept[0])
    with np.errstate(all="ignore"):
        flags = np.array(mapping._arc_kink_terms(*swept, fac, *arc)) < 0.0
    cuts = _sign_change_radii(negative, swept[0][order].tolist(), flags[:, order])
    if lo < rho_t < hi:
        cuts = sorted({*cuts, rho_t})
    ends = list(itertools.accumulate(map(len, radii)))
    first = {span: tuple(col[i:j] for col in swept) for span, i, j in zip(spans, ends, ends[1:])}
    panels = [panel(a, b, first.get((a, b))) for a, b in zip(cuts[:-1], cuts[1:])]
    while True:
        total = math.fsum(p[2] for p in panels)
        err = math.fsum(p[3] for p in panels)
        if not math.isfinite(total) or total <= 0.0:
            raise DivergenceError("sector normalization integral did not produce a positive finite value")
        if err <= SECTOR_TOL * total:
            return 1.0 / total
        if len(panels) >= SECTOR_MAX_PANELS:
            raise NoConvergenceError(
                f"Gauss-Legendre orders {SECTOR_GL_ORDERS} still differ by {err / total:.2e} relative"
                f" over {len(panels)} panels, above SECTOR_TOL = {SECTOR_TOL:.1e}"
            )
        i = max(range(len(panels)), key=lambda k: panels[k][3])
        lo, hi = panels[i][:2]
        mid = 0.5 * (lo + hi)
        panels[i:i + 1] = [panel(lo, mid), panel(mid, hi)]


def _sign_change_radii(negative, grid: list[float], flags: np.ndarray) -> list[float]:
    """The ends of ``grid`` and every radius between where a component of
    ``negative(rho)`` flips: ``flags`` holds it at each radius of the scan
    ``grid`` (a (component, radius) array), and bisection of each bracket
    where it flips finds the radius."""
    cuts = {grid[0], grid[-1]}
    for k, i in zip(*np.nonzero(flags[:, 1:] != flags[:, :-1])):
        fa = flags[k, i]
        a, b = grid[i], grid[i + 1]
        while b - a > 1e-13 * b:
            mid = 0.5 * (a + b)
            if negative(mid)[k] == fa:
                a = mid
            else:
                b = mid
        cuts.add(0.5 * (a + b))
    return sorted(cuts)


def _legendre_nodes(a: float, b: float, orders: tuple[int, ...]) -> np.ndarray:
    """Nodes of the Gauss-Legendre rules of each order on [a, b], one rule after the other."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    return mid + half * _legendre_rules(orders)[0]


def _legendre_sums(values: np.ndarray, a: float, b: float, orders: tuple[int, ...]) -> list[float]:
    """Each order's Gauss-Legendre rule on [a, b] from the integrand ``values``
    at :func:`_legendre_nodes`."""
    weighted = (_legendre_rules(orders)[1] * values).tolist()
    ends = itertools.accumulate(orders)
    return [0.5 * (b - a) * math.fsum(weighted[end - m:end]) for m, end in zip(orders, ends)]


@functools.lru_cache(maxsize=None)
def _legendre_rules(orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    rules = [np.polynomial.legendre.leggauss(m) for m in orders]
    return np.concatenate([x for x, _ in rules]), np.concatenate([w for _, w in rules])
