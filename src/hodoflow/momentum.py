"""Momentum-space machinery: characteristics, canonical coefficients, the
oscillator-form substitution, exact radial solutions, angular factors, and the
enumeration of parameter triples whose radial factor degenerates to a
generalized Laguerre polynomial.

Radial solutions separate as ``u(rho, theta) = R(rho) Theta(theta)``.  In the
variable ``tau = ((ell+1)/n) (rho/rho_T)^n`` the radial equation is confluent
hypergeometric, so R is a power times a Kummer M (regular branch) or Tricomi
Psi (singular branch); :func:`specfun._confluent` evaluates either, with its
derivative and nodes, and this module assembles R from it.  An angularly
symmetric exact solution Omega exists in the hyperbolic region.  Omega and
the oscillator-form substitution zeta are one antiderivative, taken from the
sonic circle and summed as one series in rho_bar^n.
"""

from __future__ import annotations

import enum
import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import specfun
from .errors import (
    DegenerateMapError,
    DomainError,
    ParameterError,
    RegionError,
    SaturationWarning,
)
from .maxwell import ModelParams, RegionTag, classify, discriminant, require_finite
from .specfun import SERIES_MAX_TERMS, SERIES_REL_TOL

#: Elliptic characteristics contain artanh(sqrt(1 - rho_bar^n)), divergent as
#: rho -> 0 (strong spiral winding near the origin).  Radii below this floor
#: are clamped and flagged with :class:`SaturationWarning`.
RHO_FLOOR_REL = 1e-6

#: Power-series branches lose digits for large rho_bar^n; the mapped domains
#: never exceed rho_bar ~ 3, so the cap is generous.
RHO_BAR_N_CAP = 50.0

#: Theta counts as zero (a nodal line of the angular factor) when
#: ``|Theta| < THETA_NODE_TOL (|c1| + |c2| [+ |c1 theta| when lam = 0])``.
THETA_NODE_TOL = 1e-12

#: Most orders k the Laguerre enumerators scan for one lam (or one ell): a
#: larger range raises :class:`ParameterError` before the scan starts.
LAGUERRE_MAX_ORDER = 10_000


class CharacteristicKind(enum.Enum):
    HYPERBOLIC_PLUS = "h+"
    HYPERBOLIC_MINUS = "h-"
    ELLIPTIC_PLUS = "e+"
    ELLIPTIC_MINUS = "e-"

    @property
    def hyperbolic(self) -> bool:
        return self in (CharacteristicKind.HYPERBOLIC_PLUS, CharacteristicKind.HYPERBOLIC_MINUS)

    @property
    def sign(self) -> float:
        return 1.0 if self in (CharacteristicKind.HYPERBOLIC_PLUS, CharacteristicKind.ELLIPTIC_PLUS) else -1.0


def characteristic_chi(params: ModelParams, kind: CharacteristicKind, rho: float, theta: float) -> float:
    """Characteristic function chi(rho, theta) of the mixed-type equation.

    Hyperbolic kinds use ``sqrt(e) - arctan(sqrt(e))`` with ``e = rho_bar^n - 1``
    and are valid where :func:`classify` does not call rho elliptic; elliptic
    kinds use ``sqrt(1 - rho_bar^n) - artanh(...)`` where it does not call rho
    hyperbolic (both in the parabolic band), else :class:`RegionError`.  Both
    radial parts vanish on the sonic circle, where chi = +/- theta.
    :class:`DomainError` where rho is not positive or theta is not finite.
    """
    if not rho > 0.0:
        raise DomainError(f"chi requires rho > 0, got {rho}")
    if not math.isfinite(theta):
        raise DomainError(f"chi requires a finite theta, got {theta}")
    region = classify(params, rho)
    pref = 2.0 / params.n * math.sqrt(params.ell + 1.0)
    if kind.hyperbolic:
        if region is RegionTag.ELLIPTIC:
            raise RegionError(f"hyperbolic characteristic needs rho >= rho_T, got rho = {rho}")
        t = math.sqrt(max(specfun.checked_pow(params.rho_bar(rho), params.n) - 1.0, 0.0))
        radial = pref * (t - math.atan(t))
    else:
        if region is RegionTag.HYPERBOLIC:
            raise RegionError(f"elliptic characteristic needs rho <= rho_T, got rho = {rho}")
        floor = RHO_FLOOR_REL * params.rho_t
        if rho < floor:
            warnings.warn(
                f"rho = {rho} below the elliptic floor {floor}; value saturated at the floor",
                SaturationWarning,
                stacklevel=2,
            )
            rho = floor
        t = math.sqrt(max(1.0 - specfun.checked_pow(params.rho_bar(rho), params.n), 0.0))
        radial = pref * (t - math.atanh(t)) if t < 1.0 else -math.inf
    return radial + kind.sign * theta


def slope_rho_theta(params: ModelParams, rho: float) -> float:
    """Slope d(rho)/d(theta) along a characteristic: rho / sqrt(+-Delta).

    Returns ``math.inf`` on the sonic circle, where characteristics cross the
    circle orthogonally.
    """
    if not rho > 0.0:
        raise DomainError(f"slope requires rho > 0, got {rho}")
    delta = discriminant(params, rho)
    if delta == 0.0:
        return math.inf
    return rho / math.sqrt(abs(delta))


def canonical_kappa(params: ModelParams, rho: float) -> float:
    """First-order coefficient of the canonical form in the region
    :func:`classify` gives at rho:

        kappa_e = [n(ell+1) + (n-2) Delta + 2 Delta^2] / (4 (-Delta)^(3/2))   (elliptic)
        kappa_h = [n(ell+1) + (n-2) Delta - 2 Delta^2] / (8 Delta^(3/2))      (hyperbolic)

    kappa is singular on the sonic circle: :class:`RegionError` in the
    parabolic band and where Delta rounds to 0 (rho_bar^n = 1 in floats).
    """
    region = classify(params, rho)
    delta = discriminant(params, rho)
    if region is RegionTag.PARABOLIC or delta == 0.0:
        raise RegionError(f"kappa is singular on the sonic circle: rho = {rho}, Delta = {delta}")
    core = params.n * (params.ell + 1.0) + (params.n - 2.0) * delta
    if region is RegionTag.ELLIPTIC:
        return (core + 2.0 * specfun.checked_pow(delta, 2)) / (4.0 * (-delta) ** 1.5)
    return (core - 2.0 * specfun.checked_pow(delta, 2)) / (8.0 * delta ** 1.5)


# ---------------------------------------------------------------------------
# Oscillator-form (Hill) substitution
# ---------------------------------------------------------------------------

def _check_rho_bar(params: ModelParams, rho: float) -> tuple[float, float]:
    """``(rho_bar, rho_bar^n)`` at a rho > 0, with :class:`DomainError` where
    the power leaves the float range or exceeds ``RHO_BAR_N_CAP``."""
    rb = params.rho_bar(rho)
    x = specfun.checked_pow(rb, params.n)
    if x > RHO_BAR_N_CAP:
        raise DomainError(f"rho_bar^n = {x:.3g} exceeds the series cap {RHO_BAR_N_CAP}")
    return rb, x


def _hill_integral(params: ModelParams, rho: float) -> float:
    """The antiderivative of ``t^-(q+1) e^(coef t)`` (``coef = (ell+1)/n``,
    ``q = ell/n``) that zeta and Omega share, taken from the sonic circle:
    ``I(x) = int_1^x ... dt = sum_j coef^j/j! (x^(j-q) - 1)/(j - q)`` at
    ``x = rho_bar^n``, the j = q term ``ln x``.  Every term has the sign of
    ``ln x``, so the sum does not cancel, and it is continuous in ell.

    A term is ``coef^j/j! expm1((j-q) ln x)/(j-q)`` where ``|(j-q) ln x| <
    1``, else the difference of the running products ``x^-q (coef x)^j/j!``
    and ``coef^j/j!``, which differ there by at least a factor e; ``ln x`` is
    ``n ln rho_bar``.  Raises :class:`DomainError` above ``RHO_BAR_N_CAP``,
    where rho_bar^n underflows to 0, where ``x^-q`` leaves the normal float
    range (where it underflows, I overflows) and where I does.
    """
    if not rho > 0.0:
        raise DomainError(f"rho must be positive, got {rho}")
    rb, x = _check_rho_bar(params, rho)
    if x == 0.0:
        raise DomainError(f"rho_bar^n underflows to 0 at rho = {rho}")
    log_x = params.n * math.log(rb)
    if log_x == 0.0:
        return 0.0
    q, coef = params.ell / params.n, (params.ell + 1.0) / params.n
    at_x, at_1 = specfun.checked_pow(x, -q), 1.0
    if at_x < sys.float_info.min:
        raise DomainError(f"rho_bar^-ell = {at_x:.3g} at rho_bar = {rb} is below the float range")
    total = 0.0
    small = 0
    for j in range(SERIES_MAX_TERMS):
        p = j - q
        if abs(p * log_x) < 1.0:
            term = at_1 * (math.expm1(p * log_x) / p if p else log_x)
        else:
            term = (at_x - at_1) / p
        total += term
        if not math.isfinite(total):
            raise DomainError(f"the Hill integral at rho_bar = {rb} is beyond the float range")
        if abs(term) < SERIES_REL_TOL * abs(total):
            small += 1
            if small >= 3 and j > coef * max(x, 1.0):  # past both products' humps
                return total
        else:
            small = 0
        at_x *= coef * x / (j + 1)
        at_1 *= coef / (j + 1)
    raise DomainError(f"the Hill integral series did not converge at rho_bar = {rb}")


def hill_substitution_zeta(params: ModelParams, rho: float) -> float:
    """Radial substitution zeta(rho) that removes the first-derivative term:
    ``rho_T I / n``, I the Hill integral (:func:`_hill_integral`), so
    that zeta' = :func:`zeta_bar` and zeta(rho_T) = 0."""
    return params.rho_t * (_hill_integral(params, rho) / params.n)


def zeta_bar(params: ModelParams, rho: float) -> float:
    """d(zeta)/d(rho) = (rho_T/rho)^(ell+1) exp(((ell+1)/n) rho_bar^n)."""
    if not rho > 0.0:
        raise DomainError(f"rho must be positive, got {rho}")
    rb = params.rho_bar(rho)
    return specfun.checked_pow(rb, -(params.ell + 1.0)) * specfun.checked_exp(params.tau(rho))


def hill_coefficient_G(params: ModelParams, lam: float, rho: float) -> float:
    """Squared variable frequency G of the oscillator form, signed by region.

    ``G = +theta^2`` for rho_bar >= 1 and ``-theta^2`` below, with
    ``theta = lam sqrt(ell+1)/rho_T rho_bar^ell sqrt(|rho_bar^n - 1|) e^(-tau)``.
    """
    if not rho > 0.0:
        raise DomainError(f"rho must be positive, got {rho}")
    rb = params.rho_bar(rho)
    vart = (
        lam
        * math.sqrt(params.ell + 1.0)
        / params.rho_t
        * specfun.checked_pow(rb, params.ell)
        * math.sqrt(abs(specfun.checked_pow(rb, params.n) - 1.0))
        * math.exp(-params.tau(rho))
    )
    return vart ** 2 if rb >= 1.0 else -(vart ** 2)


# ---------------------------------------------------------------------------
# Radial solutions
# ---------------------------------------------------------------------------

def nu_roots(ell: float, lam: float) -> tuple[float, float]:
    """Exponents nu(+-) = -ell/2 +- sqrt(ell^2/4 + lam^2 (ell+1)) of the radial
    factor, the roots of the indicial equation ``nu^2 + ell nu = lam^2 (ell+1)``.
    The root of larger magnitude is formed as written and the other from
    ``nu+ nu- = -lam^2 (ell+1)``, so neither cancels."""
    disc = math.sqrt(ell * ell / 4.0 + lam * lam * (ell + 1.0))
    product = -lam * lam * (ell + 1.0)
    if ell < 0.0:
        nu_p = -ell / 2.0 + disc
        return nu_p, product / nu_p
    nu_m = -ell / 2.0 - disc
    return (product / nu_m if nu_m != 0.0 else 0.0), nu_m


def kummer_ab(n: float, ell: float, nu: float, lam: float) -> tuple[float, float]:
    """Confluent-equation parameters a = (nu - lam^2)/n, b = (2 nu + n + ell)/n."""
    return (nu - lam * lam) / n, (2.0 * nu + n + ell) / n


class RadialKind(enum.Enum):
    KUMMER_PLUS = "kummer+"
    KUMMER_MINUS = "kummer-"
    TRICOMI_PLUS = "tricomi+"
    TRICOMI_MINUS = "tricomi-"
    HYPERBOLIC_OMEGA = "omega"
    CONSTANT = "constant"

    @property
    def kummer_based(self) -> bool:
        return self in (
            RadialKind.KUMMER_PLUS,
            RadialKind.KUMMER_MINUS,
            RadialKind.TRICOMI_PLUS,
            RadialKind.TRICOMI_MINUS,
        )

    @property
    def tricomi(self) -> bool:
        return self in (RadialKind.TRICOMI_PLUS, RadialKind.TRICOMI_MINUS)


@dataclass(frozen=True)
class LaguerreCase:
    """One (lam, k) pair whose regular radial factor is a Laguerre polynomial.

    The catalog rule, judged here only (the enumerators propose candidates):
    lam >= 1, k >= 0, n > 0, ell > -1, and the degeneration condition
    ``k n ell = (lam^2 - k n)^2 - lam^2`` to 1e-9 of ``max(1, lam^4)`` (at
    k = 0 it holds only at lam = 1), with ``k n <= lam sqrt(lam^2 - 1)``;
    ``alpha_bar`` is nonzero and equals ``(2 (lam^2 - k n) + ell) / n`` to
    1e-9 relative.  :class:`ParameterError` where a field is NaN or infinite
    or the rule fails, :class:`DomainError` where lam^4,
    ``(lam^2 - k n)^2`` or that alpha_bar is beyond the float range.
    """

    lam: float
    k: int
    n: float
    ell: float
    alpha_bar: float

    def __post_init__(self) -> None:
        require_finite(self)
        if self.lam < 1.0 - 1e-12:
            raise ParameterError(f"Laguerre cases require lam >= 1, got {self.lam}")
        if self.k < 0:
            raise ParameterError(f"k must be non-negative, got {self.k}")
        _require_order_n(self.n)
        if self.ell <= -1.0:
            raise ParameterError(f"ell must exceed -1, got {self.ell}")
        if self.alpha_bar == 0.0:
            raise ParameterError("alpha_bar = 0 is excluded")
        kn = self.k * self.n
        try:
            lam2 = self.lam ** 2
            scale = max(1.0, lam2 ** 2)
            residual = kn * self.ell - ((lam2 - kn) ** 2 - lam2)
        except OverflowError:
            raise DomainError(f"lam^4 or (lam^2 - k n)^2 at lam = {self.lam:g}, k n = {kn:g} "
                              "is beyond the float range") from None
        if abs(residual) > 1e-9 * scale:
            raise ParameterError(f"(k, ell, lam) violate the degeneration condition: residual {residual}")
        if kn > math.sqrt(max(lam2 * (lam2 - 1.0), 0.0)) * (1.0 + 1e-9) + 1e-12:
            raise ParameterError("k n exceeds lam sqrt(lam^2 - 1)")
        expected = (2.0 * (lam2 - kn) + self.ell) / self.n
        if not math.isfinite(expected):
            raise DomainError(f"(2 (lam^2 - k n) + ell) / n at n = {self.n:g} is beyond the float range")
        if abs(self.alpha_bar - expected) > 1e-9 * abs(expected):
            raise ParameterError(f"alpha_bar = {self.alpha_bar} is not (2 (lam^2 - k n) + ell) / n = {expected}")

    @property
    def bridge_constant(self) -> float:
        """c0 in M(-k, 1+alpha_bar, z) = c0 L_k^(alpha_bar)(z): Gamma(1+k) Gamma(1+alpha_bar) /
        Gamma(1+alpha_bar+k) as the product of j / (alpha_bar + j) over j = 1..k, which stays in
        range where the gammas do not.  :class:`DomainError` where c0 or 1/c0 leaves the float range."""
        c0 = math.prod((j / (self.alpha_bar + j) for j in range(1, self.k + 1)), start=1.0)
        if c0 == 0.0 or math.isinf(1.0 / c0):
            raise DomainError(f"the Laguerre bridge constant at k = {self.k}, alpha_bar = {self.alpha_bar:g} "
                              "is beyond the float range")
        return c0


@dataclass(frozen=True)
class RadialSolution:
    """Tagged choice of radial factor: a kind, its separation constant lam
    and a scale.  A Kummer-based kind's nu, a and b follow from the model it
    is evaluated in (:meth:`exponents`), as Omega reads its model.

    ``scale`` multiplies the raw power-times-Kummer form; Laguerre-case
    constructions set it so the radial factor is ``(-1)^k rho_bar^nu L_k(tau)``.
    """

    kind: RadialKind
    lam: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.lam < 0.0:
            raise ParameterError(f"lam must be non-negative, got {self.lam}")

    def exponents(self, params: ModelParams) -> tuple[float, float, float]:
        """``(nu, a, b)`` of a Kummer-based kind under params: nu the first
        root of :func:`nu_roots` for the ``+`` kinds and the second for the
        ``-`` kinds, and ``(a, b)`` from :func:`kummer_ab`.  Raises
        :class:`ParameterError` for another kind, where nu, a or b is not
        finite, and where b is a non-positive integer on the M branch or an
        integer on the Tricomi branch."""
        if not self.kind.kummer_based:
            raise ParameterError(f"the {self.kind.value} kind has no Kummer exponents")
        nu = nu_roots(params.ell, self.lam)[self.kind.value.endswith("-")]
        a, b = kummer_ab(params.n, params.ell, nu, self.lam)
        if not (math.isfinite(nu) and math.isfinite(a) and math.isfinite(b)):
            raise ParameterError(f"nu = {nu}, a = {a}, b = {b} at lam = {self.lam} must be finite")
        if self.kind.tricomi and specfun._integer_b(b):
            raise ParameterError(f"b = {b} integer; Tricomi branch not implemented")
        if not self.kind.tricomi and specfun.is_nonpositive_integer(b):
            raise ParameterError(f"b = {b} is a non-positive integer; M branch undefined")
        return nu, a, b

    # -- factories ---------------------------------------------------------
    @staticmethod
    def kummer(params: ModelParams, lam: float, branch: str = "+", tricomi: bool = False) -> "RadialSolution":
        """The M (Psi where ``tricomi``) solution of ``branch``, ``"+"`` or ``"-"``;
        :class:`ParameterError` for another branch and where :meth:`exponents` raises."""
        if branch not in ("+", "-"):
            raise ParameterError(f"branch must be '+' or '-', got {branch!r}")
        sol = RadialSolution(kind=RadialKind(("tricomi" if tricomi else "kummer") + branch), lam=lam)
        sol.exponents(params)
        return sol

    @staticmethod
    def from_laguerre_case(params: ModelParams, case: LaguerreCase) -> "RadialSolution":
        if abs(case.n - params.n) > 1e-12 or abs(case.ell - params.ell) > 1e-9:
            raise ParameterError("Laguerre case belongs to different (n, ell)")
        sign = -1.0 if case.k % 2 else 1.0
        return replace(RadialSolution.kummer(params, case.lam), scale=sign / case.bridge_constant)

    @staticmethod
    def omega() -> "RadialSolution":
        """The angularly symmetric hyperbolic solution Omega(rho)
        (:func:`hyperbolic_omega`), the lam = 0 separated solution with
        Theta = 1 (``AngularFactor(lam=0, c1=0, c2=1)``), ``rho_T c2 / n``
        on the sonic circle.  Omega' equals zeta_bar, so the map sends (rho,
        theta) to radius zeta_bar(rho) at polar angle theta, with phase ``rho
        zeta_bar - Omega``.
        """
        return RadialSolution(kind=RadialKind.HYPERBOLIC_OMEGA, lam=0.0)

    @staticmethod
    def constant() -> "RadialSolution":
        return RadialSolution(kind=RadialKind.CONSTANT, lam=0.0)


def radial_row(params: ModelParams, sol: RadialSolution, rho: float) -> tuple[float, float, float]:
    """``(R, dR/drho, Rcal)`` at one rho: the radial quantities that every
    point of a rho row shares; a Kummer-based kind's ``R = scale rho_bar^nu
    T(tau)`` takes T, T' and the node mask from :func:`specfun._confluent`.
    :func:`radial_rows` makes the same two calls on the array of all rows' tau.

    Rcal = rho R'/R is evaluated as ``nu + n tau T'/T``.  The derivative uses
    the exact contiguity relations of M / Psi, not finite differences, so it
    is as accurate as the values themselves.  Rcal is NaN where T vanishes at
    working precision, the log-derivative pole on a nodal line (the node mask
    of :func:`specfun._confluent`), or where |Omega| < 1e-300.
    Raises :class:`DomainError` where the radial factor cannot be evaluated
    (rho_bar^n above ``RHO_BAR_N_CAP``, tau above ``specfun.KUMMER_Z_MAX``, or
    a power of rho_bar or tau beyond the float range at small rho), and
    :class:`ParameterError` where params does not admit a Kummer-based
    kind's b (:meth:`RadialSolution.exponents`).  A plain tuple, since the
    scalar map calls this once per point.
    """
    if not rho > 0.0:
        raise DomainError(f"rho must be positive, got {rho}")
    if sol.kind is RadialKind.CONSTANT:
        return 1.0, 0.0, 0.0
    if sol.kind is RadialKind.HYPERBOLIC_OMEGA:
        value = hyperbolic_omega(params, rho)
        slope = zeta_bar(params, rho)
        return value, slope, rho * slope / value if abs(value) >= 1e-300 else math.nan
    nu, a, b = sol.exponents(params)
    rb, x = _check_rho_bar(params, rho)
    tau = (params.ell + 1.0) / params.n * x
    value, slope, rcal = _radial_values(params, sol.scale, nu, rb, tau, specfun._confluent(a, b, sol.kind.tricomi, tau))
    if math.isnan(value) or math.isnan(slope):
        raise DomainError(f"a power of rho_bar or tau at rho = {rho} is beyond the float range")
    return value, slope, rcal


def radial_rows(params: ModelParams, sol: RadialSolution, rhos) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`radial_row` at every rho of ``rhos``: three arrays ``R, dR/drho,
    Rcal``, equal bit for bit to the scalar rows, with NaN in all three where
    :func:`radial_row` raises :class:`DomainError` or :class:`RegionError`.

    The Kummer-based kinds make one :func:`specfun._confluent` call, one
    block of series, at the admitted rows' tau; the Omega kind goes row by
    row through :func:`radial_row`.
    """
    rhos = np.asarray(rhos, dtype=float).ravel()
    if not sol.kind.kummer_based:
        rows = [(math.nan, math.nan, math.nan)] * rhos.size
        for i, rho in enumerate(rhos.tolist()):
            try:
                rows[i] = radial_row(params, sol, rho)
            except (DomainError, RegionError):
                pass
        return tuple(np.array(rows).reshape(-1, 3).T)
    nu, a, b = sol.exponents(params)
    rb = np.where(rhos > 0.0, rhos / params.rho_t, math.nan)
    x = specfun._power(rb, params.n)
    tau = (params.ell + 1.0) / params.n * x
    # the rows that radial_row admits: NaN fails every comparison
    valid = (x <= RHO_BAR_N_CAP) & (tau <= specfun.KUMMER_Z_MAX) & ((tau > 0.0) | (not sol.kind.tricomi))
    rb, tau = rb[valid], tau[valid]
    with np.errstate(all="ignore"):
        r, rp, rcal = _radial_values(params, sol.scale, nu, rb, tau, specfun._confluent(a, b, sol.kind.tricomi, tau))
    rows = np.full((3, rhos.size), math.nan)
    rows[:, valid] = np.where(np.isnan(r) | np.isnan(rp), math.nan, (r, rp, rcal))
    return tuple(rows)


def _radial_values(params: ModelParams, scale: float, nu: float, rb, tau, confluent):
    """``(R, dR/drho, Rcal)`` of exponent nu and ``scale`` from rho_bar, tau and
    ``confluent``, the ``(T, dT/dtau, node)`` of :func:`specfun._confluent` at
    tau, for one row or for arrays of rows: Python's powers (:func:`specfun._power`)
    and ``+ - * /``, so both give the same bits.  R or R' is NaN where a power
    leaves the float range."""
    t_val, t_der, node = confluent
    value = scale * specfun._power(rb, nu) * t_val
    slope = scale * specfun._power(rb, nu - 1.0) * (nu * t_val + params.n * tau * t_der) / params.rho_t
    rcal = nu + params.n * tau * (t_der / _nan_where(node, t_val))
    return value, slope, rcal


def _nan_where(mask, x):
    """x with NaN where ``mask`` holds: elementwise for an array, a plain
    choice for a float."""
    if isinstance(x, np.ndarray):
        return np.where(mask, math.nan, x)
    return math.nan if mask else x


def _require_hyperbolic(params: ModelParams, rho: float) -> None:
    if classify(params, rho) is RegionTag.ELLIPTIC:
        raise RegionError(f"hyperbolic solution needs rho >= rho_T, got {rho}")


def hyperbolic_omega(params: ModelParams, rho: float) -> float:
    """Angularly symmetric exact solution in the hyperbolic region,
    ``Omega(rho) = rho_T (I(rho_bar^n) + c2) / n`` with ``I`` the Hill
    integral (:func:`_hill_integral`): zeta shifted by ``rho_T c2 / n``,
    so Omega' = :func:`zeta_bar` and Omega(rho_T) = ``rho_T c2 / n``; the
    amplitude of ``u = Omega Theta`` is Theta's.  Depends on rho only; the angular average of any flow built on
    it is trivially preserved.  :class:`RegionError` where :func:`classify`
    calls rho elliptic, and its :class:`DomainError` where rho is not
    positive.
    """
    _require_hyperbolic(params, rho)
    return params.rho_t * (_hill_integral(params, rho) + params.c2) / params.n


# ---------------------------------------------------------------------------
# Angular factor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngularFactor:
    """Angular factor Theta(theta): linear for lam = 0, trigonometric otherwise."""

    lam: float
    c1: float = 1.0
    c2: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.lam < 0.0:
            raise ParameterError(f"lam must be non-negative, got {self.lam}")
        if self.c1 == 0.0 and self.c2 == 0.0:
            raise ParameterError("c1 and c2 cannot both vanish")

    def value(self, theta):
        """Theta at an angle, or elementwise over an array of angles (NumPy's
        sin and cos for an array, math's for a float: one formula serves both)."""
        if self.lam == 0.0:
            return self.c1 * theta + self.c2
        xp = np if isinstance(theta, np.ndarray) else math
        return self.c1 * xp.sin(self.lam * theta) + self.c2 * xp.cos(self.lam * theta)

    def deriv(self, theta):
        """Theta' at an angle or over an array (the constant c1 when lam = 0)."""
        if self.lam == 0.0:
            return self.c1
        xp = np if isinstance(theta, np.ndarray) else math
        return self.lam * (self.c1 * xp.cos(self.lam * theta) - self.c2 * xp.sin(self.lam * theta))

    def at_node(self, theta):
        """Whether Theta vanishes at working precision, ``THETA_NODE_TOL``
        (elementwise for an array)."""
        scale = abs(self.c1) + abs(self.c2) + (abs(self.c1 * theta) if self.lam == 0.0 else 0.0)
        return abs(self.value(theta)) < THETA_NODE_TOL * scale


# ---------------------------------------------------------------------------
# Laguerre-case enumeration
# ---------------------------------------------------------------------------

def _require_order_n(n: float) -> None:
    if not (math.isfinite(n) and n > 0.0):
        raise ParameterError(f"n must be finite and positive, got {n}")


def _order_cap(n: float, lam: float) -> int:
    """The largest admissible order, floor(lam sqrt(lam^2 - 1) / n);
    :class:`ParameterError` beyond ``LAGUERRE_MAX_ORDER``."""
    try:
        top = math.sqrt(max(lam ** 2 * (lam ** 2 - 1.0), 0.0)) / n + 1e-9
    except OverflowError:
        top = math.inf
    if top > LAGUERRE_MAX_ORDER:
        raise ParameterError(f"lam = {lam:g} at n = {n:g} admits orders k up to {top:.3g}, "
                             f"beyond LAGUERRE_MAX_ORDER = {LAGUERRE_MAX_ORDER}")
    return int(math.floor(top))


def _laguerre_case(n: float, ell: float, lam2: float, k: int) -> LaguerreCase | None:
    """The candidate of order k at lam^2 = ``lam2``, with ``alpha_bar`` formed
    from that lam2 (not from sqrt(lam2) squared), or None where
    :class:`LaguerreCase` rejects it (a negative lam2 proposes lam = 0)."""
    try:
        return LaguerreCase(lam=math.sqrt(max(lam2, 0.0)), k=k, n=n, ell=ell,
                            alpha_bar=(2.0 * (lam2 - k * n) + ell) / n)
    except ParameterError:
        return None


def laguerre_enumerate(n: float, lambda_set: list[float], ell_max: float) -> list[LaguerreCase]:
    """All polynomial radial cases for each lam in ``lambda_set``.

    For lam >= 1 the admissible orders are k <= lam sqrt(lam^2 - 1) / n; each
    k pins ell through the degeneration condition.  lam = 1 only admits the
    trivial k = 0 polynomial, which holds for every ell and so gives no row
    (:func:`laguerre_enumerate_for_ell` lists it).  Output is ordered by lam,
    then k.  ``n`` must be finite and positive, ``ell_max`` not NaN (inf
    means no bound) and each lam finite, with at most ``LAGUERRE_MAX_ORDER``
    orders, else :class:`ParameterError`.
    """
    _require_order_n(n)
    if math.isnan(ell_max):
        raise ParameterError("ell_max must not be NaN")
    rows: list[LaguerreCase] = []
    for lam in sorted(lambda_set):
        if not math.isfinite(lam):
            raise ParameterError(f"lam must be finite, got {lam}")
        if lam < 1.0 - 1e-12:
            continue
        lam2 = lam * lam
        for k in range(1, _order_cap(n, lam) + 1):
            case = _laguerre_case(n, ((lam2 - k * n) ** 2 - lam2) / (k * n), lam2, k)
            if case is not None and case.ell <= ell_max:
                rows.append(case)
    return rows


def laguerre_enumerate_for_ell(n: float, ell: float, k_max: int) -> list[LaguerreCase]:
    """Polynomial cases with the distribution pair (n, ell) held fixed.

    For each order k >= 1 the degeneration condition is a quadratic in lam^2;
    both roots are proposed and :class:`LaguerreCase` keeps the one
    compatible with ``k n <= lam sqrt(lam^2 - 1)`` (and lam >= 1).  k = 0
    always contributes lam = 1.  Ordered by lam, then k.
    :class:`ParameterError` unless n is finite and positive, ell finite and
    above -1 and ``k_max <= LAGUERRE_MAX_ORDER``; :class:`DomainError` where
    an order's discriminant or lam^4 leaves the float range.
    """
    _require_order_n(n)
    if not (math.isfinite(ell) and ell > -1.0):
        raise ParameterError(f"ell must be finite and exceed -1, got {ell}")
    if k_max > LAGUERRE_MAX_ORDER:
        raise ParameterError(f"k_max = {k_max} is beyond LAGUERRE_MAX_ORDER = {LAGUERRE_MAX_ORDER}")
    rows: list[LaguerreCase] = [
        LaguerreCase(lam=1.0, k=0, n=n, ell=ell, alpha_bar=(2.0 + ell) / n)
    ]
    for k in range(1, k_max + 1):
        kn = k * n
        disc = 4.0 * kn * (ell + 1.0) + 1.0
        if math.isinf(disc):
            raise DomainError(f"the discriminant at order k = {k} (n = {n:g}, ell = {ell:g}) "
                              "is beyond the float range")
        sq = math.sqrt(disc)
        for lam2 in ((2.0 * kn + 1.0 + sq) / 2.0, (2.0 * kn + 1.0 - sq) / 2.0):
            case = _laguerre_case(n, ell, lam2, k)
            if case is not None:
                rows.append(case)
    rows.sort(key=lambda c: (c.lam, c.k))
    return rows


def factorized_u(
    params: ModelParams,
    sol: RadialSolution,
    fac: AngularFactor,
    rho,
    theta,
):
    """Separated solution u(rho, theta) = R(rho) Theta(theta) at a point, or over
    a rho array and a theta array broadcast together, R then from :func:`radial_rows`
    (NaN where :func:`radial_row` raises :class:`DomainError` or :class:`RegionError`).

    Laguerre-case radial factors already carry the alternating sign and the
    polynomial normalization, so for those ``u = (-1)^k rho_bar^nu L_k(tau) Theta``
    (R and Theta must be one solution of params: :func:`require_matching`).
    """
    require_matching(params, sol, fac)
    if isinstance(rho, np.ndarray):
        return radial_rows(params, sol, rho)[0].reshape(rho.shape) * fac.value(theta)
    return radial_row(params, sol, rho)[0] * fac.value(theta)


def require_matching(params: ModelParams, sol: RadialSolution, fac: AngularFactor) -> None:
    """Raise :class:`ParameterError` unless R and Theta share one separation
    constant.  Every kind reads params where it is evaluated, so R solves
    params' radial equation; a b that params does not admit raises where the
    rows are evaluated (:meth:`RadialSolution.exponents`)."""
    if abs(sol.lam - fac.lam) > 1e-12:
        raise ParameterError(f"radial lam = {sol.lam} and angular lam = {fac.lam} disagree")


def require_chart(params: ModelParams, sol: RadialSolution, fac: AngularFactor) -> None:
    """:func:`require_matching`, then :class:`DegenerateMapError` where no
    coordinate chart exists: lam = 1, or a constant u (R = 1, from the constant
    kind or nu = a = 0, which needs lam = 0, where M and Psi are 1; and Theta =
    c2), whose image collapses to the origin."""
    require_matching(params, sol, fac)
    if abs(sol.lam - 1.0) <= 1e-12:
        raise DegenerateMapError(
            "lam = 1: the map Jacobian vanishes identically and no coordinate chart exists"
        )
    unit_radial = sol.kind is RadialKind.CONSTANT or (
        sol.kind.kummer_based and sol.lam == 0.0 and sol.exponents(params)[:2] == (0.0, 0.0))
    if unit_radial and fac.lam == 0.0 and fac.c1 == 0.0:
        raise DegenerateMapError(
            "u is constant (R = 1, Theta = c2): the map collapses to the origin and no coordinate chart exists"
        )
