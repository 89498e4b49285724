"""Generalized Maxwell speed distributions and the induced momentum-space coefficients.

The distribution family is ``F(z) ~ z^ell exp(-const z^n)`` over the speed
``z``; ``n = ell = 2`` is the classical Maxwell case, ``n = 2, ell = 0`` a
Gaussian.  The characteristic scale is always tied to ``sigma_v`` so that the
sonic radius ``rho_T = sigma_v / |alpha|`` is parameter free: speeds below
``sigma_v`` fall in the elliptic region of the linearized momentum-space
equation, speeds above in the hyperbolic one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace

from .errors import DivergenceError, DomainError, ParameterError
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


#: Relative half-width of the parabolic band used by :func:`classify`.  The
#: parabolic set has measure zero; the band only steers branch selection.
EPS_PARABOLIC = 1e-12


@dataclass(frozen=True)
class ModelParams:
    """Parameters fixing one exact solution family.

    ``alpha = -1/2`` and ``beta = 1`` correspond to hbar = m = 1 units; all
    shipped reference numbers assume them.  ``c0`` scales the radial
    substitution zeta, ``c1``/``c2`` are the integration constants of the
    angularly symmetric hyperbolic solution.
    """

    n: float
    ell: float
    sigma_v: float = 1.0
    alpha: float = -0.5
    beta: float = 1.0
    c0: float = 1.0
    c1: float = 1.0
    c2: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.n <= 0.0:
            raise ParameterError(f"n must be positive, got {self.n}")
        if self.ell <= -1.0:
            raise ParameterError(f"ell must exceed -1, got {self.ell}")
        if self.sigma_v <= 0.0:
            raise ParameterError(f"sigma_v must be positive, got {self.sigma_v}")
        if self.alpha == 0.0:
            raise ParameterError("alpha must be nonzero")
        if self.beta <= 0.0:
            raise ParameterError(f"beta must be positive, got {self.beta}")

    @property
    def rho_t(self) -> float:
        """Sonic momentum radius separating the elliptic and hyperbolic regions."""
        return self.sigma_v / abs(self.alpha)

    @property
    def sigma_nl(self) -> float:
        """Distribution scale sigma_{<v>,n,ell} tied to sigma_v (never free)."""
        return self.sigma_v / math.sqrt(2.0) * (self.n / (self.ell + 1.0)) ** (1.0 / self.n)

    def rho_bar(self, rho: float) -> float:
        return rho / self.rho_t

    def tau(self, rho: float) -> float:
        """Kummer argument tau = ((ell+1)/n) (rho/rho_T)^n."""
        return (self.ell + 1.0) / self.n * self.rho_bar(rho) ** self.n

    def with_(self, **kw) -> "ModelParams":
        return replace(self, **kw)


def density_F(params: ModelParams, z: float, norm: float = 1.0) -> float:
    """Speed density F(z) = N (z/s)^ell 2^(-ell/2) exp(-(z/s)^n 2^(-n/2)), s = sigma_nl.

    Equivalent closed form used here: ``N ((ell+1)/n)^(ell/n) w^ell e^(-((ell+1)/n) w^n)``
    with ``w = z / sigma_v``.  For -1 < ell < 0 the density diverges at z = 0.
    """
    if z < 0.0:
        raise DomainError(f"speed must be non-negative, got {z}")
    if z == 0.0:
        if params.ell < 0.0:
            raise DomainError("F has a power singularity at z = 0 for -1 < ell < 0")
        return norm if params.ell == 0.0 else 0.0
    w = z / params.sigma_v
    c = (params.ell + 1.0) / params.n
    return norm * c ** (params.ell / params.n) * w ** params.ell * math.exp(-c * w ** params.n)


def density_F_speed_integral(params: ModelParams, norm: float = 1.0) -> float:
    """Closed form of the 1-D speed integral of F over [0, inf)."""
    return (
        norm
        / params.n
        * specfun.gamma((params.ell + 1.0) / params.n)
        * params.sigma_nl
        * math.sqrt(2.0)
    )


def coeff_h(params: ModelParams, z: float) -> float:
    """Quasilinear coefficient h(z) = alpha^2 F'(z) / (z F(z)) in speed form."""
    if z <= 0.0:
        raise DomainError(f"h requires z > 0, got {z}")
    s2n = params.sigma_nl ** params.n * 2.0 ** (params.n / 2.0)
    return params.alpha ** 2 / z ** 2 * (params.ell - params.n * z ** params.n / s2n)


def coeff_h_bar(params: ModelParams, rho: float) -> float:
    """Same coefficient in momentum form, evaluated directly from its own formula."""
    if rho <= 0.0:
        raise DomainError(f"h_bar requires rho > 0, got {rho}")
    s2n = params.sigma_nl ** params.n * 2.0 ** (params.n / 2.0)
    return params.ell / rho ** 2 - params.n * abs(params.alpha) ** params.n * rho ** (params.n - 2.0) / s2n


def coeff_g(params: ModelParams, rho: float) -> float:
    """g(rho) = 1 + rho^2 h_bar(rho) = (ell+1)(1 - (rho/rho_T)^n)."""
    if rho <= 0.0:
        raise DomainError(f"g requires rho > 0, got {rho}")
    return (params.ell + 1.0) * (1.0 - params.rho_bar(rho) ** params.n)


def discriminant(params: ModelParams, rho: float) -> float:
    """Type discriminant Delta(rho) = -g(rho); positive in the hyperbolic region."""
    return -coeff_g(params, rho)


def classify(params: ModelParams, rho: float, eps_par: float = EPS_PARABOLIC) -> RegionTag:
    """Region of the linearized equation at radius rho.

    A relative band ``|rho - rho_T| <= eps_par rho_T`` is tagged parabolic so
    that floating-point radii on the sonic circle select the right branch.
    """
    if rho <= 0.0:
        raise DomainError(f"classification requires rho > 0, got {rho}")
    rho_t = params.rho_t
    if abs(rho - rho_t) <= eps_par * rho_t:
        return RegionTag.PARABOLIC
    return RegionTag.ELLIPTIC if rho < rho_t else RegionTag.HYPERBOLIC


def normalization_psi_model(n: float, ell: float, sigma_r: float) -> float:
    """Normalization constant of the vortex-model density over the plane.

    ``N^-1 = (2 pi sigma_r^2 / n) ((ell+1)/n)^(2/n) Gamma((ell-2)/n)``; the
    integral diverges for ell <= 2.
    """
    if ell <= 2.0:
        raise DivergenceError(f"plane normalization diverges for ell = {ell} <= 2")
    inv = (
        2.0 * math.pi * sigma_r ** 2 / n
        * ((ell + 1.0) / n) ** (2.0 / n)
        * specfun.gamma((ell - 2.0) / n)
    )
    return 1.0 / inv


def normalization_sector(params: ModelParams, sol, fac, domain, tol: float = 1e-9) -> float:
    """Normalization constant over the coordinate image of a momentum sector.

    Computed without inverting the map: the area element of the image pulls
    back to ``|J^-1| rho drho dtheta``, so ``N^-1 = integral F(|alpha| rho) |J^-1| rho``.
    """
    from . import mapping  # deferred: keeps the module layering acyclic
    from . import verify

    def integrand(rho: float, theta: float) -> float:
        point = mapping.forward_map(params, sol, fac, rho, theta)
        return density_F(params, abs(params.alpha) * rho) * abs(point.jac_inv)

    inv = verify.quad2d_polar(
        integrand, (domain.rho_min, domain.rho_max), (domain.theta_min, domain.theta_max), tol=tol
    )
    if not math.isfinite(inv) or inv <= 0.0:
        raise DivergenceError("sector normalization integral did not produce a positive finite value")
    return 1.0 / inv


def normalization_N(params: ModelParams, domain_spec) -> float:
    """Dispatch: closed form for the vortex model, 2-D quadrature for sector images.

    ``domain_spec`` is either a ``PsiModelParams`` (closed form) or a tuple
    ``(sol, fac, SectorDomain)``.
    """
    if hasattr(domain_spec, "sigma_r"):
        return normalization_psi_model(domain_spec.n, domain_spec.ell, domain_spec.sigma_r)
    sol, fac, domain = domain_spec
    return normalization_sector(params, sol, fac, domain)
