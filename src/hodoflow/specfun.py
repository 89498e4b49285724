"""Self-contained special-function kernel.

Everything downstream (radial solutions, the inverse map, the vortex model)
is built on these six primitives: the gamma function, the exponential
integral Ei, the Kummer function M, the Tricomi function Psi, generalized
Laguerre polynomials, and the logarithmic derivative of M.

All functions are pure and accept/return Python floats; none hold state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DomainError,
    NodeError,
    ParameterError,
    PoleError,
    SeriesOverflowError,
    NoConvergenceError,
)

EULER_GAMMA = 0.5772156649015328606
_OVERFLOW_GUARD = 1e305
_INT_TOL = 1e-12
_EPS = math.ulp(1.0)  # machine epsilon

#: Largest running error bound ``eps * sum|terms| / |Ei|`` accepted from the
#: alternating Ei series at negative arguments.
EI_MAX_REL_ERR = 1e-11

#: M(a, b, z) counts as zero (a nodal line of the radial factor) when
#: ``|M| < KUMMER_NODE_TOL * max(1, sum|terms|)``.
KUMMER_NODE_TOL = 1e-12


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the power series in this module.

    A series is accepted once ``|term| < rel_tol * |partial sum|`` holds for
    three consecutive terms (guards against transient small terms in
    alternating series); it fails with :class:`NoConvergenceError` at
    ``max_terms``.
    """

    rel_tol: float = 1e-15
    max_terms: int = 4000

    def __post_init__(self) -> None:
        if not 0.0 < self.rel_tol <= 1e-8:
            raise ParameterError(f"rel_tol must be in (0, 1e-8], got {self.rel_tol}")
        if self.max_terms < 100:
            raise ParameterError(f"max_terms must be >= 100, got {self.max_terms}")


DEFAULT_SERIES = SeriesControl()

def is_nonpositive_integer(x: float, tol: float = _INT_TOL) -> bool:
    return x <= 0.5 and abs(x - round(x)) <= tol


# Lanczos approximation, g = 7, 9 coefficients.  Relative error below
# ~1e-13 for positive arguments; reflection handles x < 0.5.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(x: float) -> float:
    """Gamma function of a real argument.

    Raises :class:`PoleError` at 0, -1, -2, ...
    """
    if is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x = {x}")
    if x < 0.5:
        # reflection: gamma(x) gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


def reciprocal_gamma(x: float) -> float:
    """1 / gamma(x); zero at the poles of gamma."""
    if is_nonpositive_integer(x):
        return 0.0
    return 1.0 / gamma(x)


def expint_ei(x: float, control: SeriesControl = DEFAULT_SERIES) -> float:
    """Exponential integral Ei via its everywhere-convergent series.

    ``Ei(x) = euler_gamma + ln|x| + sum_k x^k / (k! k)``, the principal value
    of the integral of e^t / t up to x.  For negative x the terms alternate
    and cancel: once the running error bound ``eps * sum|terms| / |Ei|``
    exceeds ``EI_MAX_REL_ERR`` (below about x = -5.13) the call raises
    :class:`DomainError` instead of returning a value without digits.  This
    package only consumes x > 0.
    """
    if x == 0.0:
        raise DomainError("Ei is undefined at x = 0")
    if abs(x) > 700.0:
        raise SeriesOverflowError(f"Ei series term overflow at x = {x}")
    total = EULER_GAMMA + math.log(abs(x))
    scale = abs(EULER_GAMMA) + abs(math.log(abs(x)))  # sum of |terms|
    power = 1.0  # x^k / k!
    small = 0
    for k in range(1, control.max_terms + 1):
        power *= x / k
        term = power / k
        total += term
        scale += abs(term)
        if abs(term) < control.rel_tol * abs(total):
            small += 1
            if small >= 3:
                if x < 0.0 and _EPS * scale > EI_MAX_REL_ERR * abs(total):
                    raise DomainError(
                        f"Ei({x}): the alternating series cancels to a relative error bound "
                        f"of {_EPS * scale / abs(total):.1e}"
                    )
                return total
        else:
            small = 0
    raise NoConvergenceError(f"Ei series did not converge at x = {x}")


def _kummer_series(a: float, b: float, z: float, control: SeriesControl) -> tuple[float, float]:
    """Kummer series; returns (value, sum of |terms|) for node detection."""
    total = 1.0
    scale = 1.0
    term = 1.0
    if is_nonpositive_integer(a):
        # terminating (polynomial) case, summed exactly
        k = int(round(-a))
        for j in range(k):
            term *= (a + j) * z / ((b + j) * (j + 1))
            total += term
            scale += abs(term)
        return total, scale
    small = 0
    for j in range(control.max_terms):
        term *= (a + j) * z / ((b + j) * (j + 1))
        total += term
        scale += abs(term)
        if abs(total) > _OVERFLOW_GUARD or abs(term) > _OVERFLOW_GUARD:
            raise SeriesOverflowError(f"Kummer series overflow at (a={a}, b={b}, z={z})")
        if abs(term) < control.rel_tol * abs(total):
            small += 1
            if small >= 3:
                return total, scale
        else:
            small = 0
    raise NoConvergenceError(f"Kummer series did not converge at (a={a}, b={b}, z={z})")


def kummer_m(
    a: float,
    b: float,
    z: float,
    control: SeriesControl = DEFAULT_SERIES,
    z_max: float = 50.0,
) -> float:
    """Confluent hypergeometric function M(a, b, z) for z >= 0.

    Terminates exactly when a is a non-positive integer (within 1e-12), so
    the Laguerre-polynomial cases are evaluated without truncation error.
    """
    if is_nonpositive_integer(b):
        raise ParameterError(f"Kummer M undefined for b = {b} (non-positive integer)")
    if z < 0.0:
        raise DomainError(f"Kummer M restricted to z >= 0 here, got z = {z}")
    if z > z_max:
        raise DomainError(f"z = {z} exceeds the configured z_max = {z_max}")
    value, _ = _kummer_series(a, b, z, control)
    return value


def kummer_m_scaled(
    a: float,
    b: float,
    z: float,
    control: SeriesControl = DEFAULT_SERIES,
    z_max: float = 50.0,
) -> tuple[float, float]:
    """M(a, b, z) together with the sum of absolute series terms.

    The second value is the natural local scale against which a near-zero of
    M is detected (nodal lines of the radial factor).
    """
    if is_nonpositive_integer(b):
        raise ParameterError(f"Kummer M undefined for b = {b} (non-positive integer)")
    if z < 0.0:
        raise DomainError(f"Kummer M restricted to z >= 0 here, got z = {z}")
    if z > z_max:
        raise DomainError(f"z = {z} exceeds the configured z_max = {z_max}")
    return _kummer_series(a, b, z, control)


def kummer_m_deriv(a: float, b: float, z: float, control: SeriesControl = DEFAULT_SERIES) -> float:
    """dM/dz via the contiguity relation M'(a, b, z) = (a/b) M(a+1, b+1, z)."""
    return (a / b) * kummer_m(a + 1.0, b + 1.0, z, control)


def kummer_vanishes(value: float, scale: float, node_tol: float = KUMMER_NODE_TOL) -> bool:
    """Whether M is zero at working precision, given the ``(M, sum|terms|)``
    pair of :func:`kummer_m_scaled`: a nodal line of the radial factor."""
    return abs(value) < node_tol * max(1.0, scale)


def kummer_logderiv(
    a: float,
    b: float,
    z: float,
    control: SeriesControl = DEFAULT_SERIES,
    node_tol: float = KUMMER_NODE_TOL,
) -> float:
    """Logarithmic derivative (d/dz) ln M(a, b, z) = (a/b) M(a+1, b+1, z) / M(a, b, z).

    Raises :class:`NodeError` when M is zero at working precision relative to
    the magnitude of its series terms: the evaluation point sits on a nodal
    line and the log-derivative has a pole there.
    """
    m0, scale = kummer_m_scaled(a, b, z, control)
    if kummer_vanishes(m0, scale, node_tol):
        raise NodeError(f"M({a}, {b}, {z}) vanishes at working precision; log-derivative pole")
    return kummer_m_deriv(a, b, z, control) / m0


def tricomi_psi(
    a: float,
    b: float,
    z: float,
    control: SeriesControl = DEFAULT_SERIES,
) -> float:
    """Tricomi function Psi(a, b, z) for z > 0 and non-integer b.

    Evaluated through the two-M connection formula

        Psi = [G(1-b)/G(a+1-b)] M(a, b, z) + [G(b-1)/G(a)] z^(1-b) M(a+1-b, 2-b, z).

    The logarithmic limit for integer b is deliberately not implemented: the
    mapped solutions use the M branch only, and an integer b raises
    :class:`ParameterError`.  When a (or a+1-b) is a non-positive integer the
    corresponding 1/Gamma factor vanishes and that term is dropped.
    """
    if abs(b - round(b)) <= 1e-9:
        raise ParameterError(f"integer b = {b}: logarithmic Tricomi limit not implemented")
    if z <= 0.0:
        raise DomainError(f"Tricomi Psi restricted to z > 0, got z = {z}")
    first = reciprocal_gamma(a + 1.0 - b)
    if first != 0.0:
        first *= gamma(1.0 - b) * kummer_m(a, b, z, control)
    second = reciprocal_gamma(a)
    if second != 0.0:
        second *= gamma(b - 1.0) * z ** (1.0 - b) * kummer_m(a + 1.0 - b, 2.0 - b, z, control)
    return first + second


def tricomi_psi_deriv(a: float, b: float, z: float, control: SeriesControl = DEFAULT_SERIES) -> float:
    """dPsi/dz = -a Psi(a+1, b+1, z).

    b+1 integer is rejected upstream by :func:`tricomi_psi` (b integer).
    """
    if a == 0.0:
        return 0.0
    return -a * tricomi_psi(a + 1.0, b + 1.0, z, control)


def laguerre(k: int, alpha: float, z: float) -> float:
    """Generalized Laguerre polynomial L_k^(alpha)(z) by the three-term recurrence.

    L_0 = 1,  L_1 = 1 + alpha - z,
    (j+1) L_{j+1} = (2j + 1 + alpha - z) L_j - (j + alpha) L_{j-1}.
    """
    if k < 0 or k != int(k):
        raise ParameterError(f"polynomial degree must be a non-negative integer, got {k}")
    if alpha <= -1.0:
        raise ParameterError(f"alpha must exceed -1, got {alpha}")
    if k == 0:
        return 1.0
    prev = 1.0
    cur = 1.0 + alpha - z
    for j in range(1, k):
        prev, cur = cur, ((2 * j + 1 + alpha - z) * cur - (j + alpha) * prev) / (j + 1)
    return cur
