"""Self-contained special-function kernel.

Everything downstream (radial solutions, the inverse map, the vortex model)
is built on four primitives: the gamma function, the Kummer function M, the
Tricomi function Psi and generalized Laguerre polynomials, with the
derivative of M and the test for a zero of M at working precision.

All functions are pure and none hold state.  The public ones accept and
return Python floats.  ``_confluent`` is the radial factor's confluent
function, M or Psi with its derivative and node mask, at one argument or at
the arrays of a sweep, whose Kummer series it sums as one NumPy block; the
radial rows of :mod:`momentum` read the series only through it.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import (
    DomainError,
    ParameterError,
    PoleError,
    SeriesOverflowError,
    NoConvergenceError,
)

EULER_GAMMA = 0.5772156649015328606
_OVERFLOW_GUARD = 1e305
_INT_TOL = 1e-12

#: M(a, b, z) counts as zero (a nodal line of the radial factor) when
#: ``|M| < KUMMER_NODE_TOL * max(1, sum|terms|)``.
KUMMER_NODE_TOL = 1e-12

#: Truncation policy of the power series in this module: a series is accepted
#: once ``|term| < SERIES_REL_TOL * |partial sum|`` holds for three consecutive
#: terms (guards against transient small terms in alternating series); it
#: fails with :class:`NoConvergenceError` after ``SERIES_MAX_TERMS`` terms.
SERIES_REL_TOL = 1e-15
SERIES_MAX_TERMS = 4000

#: Largest argument the Kummer series is summed at.
KUMMER_Z_MAX = 50.0


def checked_pow(x: float, p: float) -> float:
    """x^p for x >= 0 or an integer p, with :class:`DomainError` where it
    leaves the float range."""
    try:
        return x ** p
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"{x:g}^{p:g} is out of the float range") from None


def checked_exp(x: float) -> float:
    """e^x, with :class:`DomainError` where it leaves the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        raise DomainError(f"exp({x:g}) is out of the float range") from None


def _power(x, p):
    """x^p for x >= 0 at a float, or at each element of an array, by Python's
    ``**``: NumPy's power can differ from it in the last bit, and the sweeps
    promise the scalar path's bits.  NaN where x^p leaves the float range."""
    if isinstance(x, np.ndarray):
        values = x.ravel().tolist()
        try:
            return np.array([v ** p for v in values]).reshape(x.shape)
        except (OverflowError, ZeroDivisionError):
            return np.array([_power(v, p) for v in values]).reshape(x.shape)
    try:
        return x ** p
    except (OverflowError, ZeroDivisionError):
        return math.nan


def _exp(x):
    """e^x at a float, or at each element of an array, by :func:`math.exp`
    (NumPy's exp can differ from it in the last bit)."""
    if isinstance(x, np.ndarray):
        return np.array([math.exp(v) for v in x.tolist()])
    return math.exp(x)


def is_nonpositive_integer(x: float) -> bool:
    return x <= 0.5 and abs(x - round(x)) <= _INT_TOL


def gamma(x: float) -> float:
    """Gamma function of a real argument (the C library's, through :func:`math.gamma`).

    Raises :class:`PoleError` at 0, -1, -2, ... (within 1e-12) and
    :class:`DomainError` where gamma leaves the normal float range: above
    x = 171.6, and where ``|gamma|`` falls below the smallest normal float
    (x below about -170.5, away from the poles).
    """
    if is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x = {x}")
    try:
        value = math.gamma(x)
    except OverflowError:
        raise DomainError(f"gamma({x}) is beyond the float range") from None
    if abs(value) < sys.float_info.min:
        raise DomainError(f"gamma({x}) underflows the float range")
    return value


def reciprocal_gamma(x: float) -> float:
    """1 / gamma(x); zero at the poles of gamma."""
    if is_nonpositive_integer(x):
        return 0.0
    return 1.0 / gamma(x)


def _check_kummer_args(b: float, z: float) -> None:
    if is_nonpositive_integer(b):
        raise ParameterError(f"Kummer M undefined for b = {b} (non-positive integer)")
    if z < 0.0:
        raise DomainError(f"Kummer M restricted to z >= 0 here, got z = {z}")
    if z > KUMMER_Z_MAX:
        raise DomainError(f"z = {z} exceeds KUMMER_Z_MAX = {KUMMER_Z_MAX}")


def _kummer_series(a: float, b: float, z: float) -> tuple[float, float]:
    """Kummer series for 0 <= z <= ``KUMMER_Z_MAX``; returns (value, sum of
    |terms|) for node detection."""
    _check_kummer_args(b, z)
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
    for j in range(SERIES_MAX_TERMS):
        term *= (a + j) * z / ((b + j) * (j + 1))
        total += term
        scale += abs(term)
        if abs(total) > _OVERFLOW_GUARD or abs(term) > _OVERFLOW_GUARD:
            raise SeriesOverflowError(f"Kummer series overflow at (a={a}, b={b}, z={z})")
        if abs(term) < SERIES_REL_TOL * abs(total):
            small += 1
            if small >= 3:
                return total, scale
        else:
            small = 0
    raise NoConvergenceError(f"Kummer series did not converge at (a={a}, b={b}, z={z})")


def _kummer_block(a, b, z) -> tuple[np.ndarray, np.ndarray]:
    """The Kummer series of S parameter pairs (``a``, ``b``, length S) at N
    arguments ``z`` at once: (S, N) arrays of M and of the sum of |terms|,
    equal element by element, bit for bit, to :func:`_kummer_series`, with
    the same errors.

    One pass sums a ``(terms + 1, S, N)`` block: the ratios are the scalar
    loop's expression, ``np.multiply.accumulate`` forms the terms and
    ``np.add.accumulate`` the partial sums, both in the scalar loop's order.
    A terminating series (a = -k) stops after its k terms, every other one at
    the third of three consecutive terms below ``SERIES_REL_TOL`` of the sum,
    and each takes the partial sums at its own stop.  The pass holds
    ``max(k, 26 + 2.5 max(z))`` terms, enough for most series at the largest
    argument to stop; if one has not, the block is summed again from the
    first term at twice the length, up to ``SERIES_MAX_TERMS``, so such a
    series costs up to about three passes.  A block whose every series
    terminates, as in each Laguerre case, holds just the largest k terms and
    runs no convergence search and no overflow scan, as the scalar loop runs
    neither for such a series.
    """
    a, b, z = (np.asarray(v, dtype=float).ravel() for v in (a, b, z))
    if not z.size:
        return np.ones((a.size, 0)), np.ones((a.size, 0))
    z_range = float(z.min()), float(z.max())
    for b_s in b.tolist():
        for z_n in z_range:
            _check_kummer_args(b_s, z_n)
    degree = np.array([round(-a_s) if is_nonpositive_integer(a_s) else -1 for a_s in a.tolist()], dtype=int)
    poly = (degree >= 0)[:, None]
    terminating = poly.all()
    # fmin: a NaN argument runs to the cap
    size = max(degree.max(initial=0), 0 if terminating else 26 + int(2.5 * np.fmin(z_range[1], KUMMER_Z_MAX)))
    with np.errstate(all="ignore"):  # terms past a series' stop may overflow
        while True:
            j = np.arange(size, dtype=float)[:, None, None]
            terms = np.empty((size + 1, a.size, z.size))
            terms[0] = 1.0
            terms[1:] = (a[:, None] + j) * z / ((b[:, None] + j) * (j + 1.0))
            np.multiply.accumulate(terms, axis=0, out=terms)
            totals = np.add.accumulate(terms, axis=0)
            if terminating:  # the scalar loop searches no stop and tests no overflow
                stop = degree[:, None]
                break
            mag, tot_mag = np.abs(terms[1:]), np.abs(totals[1:])
            small = mag < SERIES_REL_TOL * tot_mag
            three = small[2:] & small[1:-1] & small[:-2]  # row i: terms i+1..i+3 are small
            stop = np.where(three.any(axis=0), three.argmax(axis=0) + 3, size + 1)
            cap = min(size, SERIES_MAX_TERMS)
            # the scalar loop tests for overflow up to its stop, or to its last
            # term; fmax.reduce passes over NaN, where max() would return it
            if (np.fmax.reduce(mag, axis=None) > _OVERFLOW_GUARD
                    or np.fmax.reduce(tot_mag, axis=None) > _OVERFLOW_GUARD):
                over = np.fmax(mag, tot_mag) > _OVERFLOW_GUARD
                over_at = np.where(over.any(axis=0), over.argmax(axis=0) + 1, size + 1)
                failed = ~poly & (over_at <= np.minimum(stop, cap))
                if failed.any():
                    s, n = np.unravel_index(failed.argmax(), failed.shape)
                    raise SeriesOverflowError(f"Kummer series overflow at (a={a[s]}, b={b[s]}, z={z[n]})")
            pending = ~poly & (stop > cap)
            if not pending.any():
                break
            if size >= SERIES_MAX_TERMS:
                s, n = np.unravel_index(pending.argmax(), pending.shape)
                raise NoConvergenceError(f"Kummer series did not converge at (a={a[s]}, b={b[s]}, z={z[n]})")
            size = min(2 * size, SERIES_MAX_TERMS)
        at = (np.where(poly, degree[:, None], stop), np.arange(a.size)[:, None], np.arange(z.size))
        np.abs(terms, out=terms)
        np.add.accumulate(terms, axis=0, out=terms)
        return totals[at], terms[at]


def kummer_m(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric function M(a, b, z) for 0 <= z <= ``KUMMER_Z_MAX``.

    Terminates exactly when a is a non-positive integer (within 1e-12), so
    the Laguerre-polynomial cases are evaluated without truncation error.
    """
    return _kummer_series(a, b, z)[0]


def kummer_m_deriv(a: float, b: float, z: float) -> float:
    """dM/dz via the contiguity relation M'(a, b, z) = (a/b) M(a+1, b+1, z)."""
    return (a / b) * kummer_m(a + 1.0, b + 1.0, z)


def kummer_vanishes(value: float, scale: float) -> bool:
    """Whether M is zero at working precision, given the ``(M, sum|terms|)``
    pair of :func:`_kummer_series`: a nodal line of the radial factor, where
    the log-derivative M'/M has a pole.  Elementwise over the arrays of
    :func:`_kummer_block`."""
    # |M| below KUMMER_NODE_TOL max(1, scale), in operators floats and arrays share
    return (abs(value) < KUMMER_NODE_TOL) | (abs(value) < KUMMER_NODE_TOL * scale)


def tricomi_psi(a: float, b: float, z: float) -> float:
    """Tricomi function Psi(a, b, z) for z > 0 and non-integer b.

    Evaluated through the two-M connection formula

        Psi = [G(1-b)/G(a+1-b)] M(a, b, z) + [G(b-1)/G(a)] z^(1-b) M(a+1-b, 2-b, z).

    An integer b (:func:`_integer_b`) raises :class:`ParameterError`: the
    logarithmic limit is not implemented.  When a (or a+1-b) is a
    non-positive integer its 1/Gamma factor vanishes and the term is dropped.
    The ``tricomi`` radial kinds take Psi from :func:`_confluent`; this
    separate two-series path is their oracle.
    """
    if z <= 0.0:
        raise DomainError(f"Tricomi Psi restricted to z > 0, got z = {z}")
    return _psi_from(_psi_parts(a, b), lambda a_, b_: _kummer_series(a_, b_, z)[0], lambda p: checked_pow(z, p))


def _integer_b(b: float) -> bool:
    """Whether b is within 1e-9 of an integer, where :func:`tricomi_psi` has no value."""
    return abs(b - round(b)) <= 1e-9


def _psi_parts(a: float, b: float) -> tuple[tuple[float, float, float, float], ...]:
    """The two terms of :func:`tricomi_psi`'s connection formula as
    ``(1/G, G, a, b)`` of their Kummer series; the gamma factors depend on
    (a, b) alone, so :func:`_confluent` computes them once per call.  ``1/G = 0`` drops a term."""
    if _integer_b(b):
        raise ParameterError(f"integer b = {b}: logarithmic Tricomi limit not implemented")
    first, second = reciprocal_gamma(a + 1.0 - b), reciprocal_gamma(a)
    return ((first, gamma(1.0 - b) if first != 0.0 else 0.0, a, b),
            (second, gamma(b - 1.0) if second != 0.0 else 0.0, a + 1.0 - b, 2.0 - b))


def _psi_from(parts, series, power):
    """Psi from :func:`_psi_parts`, ``series(a, b)`` (M at z) and ``power(p)``
    (z^p), in plain arithmetic: at a float z, or at an array one element per z."""
    (rgam1, gam1, a1, b1), (rgam2, gam2, a2, b2) = parts
    first = rgam1
    if first != 0.0:
        first *= gam1 * series(a1, b1)
    second = rgam2
    if second != 0.0:
        second *= gam2 * power(1.0 - b1) * series(a2, b2)
    return first + second


def _confluent(a: float, b: float, tricomi: bool, z):
    """``(T, dT/dz, node)`` of the radial factor's confluent function at z:
    ``M(a, b, z)``, ``(a/b) M(a+1, b+1, z)`` and :func:`kummer_vanishes`, or
    where ``tricomi`` ``Psi(a, b, z)``, ``-a Psi(a+1, b+1, z)`` (0 at a = 0)
    and ``Psi == 0`` (DLMF 13.2.42, §13.3).

    At a float z the series are :func:`_kummer_series`, and Psi raises
    :class:`DomainError` unless z > 0.  At an array one :func:`_kummer_block`
    sums every series, equal to the float path bit for bit (the powers are
    :func:`_power`, the rest ``+ - * /``).  The gamma factors are computed
    once, and a term whose 1/G is 0 sums no series."""
    if tricomi:
        parts = _psi_parts(a, b), _psi_parts(a + 1.0, b + 1.0) if a != 0.0 else ()
        pairs = list(dict.fromkeys((pa, pb) for terms in parts for rgam, _, pa, pb in terms if rgam != 0.0))
    else:
        pairs = [(a, b), (a + 1.0, b + 1.0)]
    if isinstance(z, np.ndarray):
        value, scale = _kummer_block([pa for pa, _ in pairs], [pb for _, pb in pairs], z)
        series = dict(zip(pairs, zip(value, scale)))
    elif tricomi and z <= 0.0:
        raise DomainError(f"Tricomi Psi restricted to z > 0, got z = {z}")
    else:
        series = {pair: _kummer_series(*pair, z) for pair in pairs}
    if tricomi:
        terms = (lambda pa, pb: series[pa, pb][0], lambda p: _power(z, p))
        t_val = _psi_from(parts[0], *terms)
        return t_val, 0.0 if a == 0.0 else -a * _psi_from(parts[1], *terms), t_val == 0.0
    t_val, t_scale = series[a, b]
    return t_val, (a / b) * series[a + 1.0, b + 1.0][0], kummer_vanishes(t_val, t_scale)


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
