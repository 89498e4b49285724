"""Self-contained special-function kernel.

Everything downstream (radial solutions, the inverse map, the vortex model)
is built on four primitives: the gamma function, the Kummer function M, the
Tricomi function Psi and generalized Laguerre polynomials, with the
derivative of M and the test for a zero of M at working precision.

All functions are pure and none hold state.  The public ones accept and
return Python floats; ``_kummer_block`` sums the Kummer series of a whole
sweep as one NumPy block.
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
        values = x.tolist()
        try:
            return np.array([v ** p for v in values])
        except (OverflowError, ZeroDivisionError):
            return np.array([_power(v, p) for v in values])
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
    ``max(k, 26 + 2.5 max(z))`` terms (just k where every series terminates),
    enough for most series at the largest argument to stop; if one has not,
    the block is summed again from the first term at twice the length, up to
    ``SERIES_MAX_TERMS``, so such a series costs up to about three passes.
    """
    a, b, z = (np.asarray(v, dtype=float).ravel() for v in (a, b, z))
    if not z.size:
        return np.ones((a.size, 0)), np.ones((a.size, 0))
    for b_s in b.tolist():
        for z_n in (float(z.min()), float(z.max())):
            _check_kummer_args(b_s, z_n)
    degree = np.array([round(-a_s) if is_nonpositive_integer(a_s) else -1 for a_s in a.tolist()], dtype=int)
    poly = (degree >= 0)[:, None]
    # fmin: a NaN argument runs to the cap; the stopping test needs 3 terms
    size = max(degree.max(initial=0), 3 if poly.all() else 26 + int(2.5 * np.fmin(z.max(), KUMMER_Z_MAX)))
    with np.errstate(all="ignore"):  # terms past a series' stop may overflow
        while True:
            j = np.arange(size, dtype=float)[:, None, None]
            terms = np.empty((size + 1, a.size, z.size))
            terms[0] = 1.0
            terms[1:] = (a[:, None] + j) * z / ((b[:, None] + j) * (j + 1.0))
            np.multiply.accumulate(terms, axis=0, out=terms)
            totals = np.add.accumulate(terms, axis=0)
            mag, tot_mag = np.abs(terms[1:]), np.abs(totals[1:])
            small = mag < SERIES_REL_TOL * tot_mag
            three = small[2:] & small[1:-1] & small[:-2]  # row i: terms i+1..i+3 are small
            stop = np.where(three.any(axis=0), three.argmax(axis=0) + 3, size + 1)
            cap = min(size, SERIES_MAX_TERMS)
            # the scalar loop tests for overflow up to its stop, or to its last term
            over = np.fmax(mag, tot_mag) > _OVERFLOW_GUARD
            if over.any():
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

    The logarithmic limit for integer b is deliberately not implemented: the
    mapped solutions use the M branch only, and an integer b raises
    :class:`ParameterError`.  When a (or a+1-b) is a non-positive integer the
    corresponding 1/Gamma factor vanishes and that term is dropped.
    """
    if z <= 0.0:
        raise DomainError(f"Tricomi Psi restricted to z > 0, got z = {z}")
    return _psi_from(_psi_parts(a, b), lambda a_, b_: _kummer_series(a_, b_, z)[0], lambda p: checked_pow(z, p))


def _psi_parts(a: float, b: float) -> tuple[tuple[float, float, float, float], ...]:
    """The two terms of :func:`tricomi_psi`'s connection formula as
    ``(1/G, G, a, b)`` of their Kummer series; the gamma factors depend on
    (a, b) alone, so a sweep computes them once.  ``1/G = 0`` drops a term."""
    if abs(b - round(b)) <= 1e-9:
        raise ParameterError(f"integer b = {b}: logarithmic Tricomi limit not implemented")
    first, second = reciprocal_gamma(a + 1.0 - b), reciprocal_gamma(a)
    return ((first, gamma(1.0 - b) if first != 0.0 else 0.0, a, b),
            (second, gamma(b - 1.0) if second != 0.0 else 0.0, a + 1.0 - b, 2.0 - b))


def _psi_from(parts, series, power):
    """Psi from :func:`_psi_parts`, ``series(a, b)``, the Kummer M at the
    argument z, and ``power(p)``, z^p.  Plain arithmetic: floats give Psi at
    one z, arrays (one element per z) give it at each."""
    (rgam1, gam1, a1, b1), (rgam2, gam2, a2, b2) = parts
    first = rgam1
    if first != 0.0:
        first *= gam1 * series(a1, b1)
    second = rgam2
    if second != 0.0:
        second *= gam2 * power(1.0 - b1) * series(a2, b2)
    return first + second


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
