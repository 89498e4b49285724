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


def _kummer_block(a, b, z, scaled=None) -> tuple[np.ndarray, np.ndarray]:
    """The Kummer series of S parameter pairs (``a``, ``b``, length S) at N
    arguments ``z`` at once: (S, N) arrays of M and of the sum of |terms|,
    equal element by element, bit for bit, to :func:`_kummer_series`, with
    the same errors.  ``scaled`` (S booleans, all by default) names the
    series whose sum of |terms| is formed; the other rows of it are NaN.

    ``np.multiply.accumulate`` forms the terms and ``np.add.accumulate`` the
    partial sums, both in the scalar loop's order.  A terminating series
    (a = -k) takes its k terms in one block; the others run in chunks, the
    first of ``26 + 2.5 max(z)`` terms (enough for most series at the largest
    argument to stop), then twice as many each round, and each element takes
    the partial sum at its own stop, the third of three consecutive terms below
    ``SERIES_REL_TOL`` of the sum.  The rest of its chunk is discarded.
    """
    a, b, z = (np.asarray(v, dtype=float).ravel() for v in (a, b, z))
    scaled = np.ones(a.size, dtype=bool) if scaled is None else np.asarray(scaled, dtype=bool)
    if not z.size:
        return np.ones((a.size, 0)), np.ones((a.size, 0))
    z_ends = float(z.min()), float(z.max())
    for b_s in b.tolist():
        for z_n in z_ends:
            _check_kummer_args(b_s, z_n)
    degree = [round(-a_s) if is_nonpositive_integer(a_s) else -1 for a_s in a.tolist()]
    poly = [s for s, k in enumerate(degree) if k >= 0]
    rest = [s for s, k in enumerate(degree) if k < 0]
    with np.errstate(all="ignore"):  # the discarded tail of a block may overflow
        if not rest:
            return _kummer_polynomials(a, b, z, degree, scaled)
        if not poly:
            return _kummer_converging(a, b, z, scaled)
        value, scale = np.empty((a.size, z.size)), np.empty((a.size, z.size))
        value[poly], scale[poly] = _kummer_polynomials(a[poly], b[poly], z, [degree[s] for s in poly], scaled[poly])
        value[rest], scale[rest] = _kummer_converging(a[rest], b[rest], z, scaled[rest])
    return value, scale


def _kummer_ratios(a, b, z, j):
    """term_{j+1} / term_j of the Kummer series, the scalar loop's expression."""
    return (a + j) * z / ((b + j) * (j + 1.0))


def _kummer_polynomials(a, b, z, degree: list[int], scaled):
    """:func:`_kummer_block` for a = -k: exactly k terms, no stopping rule."""
    j = np.arange(max(degree), dtype=float)[:, None, None]
    terms = np.empty((j.size + 1, a.size, z.size))
    terms[0] = 1.0
    terms[1:] = _kummer_ratios(a[:, None], b[:, None], z, j)
    np.multiply.accumulate(terms, axis=0, out=terms)
    degree = np.array(degree)
    scale = np.full((a.size, z.size), math.nan)
    if scaled.any():
        sums = np.add.accumulate(np.abs(terms[:, scaled]), axis=0)
        scale[scaled] = sums[degree[scaled], np.arange(sums.shape[1])]
    return np.add.accumulate(terms, axis=0)[degree, np.arange(a.size)], scale


def _kummer_converging(a, b, z, scaled):
    """:func:`_kummer_block` for series that stop by the ``SERIES_REL_TOL`` rule."""
    # one element per (series, argument) pair, row-major; live ones are still summing
    ea, eb, ez = np.repeat(a, z.size), np.repeat(b, z.size), np.tile(z, a.size)
    value, scale = np.empty(ea.size), np.full(ea.size, math.nan)
    live = np.arange(ea.size)
    need = np.repeat(scaled, z.size)  # whether the element's sum of |terms| is formed
    term, total, absum = np.ones(ea.size), np.ones(ea.size), np.ones(ea.size)
    tail = np.zeros((2, ea.size), dtype=bool)  # whether the last two terms were small
    start, size = 0, 26 + int(2.5 * np.fmin(z.max(), KUMMER_Z_MAX))  # fmin: a NaN argument runs to the cap
    while live.size:
        size = min(size, SERIES_MAX_TERMS - start)
        # row i holds the state after term start + i - 1, row 0 the state before
        terms = np.empty((size + 1, live.size))
        terms[0] = term
        terms[1:] = _kummer_ratios(ea[live], eb[live], ez[live], np.arange(start, start + size, dtype=float)[:, None])
        np.multiply.accumulate(terms, axis=0, out=terms)
        totals = terms.copy()
        totals[0] = total
        np.add.accumulate(totals, axis=0, out=totals)
        mag, tot_mag = np.abs(terms[1:]), np.abs(totals[1:])
        small = np.empty((size + 2, live.size), dtype=bool)
        small[:2] = tail
        np.less(mag, SERIES_REL_TOL * tot_mag, out=small[2:])
        three = small[2:] & small[1:-1] & small[:-2]
        done = three.any(axis=0)
        stop = three.argmax(axis=0) + 1
        if np.fmax.reduce(mag, axis=None) > _OVERFLOW_GUARD or np.fmax.reduce(tot_mag, axis=None) > _OVERFLOW_GUARD:
            over = (mag > _OVERFLOW_GUARD) | (tot_mag > _OVERFLOW_GUARD)
            over_at = np.where(over.any(axis=0), over.argmax(axis=0) + 1, size + 1)
            overflowed = over_at <= np.where(done, stop, size)
            if overflowed.any():
                e = live[overflowed.argmax()]
                raise SeriesOverflowError(f"Kummer series overflow at (a={ea[e]}, b={eb[e]}, z={ez[e]})")
        if start + size == SERIES_MAX_TERMS and not done.all():
            e = live[(~done).argmax()]
            raise NoConvergenceError(f"Kummer series did not converge at (a={ea[e]}, b={eb[e]}, z={ez[e]})")
        cols = np.flatnonzero(done)
        value[live[cols]] = totals[stop[cols], cols]
        summed = np.flatnonzero(need[live])  # the columns whose sum of |terms| is formed
        if summed.size:
            sums = np.abs(terms[:, summed])
            sums[0] = absum[summed]
            np.add.accumulate(sums, axis=0, out=sums)
            fin = done[summed]
            scale[live[summed[fin]]] = sums[stop[summed[fin]], fin]
            absum[summed] = sums[-1]
        keep = ~done
        live, tail = live[keep], small[-2:, keep]
        term, total, absum = terms[-1, keep], totals[-1, keep], absum[keep]
        start, size = start + size, 2 * size
    return value.reshape(a.size, z.size), scale.reshape(a.size, z.size)


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
