"""Special-function kernel checks against independent oracles.

Oracles used here: mpmath (optional), the libm gamma, recurrence identities,
central differences, and the direct monomial expansion of the Laguerre
polynomials.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from hodoflow import specfun
from hodoflow.errors import (
    DomainError,
    NoConvergenceError,
    ParameterError,
    PoleError,
    SeriesOverflowError,
)
from hodoflow.maxwell import ModelParams
from hodoflow.momentum import RadialSolution, laguerre_enumerate
from hodoflow.specfun import (
    KUMMER_Z_MAX,
    SERIES_REL_TOL,
    _confluent,
    _kummer_block,
    _kummer_series,
    checked_pow,
    gamma,
    kummer_m,
    kummer_m_deriv,
    kummer_vanishes,
    laguerre,
    reciprocal_gamma,
    tricomi_psi,
)


class TestGamma:
    def test_factorial_identity(self):
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_half_integer(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_recurrence_oracle_at_3_7(self):
        # gamma(x+1) = x gamma(x), exercised at the specific point 3.7
        assert gamma(3.7) == pytest.approx(gamma(4.7) / 3.7, rel=1e-12)

    def test_recurrence_property_over_box(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            x = rng.uniform(-19.5, 49.0)
            if abs(x - round(x)) < 1e-3 and x < 0.5:
                continue
            assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=5e-12)

    def test_matches_libm(self):
        for x in (-19.3, -6.25, -0.7, 0.1, 1.0, 2.5, 12.0, 33.3, 50.0):
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_pole_error(self, x):
        with pytest.raises(PoleError):
            gamma(x)

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        near_poles = [-k + d for k in (1, 3, 8, 12) for d in (1e-9, -1e-9, 1e-6, -1e-6)]
        xs = [*rng.uniform(-12.0, 0.0, 400), *rng.uniform(0.0, 171.6, 400),
              -11.999999, -8.998, 1e-9, *near_poles, 143.0, 150.0, 171.5]
        with mpmath.workdps(40):
            for x in xs:
                want = mpmath.gamma(mpmath.mpf(x))
                assert abs(gamma(x) - want) <= 1e-14 * abs(want), x

    def test_beyond_float_range_raises(self):
        assert gamma(150.0) == pytest.approx(3.8089226376305703e260, rel=1e-14)
        with pytest.raises(DomainError):
            gamma(172.0)

    def test_underflow_raises(self):
        # -170.5 still has a normal float value; further down gamma underflows
        # to a subnormal (-171.2) or to -0.0 (-200.5), and 1/gamma overflows
        assert gamma(-170.5) == pytest.approx(-3.3127395215386e-308, rel=1e-12)
        for x in (-171.2, -200.5):
            with pytest.raises(DomainError):
                gamma(x)
        with pytest.raises(DomainError):
            reciprocal_gamma(-200.5)


class TestKummerM:
    def test_a_zero_gives_one(self):
        for b, z in [(0.7, 0.3), (4.0, 9.0), (1.3, 0.0)]:
            assert kummer_m(0.0, b, z) == 1.0

    def test_equal_parameters_exponential(self):
        assert kummer_m(1.5, 1.5, 2.0) == pytest.approx(math.exp(2.0), rel=1e-12)

    def test_laguerre_bridge_k2(self):
        # M(-k, 1+abar, z) = Gamma(1+k) Gamma(1+abar) / Gamma(1+abar+k) L_k^(abar)(z)
        k, abar, z = 2, 5.0, 1.3
        c0 = gamma(1.0 + k) * gamma(1.0 + abar) / gamma(1.0 + abar + k)
        assert kummer_m(-k, 1.0 + abar, z) == pytest.approx(c0 * laguerre(k, abar, z), rel=1e-13)

    def test_laguerre_bridge_sweep(self):
        # Bridge to rel 1e-12 for k <= 12, abar <= 10.  z is kept below the
        # first polynomial root (condition number of the sum <= ~6 there);
        # near roots no double-precision route keeps 12 relative digits.
        for k in range(0, 13):
            for abar in (0.5, 1.0, 3.0, 7.0, 10.0):
                for z in (0.04, 0.1):
                    c0 = gamma(1.0 + k) * gamma(1.0 + abar) / gamma(1.0 + abar + k)
                    lhs = kummer_m(float(-k), 1.0 + abar, z)
                    rhs = c0 * laguerre(k, abar, z)
                    assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_laguerre_bridge_large_z_scaled(self):
        # At larger z the comparison is checked at machine level relative to
        # the magnitude of the summed terms (the identity is exact; only the
        # conditioning of the evaluation degrades near polynomial roots).
        for k in range(0, 13):
            for abar in (0.5, 3.0, 10.0):
                for z in (1.3, 4.2, 9.5):
                    c0 = gamma(1.0 + k) * gamma(1.0 + abar) / gamma(1.0 + abar + k)
                    lhs, scale = _kummer_series(float(-k), 1.0 + abar, z)
                    rhs = c0 * laguerre(k, abar, z)
                    assert abs(lhs - rhs) <= 1e-13 * scale

    def test_ode_residual_analytic_derivatives(self):
        # z M'' + (b - z) M' - a M = 0 with derivatives from contiguity
        rng = np.random.default_rng(11)
        for _ in range(250):
            a = rng.uniform(-3.0, 3.0)
            b = rng.uniform(0.6, 5.0)
            z = rng.uniform(0.0, 10.0)
            m0 = kummer_m(a, b, z)
            m1 = kummer_m_deriv(a, b, z)
            m2 = (a * (a + 1.0)) / (b * (b + 1.0)) * kummer_m(a + 2.0, b + 2.0, z)
            residual = z * m2 + (b - z) * m1 - a * m0
            assert abs(residual) / max(1.0, abs(m0)) < 1e-10

    def test_contiguity_against_central_differences(self):
        h = 1e-5
        for a, b, z in [(0.7, 1.9, 2.5), (-1.3, 0.8, 4.0), (2.2, 3.3, 7.0)]:
            fd = (kummer_m(a, b, z + h) - kummer_m(a, b, z - h)) / (2.0 * h)
            assert kummer_m_deriv(a, b, z) == pytest.approx(fd, rel=1e-6)

    def test_parameter_and_domain_errors(self):
        with pytest.raises(ParameterError):
            kummer_m(1.0, 0.0, 1.0)
        with pytest.raises(ParameterError):
            kummer_m(1.0, -3.0, 1.0)
        with pytest.raises(DomainError):
            kummer_m(1.0, 1.5, -0.5)
        with pytest.raises(DomainError):
            kummer_m(1.0, 1.5, 60.0)  # beyond KUMMER_Z_MAX
        # the (value, scale) series shares the checks
        with pytest.raises(ParameterError):
            _kummer_series(1.0, -3.0, 1.0)
        with pytest.raises(DomainError):
            _kummer_series(1.0, 1.5, -0.5)
        with pytest.raises(DomainError):
            _kummer_series(1.0, 1.5, 60.0)


def _terms_used(a, b, z):
    """Terms the converging Kummer series sums before its stopping rule holds."""
    term = total = 1.0
    small = 0
    for j in range(4000):
        term *= (a + j) * z / ((b + j) * (j + 1))
        total += term
        small = small + 1 if abs(term) < SERIES_REL_TOL * abs(total) else 0
        if small == 3:
            return j + 1


class TestKummerBlock:
    """The block kernel of the sweeps against the scalar series, its reference."""

    @staticmethod
    def _box():
        rng = np.random.default_rng(2026)
        a = rng.uniform(-12.0, 6.0, 48)
        # terminating series, and values within the 1e-12 integer band on either side
        a[:13] = -np.arange(13.0)
        a[13:19] = -np.array([1.0, 2.0, 5.0, 9.0, 12.0, 3.0]) + np.array([1e-13, -1e-13] * 3)
        return a, rng.uniform(0.6, 12.0, 48), np.concatenate([[0.0, 50.0], rng.uniform(0.0, 50.0, 38)])

    def test_box_bit_for_bit(self):
        self._assert_block_equals_series(*self._box())

    def test_box_reaches_chunk_edges(self):
        # with z up to 50 the first pass holds 26 + 2.5 * 50 = 151 terms, and
        # every series of the box stops inside it.  Three more series stop, at
        # z = 50, on its last term and on the two after it; the block is then
        # summed again from the first term, and summing on past a series' stop
        # would change the last bits of the two later ones
        a, b, z = self._box()
        assert max(_terms_used(a_s, b_s, z_n) for a_s, b_s in zip(a[19:], b[19:]) for z_n in z) < 151
        a_edge, b_edge = [47.25, 50.23, 52.33], [0.75, 0.75, 0.75]
        assert [_terms_used(a_s, b_s, 50.0) for a_s, b_s in zip(a_edge, b_edge)] == [151, 152, 153]
        self._assert_block_equals_series(np.concatenate([a, a_edge]), np.concatenate([b, b_edge]), z)

    def test_first_chunk_edges(self):
        # with z up to 10 the first pass holds 26 + 2.5 * 10 = 51 terms; these
        # series stop on its last term and on the two after it, where the
        # block is summed again from the first term at twice the length
        a, b, z = [33.007, 33.007, 45.389], [10.828, 10.828, 5.934], [7.5, 8.0, 6.0, 10.0]
        assert {51, 52, 53} <= {_terms_used(a_s, b_s, z_n) for a_s, b_s in zip(a, b) for z_n in z}
        self._assert_block_equals_series(a, b, z)

    def test_terminating_series_longer_than_first_pass(self):
        # k = 200 terms against a first pass of 26 + 2.5 * 0.5 = 27, next to a
        # converging series
        a, b, z = [-200.0, 0.5], [3.0, 1.5], [0.25, 0.5]
        assert _terms_used(0.5, 1.5, 0.5) < 27
        self._assert_block_equals_series(a, b, z)

    def test_series_past_two_doublings(self):
        # the first pass holds 26 + 2.5 * 1 = 28 terms, the second 56; the
        # first series stops only in the third, of 112
        a, b, z = [800.0, 0.5], [0.75, 1.5], [0.5, 1.0]
        assert 56 < _terms_used(800.0, 0.75, 1.0) <= 112
        self._assert_block_equals_series(a, b, z)

    @pytest.mark.parametrize("n", [1.0, 2.0, 3.0])
    def test_laguerre_catalog_bit_for_bit(self, n):
        # the pairs of the Laguerre cases' radial rows, M(a, b) and M(a + 1,
        # b + 1) with a = -k and b = 1 + alpha_bar (from the model, which can
        # differ from the case's alpha_bar in the last bit): a block whose
        # every series terminates
        cases = [c for c in laguerre_enumerate(n, [2.0, 2.5, 3.0, 3.5, 4.0], ell_max=100.0) if c.k <= 12]
        assert {c.k for c in cases} == set(range(1, {1.0: 13, 2.0: 8, 3.0: 5}[n]))
        z = np.concatenate([[0.0], np.linspace(0.3, 47.0, 9), [KUMMER_Z_MAX]])
        for case in cases:
            params = ModelParams(n=n, ell=case.ell)
            _, a, b = RadialSolution.from_laguerre_case(params, case).exponents(params)
            assert a == -case.k and b == pytest.approx(1.0 + case.alpha_bar, rel=1e-15)
            self._assert_block_equals_series([a, a + 1.0], [b, b + 1.0], z)

    def test_degree_zero_block(self):
        # a = 0 within the 1e-12 integer band: each series is its first term
        a, b, z = [0.0, 1e-13, -1e-13], [0.75, 2.5, 11.0], [0.0, 3.5, KUMMER_Z_MAX]
        self._assert_block_equals_series(a, b, z)
        assert np.array_equal(_kummer_block(a, b, z)[0], np.ones((3, 3)))

    def test_terminating_next_to_converging(self):
        # the converging series still takes its stop from the search, past
        # the terminating series' degrees
        a, b, z = [-3.0, -5.0, 0.5], [2.5, 3.5, 1.5], [0.0, 1.0, 7.5, KUMMER_Z_MAX]
        assert _terms_used(0.5, 1.5, 7.5) > 5
        self._assert_block_equals_series(a, b, z)

    def test_overflow_next_to_nan_argument(self):
        # the scalar loop overflows on the first term at z = 50; a NaN argument
        # beside it must not hide that from the block's overflow scan (a
        # maximum that returns NaN would, and the block would run on to
        # NoConvergenceError at the NaN)
        with pytest.raises(SeriesOverflowError):
            _kummer_series(1e300, 1e-4, 50.0)
        with pytest.raises(SeriesOverflowError):
            _kummer_block([1e300], [1e-4], [math.nan, 50.0])
        with pytest.raises(SeriesOverflowError):
            _kummer_block([0.5, 1e300], [1.5, 1e-4], [50.0, math.nan])

    @staticmethod
    def _assert_block_equals_series(a, b, z):
        value, scale = _kummer_block(a, b, z)
        assert value.shape == scale.shape == (len(a), len(z))
        for i in range(len(a)):
            for j in range(len(z)):
                assert (value[i, j], scale[i, j]) == _kummer_series(a[i], b[i], z[j]), (a[i], b[i], z[j])

    def test_no_arguments(self):
        value, scale = _kummer_block([0.5, -2.0], [1.5, 3.0], [])
        assert value.shape == scale.shape == (2, 0)

    @pytest.mark.parametrize("a, b, tricomi", [
        (0.0, 3.5, True),  # T' = 0
        (-2.0, 5.5, True),  # 1/Gamma(a) = 0 drops the second term
        (1.5, 4.5, True),  # a + 1 - b = -2 drops the first term
        (-1.156, 6.937, True),
        (0.37, 2.5, True),
        (-2.0, 8.0, False),  # M = 1 - z/4 + z^2/72, zero at z = 6 and 12
        (0.37, 2.5, False),
    ])
    def test_confluent_block_equals_float(self, a, b, tricomi):
        # the radial rows' T, T' and node mask: one block against each float z
        z = np.array([1e-3, 0.25, 1.0, 6.0, 7.5, 12.0, 23.0, KUMMER_Z_MAX])
        value, deriv, node = _confluent(a, b, tricomi, z)
        deriv = np.broadcast_to(deriv, z.shape)
        for j, z_j in enumerate(z.tolist()):
            assert (value[j], deriv[j], node[j]) == _confluent(a, b, tricomi, z_j), z_j
        assert node.tolist() == [(a, b) == (-2.0, 8.0) and z_j in (6.0, 12.0) for z_j in z.tolist()]
        assert _confluent(a, b, tricomi, np.array([]))[0].shape == (0,)

    def test_confluent_tricomi_needs_positive_z(self):
        with pytest.raises(DomainError):
            _confluent(0.37, 2.5, True, 0.0)
        assert _confluent(0.37, 2.5, False, 0.0) == (1.0, 0.37 / 2.5, False)

    @pytest.mark.parametrize("a, b, z, error", [
        (1.0, 0.0, 1.0, ParameterError),
        (1.0, -3.0, 1.0, ParameterError),
        (1.0, 1.5, -0.5, DomainError),
        (1.0, 1.5, 60.0, DomainError),
        (1e300, 1e-4, 50.0, SeriesOverflowError),  # on the first term
        (5000.5, 1.5, 50.0, SeriesOverflowError),  # past the first pass, on term 172
        (0.5, 1.5, math.nan, NoConvergenceError),
    ])
    def test_errors_match_scalar(self, a, b, z, error):
        with pytest.raises(error):
            _kummer_series(a, b, z)
        with pytest.raises(error):
            _kummer_block([a], [b], [z])
        # one failing element fails the block
        with pytest.raises(error):
            _kummer_block([0.5, a], [2.5, b], [1.0, z])


def test_only_specfun_names_its_series_internals():
    # the Kummer series, the Tricomi connection formula and the node rule stay
    # behind specfun._confluent: no other module of the package names them
    names = ("_psi_parts", "_psi_from", "_kummer_series", "_kummer_block", "kummer_vanishes")
    for path in sorted(Path(specfun.__file__).parent.glob("*.py")):
        if path.name != "specfun.py":
            assert [n for n in names if n in path.read_text()] == [], path.name


def _psi_ode_residual(a, b, z, h=None):
    """Kummer-equation residual of Psi with O(h^4) central differences.

    Five-point stencils keep the roundoff of the second derivative near
    1e-10 at h = 1e-3, comfortably below the 1e-8 target.
    """
    h = h if h is not None else 1e-3 * max(z, 1.0)
    f = [tricomi_psi(a, b, z + i * h) for i in (-2, -1, 0, 1, 2)]
    pp = (-f[4] + 8.0 * f[3] - 8.0 * f[1] + f[0]) / (12.0 * h)
    ppp = (-f[4] + 16.0 * f[3] - 30.0 * f[2] + 16.0 * f[1] - f[0]) / (12.0 * h ** 2)
    return (z * ppp + (b - z) * pp - a * f[2]) / max(1.0, abs(f[2]))


class TestTricomiPsi:
    def test_ode_residual(self):
        assert abs(_psi_ode_residual(0.4, 1.3, 0.7)) < 1e-8

    def test_polynomial_case_ode_residual(self):
        assert abs(_psi_ode_residual(-1.0, 1.4, 2.0)) < 1e-8

    def test_small_z_dominance(self):
        # z^(1-b) term dominates as z -> 0+ for b > 1
        a, b, z = 0.4, 1.3, 1e-6
        lead = tricomi_psi(a, b, z) * z ** (b - 1.0)
        assert lead == pytest.approx(gamma(b - 1.0) / gamma(a), rel=1e-2)

    def test_derivative_relation(self):
        a, b, z = 0.4, 1.3, 0.9
        h = 1e-6
        fd = (tricomi_psi(a, b, z + h) - tricomi_psi(a, b, z - h)) / (2.0 * h)
        # Psi' = -a Psi(a+1, b+1), the identity momentum's Tricomi rows use
        assert -a * tricomi_psi(a + 1.0, b + 1.0, z) == pytest.approx(fd, rel=1e-6)

    def test_against_mpmath_hyperu(self):
        # the four (a, b) of the tricomi+- rows at lam = 2.5, n = 2, ell = 4 and
        # of their derivatives; next to a zero of Psi (tau ~ 7.557) the error
        # is the zero's conditioning kappa = |tau Psi'/Psi|, so it is scaled by it
        mpmath = pytest.importorskip("mpmath")
        p = ModelParams(n=2, ell=4)
        pairs = []
        for branch in "+-":
            _, a, b = RadialSolution.kummer(p, 2.5, branch=branch, tricomi=True).exponents(p)
            pairs += [(a, b), (a + 1.0, b + 1.0)]
        with mpmath.workdps(40):
            for a, b in pairs:
                for tau in [*np.linspace(0.5, 20.0, 40).tolist(), 7.557]:
                    want = mpmath.hyperu(a, b, tau)
                    kappa = abs(tau * a * mpmath.hyperu(a + 1, b + 1, tau) / want)
                    err = abs((tricomi_psi(a, b, tau) - want) / want)
                    assert err / max(1, kappa) <= 1e-13, (a, b, tau)

    def test_integer_b_rejected(self):
        with pytest.raises(ParameterError):
            tricomi_psi(0.4, 2.0, 1.0)

    def test_nonpositive_z_rejected(self):
        with pytest.raises(DomainError):
            tricomi_psi(0.4, 1.3, 0.0)


class TestLaguerre:
    def test_degree_zero(self):
        for z in (-3.0, 0.0, 7.7):
            assert laguerre(0, 2.0, z) == 1.0

    def test_degree_one(self):
        assert laguerre(1, 4.0, 3.0) == pytest.approx(2.0)

    def test_monomial_expansion_oracle(self):
        # L_k^(alpha)(z) = sum_i binom(k+alpha, k-i) (-z)^i / i!
        def monomial(k, alpha, z):
            total = 0.0
            for i in range(k + 1):
                binom = 1.0
                for j in range(k - i):  # binom(k+alpha, k-i) via product form
                    binom *= (alpha + i + 1.0 + j) / (j + 1.0)
                total += binom * (-z) ** i / math.factorial(i)
            return total

        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(0, 9))
            alpha = rng.uniform(-0.9, 8.0)
            z = rng.uniform(-2.0, 6.0)
            assert laguerre(k, alpha, z) == pytest.approx(monomial(k, alpha, z), rel=1e-11, abs=1e-12)

    def test_frozen_value(self):
        # L_2^(5)(1) = 14.5 (monomial expansion: 21 - 7 + 0.5)
        assert laguerre(2, 5.0, 1.0) == pytest.approx(14.5, rel=1e-14)

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            laguerre(-1, 2.0, 1.0)
        with pytest.raises(ParameterError):
            laguerre(2, -1.5, 1.0)


def _kummer_logderiv(a, b, z):
    return kummer_m_deriv(a, b, z) / kummer_m(a, b, z)


class TestKummerLogDeriv:
    """The log-derivative M'/M that :func:`hodoflow.momentum.radial_row` forms,
    and its pole at a zero of M, which :func:`kummer_vanishes` detects."""

    def test_value_at_zero(self):
        assert _kummer_logderiv(0.7, 1.9, 0.0) == pytest.approx(0.7 / 1.9, rel=1e-14)

    def test_exponential_case(self):
        for z in (0.3, 2.0, 11.0):
            assert _kummer_logderiv(1.5, 1.5, z) == pytest.approx(1.0, rel=1e-12)

    def test_polynomial_case_with_fd_oracle(self):
        # M(-1, 3, z) = 1 - z/3, so the log-derivative at 1.2 is -(1/3)/(1 - 0.4)
        val = _kummer_logderiv(-1.0, 3.0, 1.2)
        assert val == pytest.approx(-(1.0 / 3.0) / (1.0 - 1.2 / 3.0), rel=1e-13)
        h = 1e-6
        fd = (math.log(abs(kummer_m(-1.0, 3.0, 1.2 + h))) - math.log(abs(kummer_m(-1.0, 3.0, 1.2 - h)))) / (2.0 * h)
        assert val == pytest.approx(fd, rel=1e-6)

    def test_node_detection(self):
        # M(-1, 0.5, z) = 1 - 2 z vanishes at z = 0.5, and only there
        assert kummer_vanishes(*_kummer_series(-1.0, 0.5, 0.5))
        assert not kummer_vanishes(*_kummer_series(-1.0, 0.5, 0.5 + 1e-9))


class TestCheckedPow:
    def test_in_range_is_plain_pow(self):
        assert checked_pow(0.3, -2.7) == 0.3 ** -2.7
        assert checked_pow(1e-40, 7.9) == 1e-40 ** 7.9  # underflow to a tiny value is fine

    @pytest.mark.parametrize("x, p", [(1e-40, -7.9), (0.0, -0.5), (1e200, 2.0)])
    def test_out_of_range_raises(self, x, p):
        with pytest.raises(DomainError):
            checked_pow(x, p)
