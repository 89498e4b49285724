"""Momentum-space solutions: characteristics, oscillator form, exact radial
and angular factors, and the Laguerre-case catalogs."""

import hashlib
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hodoflow import verify
from hodoflow.errors import DomainError, NodeError, ParameterError, RegionError, SaturationWarning, UnivalenceWarning
from hodoflow.mapping import SectorDomain, sample_fields
from hodoflow.maxwell import ModelParams, RegionTag, classify, coeff_g, discriminant
from hodoflow.momentum import (
    AngularFactor,
    CharacteristicKind,
    LaguerreCase,
    RadialKind,
    RadialSolution,
    canonical_kappa,
    characteristic_chi,
    factorized_u,
    hill_coefficient_G,
    hill_substitution_zeta,
    hyperbolic_omega,
    kummer_ab,
    laguerre_enumerate,
    laguerre_enumerate_for_ell,
    nu_roots,
    radial_row,
    require_matching,
    slope_rho_theta,
    zeta_bar,
)
from hodoflow.potentials import quantum_potential
from hodoflow.specfun import kummer_m, laguerre
from hodoflow.verify import fd_derivative
from oracles import band_edge_radii, brute_force_orders, extremum_angle, frobenius_roots, nu_plus


@pytest.fixture
def m22():
    return ModelParams(n=2, ell=2)


ALL_KINDS = list(CharacteristicKind)


class TestCharacteristics:
    def test_sonic_circle_value(self, m22):
        # both radial terms vanish at rho_T, leaving +/- theta
        for kind in ALL_KINDS:
            for theta in (0.0, 0.7, -1.2):
                assert characteristic_chi(m22, kind, m22.rho_t, theta) == pytest.approx(
                    kind.sign * theta, abs=1e-12
                )

    def test_level_set_slope_oracle(self, m22):
        # along chi = const: d(theta)/d(rho) = -sign * sqrt(Delta)/rho, i.e.
        # the radial part differentiates to sqrt(|Delta|)/rho
        rho = 1.5 * m22.rho_t
        fd = fd_derivative(
            lambda r: characteristic_chi(m22, CharacteristicKind.HYPERBOLIC_PLUS, r, 0.0), rho, h=1e-6
        )
        assert fd == pytest.approx(math.sqrt(discriminant(m22, rho)) / rho, rel=1e-6)
        rho_e = 0.6 * m22.rho_t
        fd_e = fd_derivative(
            lambda r: characteristic_chi(m22, CharacteristicKind.ELLIPTIC_MINUS, r, 0.0), rho_e, h=1e-6
        )
        assert fd_e == pytest.approx(math.sqrt(-discriminant(m22, rho_e)) / rho_e, rel=1e-6)

    def test_orthogonal_crossing(self, m22):
        assert slope_rho_theta(m22, m22.rho_t) == math.inf

    def test_region_errors(self, m22):
        with pytest.raises(RegionError):
            characteristic_chi(m22, CharacteristicKind.HYPERBOLIC_PLUS, 0.5 * m22.rho_t, 0.0)
        with pytest.raises(RegionError):
            characteristic_chi(m22, CharacteristicKind.ELLIPTIC_PLUS, 2.0 * m22.rho_t, 0.0)

    @pytest.mark.parametrize("sigma_v", [0.1, 1.1, 3.0])
    def test_band_guards_are_classify(self, sigma_v):
        # the band rule has one judge: at the parabolic band's edges and one ulp
        # to either side, each region guard raises RegionError exactly where
        # classify names the other region; a second rule written as the
        # products rho_T (1 +- EPS_PARABOLIC) disagrees with it there
        p = ModelParams(n=2, ell=4, sigma_v=sigma_v)
        omega, fac = RadialSolution.omega(), AngularFactor(lam=0.0, c1=0.0, c2=1.0)
        for rho in band_edge_radii(p):
            # each guard, and whether it needs the hyperbolic side
            guards = [(lambda k=kind: characteristic_chi(p, k, rho, 0.3), kind.hyperbolic) for kind in ALL_KINDS]
            guards += [
                (lambda: hyperbolic_omega(p, rho), True),
                (lambda: sample_fields(p, omega, fac, SectorDomain(rho, 1.5 * rho, 0.0, 1.0), (2, 2)), True),
            ]
            region = classify(p, rho)
            for i, (call, hyperbolic) in enumerate(guards):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UnivalenceWarning)
                    if region is (RegionTag.ELLIPTIC if hyperbolic else RegionTag.HYPERBOLIC):
                        with pytest.raises(RegionError):
                            call()
                    else:
                        assert call() is not None, (i, rho)

    def test_saturation_near_origin(self, m22):
        with pytest.warns(SaturationWarning):
            val = characteristic_chi(m22, CharacteristicKind.ELLIPTIC_PLUS, 1e-9 * m22.rho_t, 0.0)
        assert math.isfinite(val)


class TestSlope:
    def test_n2_limit(self):
        p = ModelParams(n=2, ell=2)
        limit = p.rho_t / math.sqrt(p.ell + 1.0)
        assert slope_rho_theta(p, 100.0 * p.rho_t) == pytest.approx(limit, rel=0.01)

    def test_n1_interior_minimum_location(self):
        # The slope rho / sqrt(Delta) has its hyperbolic-side minimum where
        # rho_bar^n = 2/(2-n): for n = 1 that is exactly 2 rho_T.  (The
        # closed form rho_T (1 - n/2)^(-1/n) is pinned here by golden-section
        # search; see the acceptance module for the criterion-level check.)
        p = ModelParams(n=1, ell=2)
        lo, hi = 1.0001 * p.rho_t, 10.0 * p.rho_t
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        for _ in range(200):
            if slope_rho_theta(p, c) < slope_rho_theta(p, d):
                b = d
            else:
                a = c
            c, d = b - invphi * (b - a), a + invphi * (b - a)
        argmin = 0.5 * (a + b)
        assert argmin == pytest.approx((2.0 / (2.0 - p.n)) ** (1.0 / p.n) * p.rho_t, rel=1e-6)
        assert slope_rho_theta(p, argmin) == pytest.approx(2.0 * p.rho_t / math.sqrt(3.0), rel=1e-9)

    def test_n3_decay(self):
        p = ModelParams(n=3, ell=2)
        assert slope_rho_theta(p, 100.0 * p.rho_t) < 0.1 * p.rho_t
        assert slope_rho_theta(p, 1e4 * p.rho_t) < slope_rho_theta(p, 100.0 * p.rho_t)


class TestCanonicalKappa:
    def test_elliptic_sign_frozen(self):
        # n=2, ell=0, rho = rho_T/2: Delta = -3/4, value (2 + 2 (9/16)) / (4 (3/4)^1.5)
        p = ModelParams(n=2, ell=0)
        expected = (2.0 + 2.0 * 0.5625) / (4.0 * 0.75 ** 1.5)
        assert canonical_kappa(p, 0.5 * p.rho_t) == pytest.approx(expected, rel=1e-13)
        assert expected > 0.0

    def test_hyperbolic_blowup_toward_sonic(self, m22):
        vals = [canonical_kappa(m22, (1.0 + eps) * m22.rho_t) for eps in (0.3, 0.1, 0.03, 0.01)]
        assert all(abs(v2) > abs(v1) for v1, v2 in zip(vals, vals[1:]))

    def test_singular_in_the_parabolic_band(self, m22):
        # classify tags all three radii parabolic; Delta is 0 only at rho_T, and of opposite signs beside it
        for rho_bar in (0.9999999999999, 1.0, 1.0000000000001):
            rho = rho_bar * m22.rho_t
            assert classify(m22, rho) is RegionTag.PARABOLIC
            with pytest.raises(RegionError, match="singular on the sonic circle"):
                canonical_kappa(m22, rho)
        assert discriminant(m22, 0.9999999999999 * m22.rho_t) < 0.0 < discriminant(m22, 1.0000000000001 * m22.rho_t)

    def test_singular_where_delta_rounds_to_zero(self):
        # rho_bar^n rounds to 1 at n = 1e-50, so Delta = 0 in the elliptic region
        p = ModelParams(n=1e-50, ell=2)
        assert classify(p, 0.5 * p.rho_t) is RegionTag.ELLIPTIC and discriminant(p, 0.5 * p.rho_t) == 0.0
        with pytest.raises(RegionError, match="singular"):
            canonical_kappa(p, 0.5 * p.rho_t)

    def test_flow_identity_along_mu(self, m22):
        # Lambda = dOmega/dmu satisfies Lambda' + 4 kappa_h Lambda = 0 along mu; Omega' = zeta_bar
        p = m22

        def lam_of_rho(rho):
            return zeta_bar(p, rho) * rho / math.sqrt(discriminant(p, rho))

        rho = 1.6 * p.rho_t
        dmu_drho = math.sqrt(discriminant(p, rho)) / rho
        dlam_drho = fd_derivative(lam_of_rho, rho, h=1e-6 * p.rho_t)
        lam_prime_mu = dlam_drho / dmu_drho
        residual = lam_prime_mu + 4.0 * canonical_kappa(p, rho) * lam_of_rho(rho)
        assert abs(residual) / abs(lam_prime_mu) < 1e-4


class TestHillSubstitution:
    def test_zeta_derivative_recurrence_branch(self, m22):
        # ell = n k with k = 1: closed antiderivative through Ei
        rho = 0.7 * m22.rho_t
        fd = fd_derivative(lambda r: hill_substitution_zeta(m22, r), rho, h=1e-7 * m22.rho_t)
        assert fd == pytest.approx(zeta_bar(m22, rho), rel=1e-6)

    def test_zeta_derivative_series_branch(self):
        p = ModelParams(n=2, ell=2.5)
        rho = 1.4 * p.rho_t
        fd = fd_derivative(lambda r: hill_substitution_zeta(p, r), rho, h=1e-7 * p.rho_t)
        assert fd == pytest.approx(zeta_bar(p, rho), rel=1e-6)

    def test_zeta_second_order_equation(self, m22):
        # zeta'' + (g / rho) zeta' = 0
        rho = 0.7 * m22.rho_t
        h = 1e-4 * m22.rho_t
        z = lambda r: hill_substitution_zeta(m22, r)
        second = (z(rho + h) - 2.0 * z(rho) + z(rho - h)) / h ** 2
        first = (z(rho + h) - z(rho - h)) / (2.0 * h)
        residual = second + coeff_g(m22, rho) / rho * first
        assert abs(residual) / max(abs(second), abs(first / rho)) < 1e-6

    def test_recurrence_derivative_is_integrand(self, m22):
        # d J_{n,k}/dx = exp(beta_k x^n) / x^(kn+1) for the k = ell/n branch;
        # checked through zeta: dzeta/drho = c0 rho_T J'(rho_bar) / rho_T
        rho = 1.1 * m22.rho_t
        x = m22.rho_bar(rho)
        beta = 1 + 1.0 / m22.n
        integrand = math.exp(beta * x ** m22.n) / x ** (m22.ell + 1.0)
        fd = fd_derivative(lambda r: hill_substitution_zeta(m22, r), rho, h=1e-7 * m22.rho_t)
        assert fd == pytest.approx(m22.c0 * integrand, rel=1e-6)

    def test_oscillator_coefficient_signs(self, m22):
        assert hill_coefficient_G(m22, 2.0, m22.rho_t) == pytest.approx(0.0, abs=1e-20)
        assert hill_coefficient_G(m22, 2.0, 1.5 * m22.rho_t) > 0.0
        assert hill_coefficient_G(m22, 2.0, 0.5 * m22.rho_t) < 0.0
        assert classify(m22, 1.5 * m22.rho_t) is RegionTag.HYPERBOLIC

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda p: zeta_bar(p, 1e-200),  # rho_bar^-(ell+1) overflows
            lambda p: zeta_bar(p, 1e200),  # rho_bar^n in tau overflows
            lambda p: characteristic_chi(p, CharacteristicKind.HYPERBOLIC_PLUS, 1e200, 0.0),
            lambda p: hill_coefficient_G(p, 2.0, 1e200),
            lambda p: zeta_bar(p, 100.0),  # exp(tau) overflows, tau = 3750
        ],
        ids=["zeta_bar-tiny", "zeta_bar-huge", "mu_plus-huge", "hill_G-huge", "zeta_bar-exp"],
    )
    def test_powers_beyond_float_range_raise_domain_error(self, m22, evaluate):
        with pytest.raises(DomainError, match="out of the float range"):
            evaluate(m22)

    def test_oscillator_equation_residual(self, m22):
        # reparametrize R by zeta and check R'' + G R = 0 by finite differences
        lam = 1.0
        sol = RadialSolution.kummer(m22, lam)

        def r_of_zeta(zeta_target, rho_guess):
            rho = rho_guess
            for _ in range(60):
                f = hill_substitution_zeta(m22, rho) - zeta_target
                rho -= f / zeta_bar(m22, rho)
            return radial_row(m22, sol, rho)[0], rho

        rho0 = 0.8 * m22.rho_t
        z0 = hill_substitution_zeta(m22, rho0)
        dz = 1e-3 * abs(z0)
        vals = []
        rho_guess = rho0
        for i in (-2, -1, 0, 1, 2):
            val, rho_guess = r_of_zeta(z0 + i * dz, rho_guess)
            vals.append(val)
        second = (-vals[4] + 16.0 * vals[3] - 30.0 * vals[2] + 16.0 * vals[1] - vals[0]) / (12.0 * dz ** 2)
        g_coef = hill_coefficient_G(m22, lam, rho0)
        residual = second + g_coef * vals[2]
        assert abs(residual) / max(abs(second), abs(g_coef * vals[2])) < 1e-4


def _radial_second_derivative(params, sol, rho):
    """Exact d2R/drho2 via contiguity relations (no finite differences)."""
    from hodoflow import specfun

    rb = params.rho_bar(rho)
    tau = params.tau(rho)
    n = params.n
    nu, a, b = sol.exponents(params)
    if sol.kind.tricomi:
        t0 = specfun.tricomi_psi(a, b, tau)
        t1 = -a * specfun.tricomi_psi(a + 1.0, b + 1.0, tau)  # Psi' = -a Psi(a+1, b+1)
        t2 = a * (a + 1.0) * specfun.tricomi_psi(a + 2.0, b + 2.0, tau)
    else:
        t0 = kummer_m(a, b, tau)
        t1 = specfun.kummer_m_deriv(a, b, tau)
        t2 = a * (a + 1.0) / (b * (b + 1.0)) * kummer_m(a + 2.0, b + 2.0, tau)
    d2 = sol.scale * rb ** (nu - 2.0) * (
        nu * (nu - 1.0) * t0 + n * tau * t1 * (2.0 * nu + n - 1.0) + n * n * tau * tau * t2
    )
    return d2 / params.rho_t ** 2


class TestRadialSolutions:
    @pytest.mark.parametrize(
        "n, ell, lam, branch, tricomi",
        [
            (2, 0, 2.0, "+", False),
            (2, 4, 3.0, "+", False),
            (2, 2, 4.0, "+", False),
            (2, 2.5, 1.7, "+", False),
            (2, 2.5, 1.7, "-", False),
            (2, 0.5, 2.0, "+", True),
            (3, 1.5, 2.2, "+", False),
        ],
    )
    def test_radial_ode_analytic(self, n, ell, lam, branch, tricomi):
        # R'' + g (R'/rho - lam^2 R / rho^2) = 0 with exact derivatives
        p = ModelParams(n=n, ell=ell)
        sol = RadialSolution.kummer(p, lam, branch=branch, tricomi=tricomi)
        for rho in (0.45 * p.rho_t, 0.9 * p.rho_t, 1.7 * p.rho_t):
            r0, r1, _ = radial_row(p, sol, rho)
            r2 = _radial_second_derivative(p, sol, rho)
            g = coeff_g(p, rho)
            residual = r2 + g * (r1 / rho - lam ** 2 * r0 / rho ** 2)
            scale = max(abs(r2), abs(g * r1 / rho), abs(g * lam ** 2 * r0 / rho ** 2), 1e-300)
            assert abs(residual) / scale < 1e-9

    def test_radial_ode_fd(self, m22):
        sol = RadialSolution.kummer(m22, 1.0)
        rho = 0.6 * m22.rho_t
        h = 1e-4 * m22.rho_t
        r = lambda x: radial_row(m22, sol, x)[0]
        second = (r(rho + h) - 2.0 * r(rho) + r(rho - h)) / h ** 2
        first = (r(rho + h) - r(rho - h)) / (2.0 * h)
        g = coeff_g(m22, rho)
        residual = second + g * (first / rho - 1.0 * r(rho) / rho ** 2)
        assert abs(residual) / max(abs(g * first / rho), 1e-30) < 1e-5

    def test_lambda_one_is_linear(self, m22):
        # nu+ = 1 and a+ = 0, so R = rho_bar exactly
        sol = RadialSolution.kummer(m22, 1.0)
        nu, a, _ = sol.exponents(m22)
        assert nu == pytest.approx(1.0, abs=1e-14)
        assert a == pytest.approx(0.0, abs=1e-14)
        for rho in (0.3, 1.1, 2.7):
            assert radial_row(m22, sol, rho)[0] == pytest.approx(m22.rho_bar(rho), rel=1e-14)

    def test_lambda_zero_exponents(self, m22):
        nu_p, nu_m = nu_roots(m22.ell, 0.0)
        assert nu_p == 0.0
        assert nu_m == -m22.ell

    def test_invalid_branches_rejected(self):
        # the minus branch of (n, ell) = (2, 0) at lam = 2 lands on a
        # non-positive-integer second parameter: no regular-M solution there
        p = ModelParams(n=2, ell=0)
        with pytest.raises(ParameterError):
            RadialSolution.kummer(p, 2.0, branch="-")
        # Tricomi kinds refuse integer b outright (logarithmic case unbuilt)
        with pytest.raises(ParameterError):
            RadialSolution.kummer(ModelParams(n=2, ell=2), 1.0, tricomi=True)

    @pytest.mark.parametrize("branch", ["plus", "minus", "", "+-"])
    def test_unknown_branch_rejected(self, branch):
        with pytest.raises(ParameterError, match="branch must be"):
            RadialSolution.kummer(ModelParams(n=2, ell=4), 2.5, branch=branch)

    def test_fields_are_kind_lam_scale(self):
        # nu, a and b come from the model the solution is evaluated in
        with pytest.raises(TypeError):
            RadialSolution(kind=RadialKind.KUMMER_PLUS, lam=2.5, nu=7.0)
        sol = RadialSolution.kummer(ModelParams(n=2, ell=4), 2.5, branch="-", tricomi=True)
        assert sol == RadialSolution(kind=RadialKind.TRICOMI_MINUS, lam=2.5)

    @pytest.mark.parametrize("sol", [RadialSolution.omega(), RadialSolution.constant()], ids=["omega", "constant"])
    def test_exponents_only_for_kummer_kinds(self, sol, m22):
        with pytest.raises(ParameterError, match="no Kummer exponents"):
            sol.exponents(m22)

    def test_non_finite_exponents_rejected(self):
        # lam^2 overflows, so the roots are not finite
        with pytest.raises(ParameterError, match="must be finite"):
            RadialSolution.kummer(ModelParams(n=2, ell=4), 1e200)

    def test_series_caps(self):
        p = ModelParams(n=2, ell=2.5)  # series branches
        big = 8.0 * p.rho_t  # rho_bar^n = 64 > cap
        from hodoflow.errors import DomainError

        with pytest.raises(DomainError):
            hill_substitution_zeta(p, big)
        with pytest.raises(DomainError):
            hyperbolic_omega(ModelParams(n=2, ell=1.3), big)

    def test_frobenius_roots_match(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            ell = rng.uniform(-0.9, 12.0)
            lam = rng.uniform(0.0, 5.0)
            a1, a2 = nu_roots(ell, lam)
            b1, b2 = frobenius_roots(ell, lam)
            assert a1 == pytest.approx(b1, rel=1e-14, abs=1e-14)
            assert a2 == pytest.approx(b2, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("ell, lam", [(1000.0, 0.01), (1e8, 10.0)])
    def test_roots_do_not_cancel(self, ell, lam):
        # -ell/2 + sqrt(ell^2/4 + lam^2 (ell+1)) cancels here; the product of the roots does not
        mpmath = pytest.importorskip("mpmath")
        p = ModelParams(n=2, ell=ell)
        with mpmath.workdps(50):
            disc = mpmath.sqrt(mpmath.mpf(ell) ** 2 / 4 + mpmath.mpf(lam) ** 2 * (ell + 1))
            want = (-mpmath.mpf(ell) / 2 + disc, -mpmath.mpf(ell) / 2 - disc)
        for branch, got, exact in zip("+-", nu_roots(ell, lam), want):
            assert abs(got - exact) <= 1e-15 * abs(exact)
            sol = RadialSolution.kummer(p, lam, branch=branch)
            require_matching(p, sol, AngularFactor(lam=lam))

    def test_integer_roots_are_exact(self):
        # the README triple and the CLI default: nu+ = 5 and 2, nu- = -9 and -2
        assert nu_roots(4.0, 3.0) == (5.0, -9.0)
        assert nu_roots(0.0, 2.0) == (2.0, -2.0)


class TestHyperbolicOmega:
    def test_slope_matches_zeta_bar_when_matched(self, m22):
        # Omega is zeta shifted by c0 rho_T c2 / n: its row's slope is zeta_bar
        p = replace(m22, c0=1.3, c2=0.4)
        for rho in (1.2 * p.rho_t, 1.8 * p.rho_t, 2.6 * p.rho_t):
            value, slope, _ = radial_row(p, RadialSolution.omega(), rho)
            assert slope == zeta_bar(p, rho)
            assert value == pytest.approx(hill_substitution_zeta(p, rho) + p.c0 * p.rho_t * p.c2 / p.n, rel=1e-15)

    def test_fd_slope(self):
        p = ModelParams(n=2, ell=0, c0=1.7, c2=0.4)
        rho = 1.8 * p.rho_t
        fd = fd_derivative(lambda r: hyperbolic_omega(p, r), rho, h=1e-7 * p.rho_t)
        assert fd == pytest.approx(zeta_bar(p, rho), rel=1e-6)

    def test_series_branch_fd_slope(self):
        p = ModelParams(n=2, ell=1.3, c0=0.9)
        rho = 1.5 * p.rho_t
        fd = fd_derivative(lambda r: hyperbolic_omega(p, r), rho, h=1e-7 * p.rho_t)
        assert fd == pytest.approx(zeta_bar(p, rho), rel=1e-6)

    def test_region_error(self, m22):
        with pytest.raises(RegionError):
            hyperbolic_omega(m22, 0.9 * m22.rho_t)

    def test_branch_continuity_on_differences(self):
        # The ell = nk closed form and the nearby-series values agree on
        # differences (both are antiderivative families; the additive
        # constant diverges as ell -> nk and cancels here).
        rho_a, rho_b = 2.4, 3.4
        ref = ModelParams(n=2, ell=2)
        d_ref = hyperbolic_omega(ref, rho_b) - hyperbolic_omega(ref, rho_a)
        for ell in (2.0 - 1e-6, 2.0 + 1e-6):
            p = ModelParams(n=2, ell=ell)
            d = hyperbolic_omega(p, rho_b) - hyperbolic_omega(p, rho_a)
            assert d == pytest.approx(d_ref, rel=1e-4)


def _mp_hill_integral(mpmath, n, ell, x):
    """The Hill integral I(x) in mpmath: the Ei recurrence in k when
    ell = n k, the summed power series otherwise.  The recurrence cancels
    up to about 2 digits per order (76 at k = 37, x = 49.9), so it runs
    3 k digits above the working precision."""
    n, ell, x = mpmath.mpf(n), mpmath.mpf(ell), mpmath.mpf(x)
    q = ell / n
    k = int(mpmath.nint(q))
    if abs(q - k) < 1e-9:
        with mpmath.workdps(mpmath.mp.dps + 3 * k):
            coef = [i + 1 / n for i in range(k + 1)]

            def recurrence(k, x):
                if k == 0:
                    return mpmath.ei(coef[0] * x)
                step = coef[k] ** k / (k * coef[k - 1] ** (k - 1))
                return step * recurrence(k - 1, x * coef[k] / coef[k - 1]) - mpmath.exp(coef[k] * x) / (k * x ** k)

            return recurrence(k, x)
    z = (ell + 1) / n * x
    total, power, j = mpmath.mpf(0), mpmath.mpf(1), 0
    while True:
        term = power / (j - q)
        total += term
        if j > z and j > q and abs(term) < mpmath.mpf(10) ** -70 * abs(total):
            return x ** -q * total
        j += 1
        power *= z / j


class TestHillIntegral:
    """zeta and Omega share one antiderivative, the Hill integral."""

    @pytest.mark.parametrize("n", [1.0, 1.5, 2.0, 3.0, 4.0])
    def test_against_mpmath(self, n):
        mpmath = pytest.importorskip("mpmath")
        points = [(ell, x_target) for k in range(9) for ell in (n * k, n * k + 0.37)
                  for x_target in (0.25, 0.8, 1.0, 2.5, 7.0, 20.0, 49.9)]
        if n == 2.0:
            # zeta 6.6e299 and Omega 2.7e293, where the sum before x^-q (about e^697) overflows
            points.append((30.5, 48.0))
        if n == 1.0:
            # k = 37, where the recurrence at 60 digits alone returns -2.77e289 for 2.94e288
            points.append((37.0, 20.58))
        with mpmath.workdps(60):
            for ell, x_target in points:
                p = ModelParams(n=n, ell=ell)
                rho = x_target ** (1.0 / n) * p.rho_t
                x = p.rho_bar(rho) ** n
                hill = _mp_hill_integral(mpmath, n, ell, x)
                want = p.c0 * p.rho_t * hill / n
                got = hill_substitution_zeta(p, rho)
                assert abs(got - want) <= 1e-12 * abs(want), ("zeta", n, ell, x)
                if x_target < 1.0:
                    continue
                want = p.c0 * p.rho_t * (hill + p.c2) / n
                got = hyperbolic_omega(p, rho)
                assert abs(got - want) <= 1e-12 * abs(want), ("omega", n, ell, x)

    @pytest.mark.parametrize("n, k, rho_bar", [(2.0, 3, 1.5), (1.0, 8, 30.0), (1.5, 5, 9.0), (4.0, 6, 2.6)])
    def test_fd_derivatives_high_k(self, n, k, rho_bar):
        p = ModelParams(n=n, ell=n * k, c0=0.8, c2=0.3)
        rho = rho_bar * p.rho_t
        h = 1e-7 * p.rho_t
        fd = fd_derivative(lambda r: hill_substitution_zeta(p, r), rho, h=h)
        assert fd == pytest.approx(zeta_bar(p, rho), rel=1e-6)
        fd = fd_derivative(lambda r: hyperbolic_omega(p, r), rho, h=h)
        assert fd == pytest.approx(zeta_bar(p, rho), rel=1e-6)

    def test_beyond_float_range_raises(self):
        # at x = 48, I is about e^911 for ell = 40.5; for ell = 400, x^-q
        # underflows, so it cannot scale the first term either
        for ell in (40.5, 400.0):
            p = ModelParams(n=2, ell=ell)
            rho = math.sqrt(48.0) * p.rho_t
            with pytest.raises(DomainError):
                hyperbolic_omega(p, rho)
            with pytest.raises(DomainError):
                hill_substitution_zeta(p, rho)
        # rho_bar^n underflows to 0, where ln(coef x) is undefined
        for ell in (0.0, 2.0):
            with pytest.raises(DomainError):
                hill_substitution_zeta(ModelParams(n=2, ell=ell), 1e-200)

    def test_series_that_does_not_converge_raises(self):
        # q = ell / n = 4000: the stopping rule j > max(z, q) cannot hold
        # within SERIES_MAX_TERMS, so the sum returns NaN
        p = ModelParams(n=1, ell=4000)
        with pytest.raises(DomainError, match="did not converge"):
            hill_substitution_zeta(p, 0.001 * p.rho_t)


class TestMuPlus:
    """mu_+, the radial canonical coordinate of the hyperbolic region: the
    HYPERBOLIC_PLUS characteristic at theta = 0."""

    def test_zero_on_sonic_circle(self, m22):
        assert characteristic_chi(m22, CharacteristicKind.HYPERBOLIC_PLUS, m22.rho_t, 0.0) == 0.0

    def test_strictly_increasing(self, m22):
        rhos = np.linspace(m22.rho_t, 3.0 * m22.rho_t, 40)
        vals = [characteristic_chi(m22, CharacteristicKind.HYPERBOLIC_PLUS, float(r), 0.0) for r in rhos]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_derivative_in_eps(self, m22):
        # d mu / d eps = sqrt(ell+1)/n * sqrt(eps)/(1+eps)
        rho = 1.7 * m22.rho_t
        eps = m22.rho_bar(rho) ** m22.n - 1.0

        def mu_of_eps(e):
            rb = (e + 1.0) ** (1.0 / m22.n)
            return characteristic_chi(m22, CharacteristicKind.HYPERBOLIC_PLUS, rb * m22.rho_t, 0.0)

        fd = fd_derivative(mu_of_eps, eps, h=1e-6)
        expected = math.sqrt(m22.ell + 1.0) / m22.n * math.sqrt(eps) / (1.0 + eps)
        assert fd == pytest.approx(expected, rel=1e-6)


class TestAngularFactor:
    def test_sine_case_frozen(self):
        fac = AngularFactor(lam=3.0, c1=1.0, c2=0.0)
        assert fac.value(math.pi / 12.0) == pytest.approx(math.sin(math.pi / 4.0), rel=1e-15)
        assert fac.deriv(math.pi / 12.0) / fac.value(math.pi / 12.0) == pytest.approx(3.0, rel=1e-13)

    def test_extremum_angle(self):
        for c1, c2, lam in [(1.0, 0.0, 3.0), (0.7, -0.4, 2.0), (1.3, 2.2, 4.0)]:
            fac = AngularFactor(lam=lam, c1=c1, c2=c2)
            th_e = extremum_angle(fac)
            assert fac.deriv(th_e) == pytest.approx(0.0, abs=1e-12 * (abs(c1) + abs(c2)) * lam)

    def test_logderiv_fd(self):
        fac = AngularFactor(lam=2.0, c1=0.8, c2=0.5)
        for theta in (0.3, 1.2):
            fd = fd_derivative(lambda t: math.log(abs(fac.value(t))), theta, h=1e-6)
            assert fac.deriv(theta) / fac.value(theta) == pytest.approx(fd, rel=1e-6)
        lin = AngularFactor(lam=0.0, c1=1.5, c2=0.3)
        fd = fd_derivative(lambda t: math.log(abs(lin.value(t))), 0.9, h=1e-7)
        assert lin.deriv(0.9) / lin.value(0.9) == pytest.approx(fd, rel=1e-6)

    def test_node_error(self):
        # Theta = sin(3 theta) vanishes at pi/3 at working precision: Upsilon
        # has its pole there, and the quantum potential raises NodeError
        fac = AngularFactor(lam=3.0, c1=1.0, c2=0.0)
        assert fac.at_node(math.pi / 3.0) and not fac.at_node(math.pi / 4.0)
        p = ModelParams(n=2, ell=4)
        sol = RadialSolution.from_laguerre_case(p, LaguerreCase(lam=3.0, k=2, n=2.0, ell=4.0, alpha_bar=7.0))
        with pytest.raises(NodeError):
            quantum_potential(p, sol, fac, 0.5 * p.rho_t, math.pi / 3.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            AngularFactor(lam=2.0, c1=0.0, c2=0.0)


class TestLaguerreEnumeration:
    def test_catalog_lambda2(self):
        rows = laguerre_enumerate(2.0, [2.0], ell_max=100.0)
        assert [(c.k, c.ell, c.alpha_bar) for c in rows] == [(1, 0.0, 2.0)]

    def test_catalog_lambda3(self):
        rows = laguerre_enumerate(2.0, [3.0], ell_max=100.0)
        assert [(c.k, c.ell, c.alpha_bar) for c in rows] == [(1, 20.0, 17.0), (2, 4.0, 7.0), (3, 0.0, 3.0)]

    def test_catalog_lambda4(self):
        rows = laguerre_enumerate(2.0, [4.0], ell_max=100.0)
        expected = [
            (1, 90.0, 59.0),
            (2, 32.0, 28.0),
            (3, 14.0, 17.0),
            (4, 6.0, 11.0),
            (5, 2.0, 7.0),
            (6, 0.0, 4.0),
            (7, -6.0 / 7.0, 11.0 / 7.0),
        ]
        got = [(c.k, c.ell, c.alpha_bar) for c in rows]
        assert len(got) == len(expected)
        for (k, ell, ab), (ek, eell, eab) in zip(got, expected):
            assert k == ek
            assert ell == pytest.approx(eell, abs=1e-12)
            assert ab == pytest.approx(eab, abs=1e-12)

    def test_fixed_ell_catalog(self):
        # Every k >= 1 admits one valid lam; the six rows with integer lam^2
        # form the classic sample and must appear exactly.  All other rows
        # must still satisfy the defining condition (checked by the
        # LaguerreCase constructor and re-checked here).
        rows = laguerre_enumerate_for_ell(2.0, 2.0, k_max=12)
        got = {c.k: (round(c.lam ** 2, 9), round(c.alpha_bar, 9)) for c in rows}
        sample = {0: (1.0, 2.0), 1: (5.0, 4.0), 2: (8.0, 5.0), 5: (16.0, 7.0), 7: (21.0, 8.0), 12: (33.0, 10.0)}
        for k, (lam2, ab) in sample.items():
            assert got[k] == (lam2, ab)
        for c in rows:
            if c.k == 0:
                continue
            lam2 = c.lam ** 2
            assert c.k * 2.0 * 2.0 == pytest.approx((lam2 - 2.0 * c.k) ** 2 - lam2, rel=1e-9)
        assert sorted(got) == list(range(13))

    def test_brute_force_confirms_lambda4_order5(self):
        # the (n, ell) = (2, 2) row at lam = 4: a coarse scan over k agrees
        hits = brute_force_orders(2.0, 2.0, 4.0)
        assert hits == [5]

    def test_degeneration_parameter_consistency(self):
        # for every case, a+ = -k and b+ = 1 + alpha_bar
        for case in laguerre_enumerate(2.0, [2.0, 3.0, 4.0], ell_max=100.0):
            nu_p, _ = nu_roots(case.ell, case.lam)
            a, b = kummer_ab(case.n, case.ell, nu_p, case.lam)
            assert a == pytest.approx(-case.k, abs=1e-9)
            assert b == pytest.approx(1.0 + case.alpha_bar, abs=1e-9)

    @pytest.mark.parametrize("n", [1.0, 2.0, 3.0])
    def test_derived_nu_is_nu_plus(self, n):
        # the catalog's nu+ = lam^2 - k n against the root RadialSolution derives
        cases = laguerre_enumerate(n, [2.0, 2.5, 3.0, 3.5, 4.0], ell_max=100.0)
        assert cases
        for case in cases:
            p = ModelParams(n=n, ell=case.ell)
            nu = RadialSolution.from_laguerre_case(p, case).exponents(p)[0]
            assert nu == pytest.approx(nu_plus(case), rel=1e-15, abs=0.0), case

    @pytest.mark.parametrize("n", [1.0, 2.0, 3.0])
    def test_bridge_constant_is_exact(self, n):
        # c0 = k! / ((alpha_bar + 1) ... (alpha_bar + k)) in rational arithmetic
        cases = laguerre_enumerate(n, [2.0, 2.5, 3.0, 3.5, 4.0], ell_max=100.0)
        assert cases
        for case in cases:
            exact = Fraction(math.factorial(case.k))
            for j in range(1, case.k + 1):
                exact /= Fraction(case.alpha_bar) + j
            assert abs(Fraction(case.bridge_constant) - exact) <= Fraction(1, 10 ** 14) * exact, case

    def test_bridge_constant_where_the_gammas_overflow(self):
        # Gamma(1 + alpha_bar) = Gamma(240) is beyond the float range, c0 = 1/240 is not
        case = LaguerreCase(lam=4.0, k=1, n=1.0, ell=209.0, alpha_bar=239.0)
        assert case in laguerre_enumerate(1.0, [4.0], ell_max=math.inf)
        sol = RadialSolution.from_laguerre_case(ModelParams(n=1.0, ell=209.0), case)
        assert sol.scale == pytest.approx(-240.0, rel=1e-15)
        # from k = 221 on the product itself underflows
        case = laguerre_enumerate_for_ell(1.0, 1000.0, 300)[-1]
        with pytest.raises(DomainError, match="bridge constant"):
            RadialSolution.from_laguerre_case(ModelParams(n=1.0, ell=1000.0), case)

    def test_empty_below_one(self):
        assert laguerre_enumerate(2.0, [0.5, 0.9], ell_max=100.0) == []

    def test_invalid_case_rejected(self):
        with pytest.raises(ParameterError):
            LaguerreCase(lam=3.0, k=2, n=2.0, ell=5.0, alpha_bar=7.0)  # ell should be 4

    def test_catalog_pinned(self):
        # both enumerators over a grid of n, lam and ell, every field's bits
        # by the rows' repr: 7,691 rows, the sha256 taken before LaguerreCase
        # became the only judge of the catalog rule
        reprs = []
        for n in (0.5, 1.0, 1.5, 2.0, 3.0, 7.0):
            reprs += [repr(laguerre_enumerate(n, [1.0 + 0.75 * i], math.inf)) for i in range(16)]
            reprs += [repr(laguerre_enumerate_for_ell(n, ell, 60))
                      for ell in (-0.999, -0.5, 0.0, 0.5, 2.0, 4.0, 7.5, 100.0, 1e6, 1e12)]
        assert sum(r.count("LaguerreCase(") for r in reprs) == 7691
        digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
        assert digest == "9e94f1c5039c6d9a771da58813d16199cfc34b85d34c47401419b6d0fecaee7d"


class TestFactorizedU:
    def test_pde_residual_laguerre_case(self):
        p = ModelParams(n=2, ell=4)
        case = LaguerreCase(lam=3.0, k=2, n=2.0, ell=4.0, alpha_bar=7.0)
        sol = RadialSolution.from_laguerre_case(p, case)
        fac = AngularFactor(lam=3.0, c1=1.0, c2=0.0)
        domain = SectorDomain(0.4 * p.rho_t, 1.9 * p.rho_t, 0.15, 0.9)
        report = verify.pde_residual_momentum(
            p, lambda r, t: factorized_u(p, sol, fac, r, t), domain, grid=(12, 12), name="momentum-pde-2-4-3"
        )
        assert report.passed, report

    def test_laguerre_shape(self):
        # u is proportional to rho_bar^nu L_2^(7)(tau) sin(3 theta)
        p = ModelParams(n=2, ell=4)
        case = LaguerreCase(lam=3.0, k=2, n=2.0, ell=4.0, alpha_bar=7.0)
        sol = RadialSolution.from_laguerre_case(p, case)
        fac = AngularFactor(lam=3.0, c1=1.0, c2=0.0)
        for rho, theta in [(0.8, 0.3), (2.3, 0.5), (3.9, 1.2)]:
            expected = (
                p.rho_bar(rho) ** nu_plus(case)
                * laguerre(case.k, case.alpha_bar, p.tau(rho))
                * math.sin(3.0 * theta)
            )
            assert factorized_u(p, sol, fac, rho, theta) == pytest.approx(expected, rel=1e-12)

    def test_angular_periodicity(self, m22):
        sol = RadialSolution.kummer(m22, 4.0)
        fac = AngularFactor(lam=4.0, c1=0.6, c2=0.2)
        rho = 1.3
        for theta in (0.1, 0.9):
            assert factorized_u(m22, sol, fac, rho, theta) == pytest.approx(
                factorized_u(m22, sol, fac, rho, theta + math.pi / 2.0), rel=1e-12
            )

    def test_lambda_mismatch_rejected(self, m22):
        sol = RadialSolution.kummer(m22, 2.0)
        fac = AngularFactor(lam=3.0)
        with pytest.raises(ParameterError):
            factorized_u(m22, sol, fac, 1.0, 0.5)

    @pytest.mark.parametrize("case, rho_bars, has_nan", [
        # terminating M (a Laguerre polynomial)
        ("laguerre", (0.3, 2.5), False),
        # non-terminating M, whose tau = 1.5 rho_bar^2 passes KUMMER_Z_MAX beyond rho_bar 5.77
        ("kummer", (0.4, 7.0), True),
        ("tricomi", (0.4, 7.0), True),
        # Omega is hyperbolic only: RegionError below rho_T
        ("omega", (0.5, 1.8), True),
        ("constant", (0.5, 1.8), False),
    ])
    def test_grid_matches_scalar(self, case, rho_bars, has_nan):
        # over a rho column and a theta row: the scalar's bits, NaN exactly where the scalar raises
        p = ModelParams(n=2, ell=4) if case == "laguerre" else ModelParams(n=2, ell=2)
        sol = {
            "laguerre": lambda: RadialSolution.from_laguerre_case(
                p, LaguerreCase(lam=3.0, k=2, n=2.0, ell=4.0, alpha_bar=7.0)),
            "kummer": lambda: RadialSolution.kummer(p, 2.5),
            "tricomi": lambda: RadialSolution.kummer(p, 2.5, tricomi=True),
            "omega": RadialSolution.omega,
            "constant": RadialSolution.constant,
        }[case]()
        fac = AngularFactor(lam=sol.lam, c1=0.6, c2=0.2)
        rho = np.linspace(*rho_bars, 23)[:, None] * p.rho_t
        theta = np.linspace(-0.4, 1.1, 7)

        def scalar(r, t):
            try:
                return factorized_u(p, sol, fac, r, t)
            except (DomainError, RegionError):
                return math.nan

        want = np.array([[scalar(r, t) for t in theta.tolist()] for r in rho.ravel().tolist()])
        got = factorized_u(p, sol, fac, rho, theta)
        assert got.shape == want.shape
        nan = np.isnan(want)
        assert nan.any() == has_nan
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda p: characteristic_chi(p, CharacteristicKind.HYPERBOLIC_PLUS, 0.0, 0.0), DomainError,
         "chi requires rho > 0"),
        (lambda p: slope_rho_theta(p, -1.0), DomainError, "slope requires rho > 0"),
        (lambda p: hill_substitution_zeta(p, 0.0), DomainError, "rho must be positive"),
        (lambda p: zeta_bar(p, 0.0), DomainError, "rho must be positive"),
        (lambda p: hill_coefficient_G(p, 2.0, 0.0), DomainError, "rho must be positive"),
        (lambda p: hill_coefficient_G(replace(p, c0=0.0), 2.0, p.rho_t), ParameterError, "c0 must be nonzero"),
        (lambda p: LaguerreCase(lam=0.5, k=0, n=2.0, ell=0.0, alpha_bar=1.0), ParameterError, "lam >= 1"),
        (lambda p: LaguerreCase(lam=2.0, k=-1, n=2.0, ell=0.0, alpha_bar=1.0), ParameterError, "k must be"),
        (lambda p: LaguerreCase(lam=1.0, k=0, n=0.0, ell=0.0, alpha_bar=1.0), ParameterError, "n must be finite"),
        (lambda p: LaguerreCase(lam=1.0, k=0, n=-2.0, ell=0.0, alpha_bar=-1.0), ParameterError, "n must be finite"),
        (lambda p: LaguerreCase(lam=2.0, k=0, n=2.0, ell=-1.0, alpha_bar=1.0), ParameterError, "ell must exceed"),
        (lambda p: LaguerreCase(lam=2.0, k=0, n=2.0, ell=0.0, alpha_bar=0.0), ParameterError, "alpha_bar = 0"),
        (lambda p: LaguerreCase(lam=3.0, k=1, n=2.0, ell=0.0, alpha_bar=1.0), ParameterError, "degeneration"),
        # lam = 1, k n = 2, ell = 0 meets the degeneration condition, but k n > lam sqrt(lam^2 - 1) = 0
        (lambda p: LaguerreCase(lam=1.0, k=1, n=2.0, ell=0.0, alpha_bar=1.0), ParameterError, "k n exceeds"),
        # the README triple with alpha_bar = 99 instead of (2 (9 - 4) + 4) / 2 = 7
        (lambda p: LaguerreCase(lam=3.0, k=2, n=2.0, ell=4.0, alpha_bar=99.0), ParameterError, "alpha_bar = 99"),
        (lambda p: RadialSolution.from_laguerre_case(p, LaguerreCase(lam=3.0, k=2, n=2.0, ell=4.0, alpha_bar=7.0)),
         ParameterError, "different"),
        (lambda p: LaguerreCase(lam=1e160, k=1, n=2.0, ell=0.0, alpha_bar=1.0), DomainError, "float range"),
        # k = 0 meets the degeneration condition only at lam = 1: lam = 3 would give a degree-3 polynomial
        (lambda p: LaguerreCase(lam=3.0, k=0, n=2.0, ell=0.0, alpha_bar=9.0), ParameterError, "degeneration"),
        # the expected alpha_bar 2 / n overflows, so no alpha_bar could be compared with it
        (lambda p: LaguerreCase(lam=1.0, k=0, n=1e-310, ell=0.0, alpha_bar=1.0), DomainError, "float range"),
        (lambda p: laguerre_enumerate_for_ell(2.0, 5e307, 3), DomainError, "discriminant at order k = 1"),
        (lambda p: laguerre_enumerate(2.0, [3.0], math.nan), ParameterError, "ell_max must not be NaN"),
        (lambda p: radial_row(p, RadialSolution.kummer(p, 2.0), math.nan), DomainError, "rho must be positive"),
        (lambda p: characteristic_chi(p, CharacteristicKind.HYPERBOLIC_PLUS, math.nan, 0.0), DomainError,
         "chi requires rho > 0"),
        (lambda p: characteristic_chi(p, CharacteristicKind.ELLIPTIC_PLUS, 0.5 * p.rho_t, math.nan), DomainError,
         "chi requires a finite theta"),
        (lambda p: slope_rho_theta(p, math.nan), DomainError, "slope requires rho > 0"),
        (lambda p: zeta_bar(p, math.nan), DomainError, "rho must be positive"),
        (lambda p: hill_substitution_zeta(p, math.nan), DomainError, "rho must be positive"),
        (lambda p: hill_coefficient_G(p, 2.0, math.nan), DomainError, "rho must be positive"),
        (lambda p: radial_row(p, RadialSolution.kummer(p, 2.0), 0.0), DomainError, "rho must be positive"),
        # rho_bar^n underflows to 0, so tau = 0 is outside Psi's domain
        (lambda p: radial_row(p, RadialSolution.kummer(p, 2.5, tricomi=True), 1e-200 * p.rho_t),
         DomainError, "Tricomi Psi restricted to z > 0"),
        (lambda p: AngularFactor(lam=-1.0), ParameterError, "lam must be non-negative"),
        (lambda p: extremum_angle(AngularFactor(lam=0.0)), ParameterError, "no extremum"),
        # Omega's region guard is classify, with its DomainError at rho <= 0
        (lambda p: hyperbolic_omega(p, 0.0), DomainError, "classification requires rho > 0"),
    ],
    ids=[
        "chi-rho", "slope-rho", "zeta-rho", "zeta_bar-rho", "hill_G-rho", "hill_G-c0",
        "laguerre-lam", "laguerre-k", "laguerre-n-zero", "laguerre-n-negative", "laguerre-ell",
        "laguerre-alpha_bar", "laguerre-residual",
        "laguerre-kn", "laguerre-alpha_bar-value", "laguerre-model", "laguerre-lam4", "laguerre-k0-residual",
        "laguerre-alpha_bar-overflow", "laguerre-discriminant",
        "laguerre-ell_max", "radial_row-nan", "chi-nan", "chi-theta-nan", "slope-nan", "zeta_bar-nan", "zeta-nan",
        "hill_G-nan",
        "radial_row-rho", "radial_row-tricomi-tau", "angular-lam",
        "angular-extremum", "omega-rho",
    ],
)
def test_input_checks(m22, call, error, message):
    with pytest.raises(error, match=message):
        call(m22)
