"""Quantum/classical potentials and the closed-form vortex model."""

import math

import numpy as np
import pytest

from hodoflow.errors import DegenerateMapError, DivergenceError, DomainError, NodeError, ParameterError, RegionError
from hodoflow.mapping import forward_map, invert_map
from hodoflow.maxwell import ALPHA, BETA, ModelParams, density_F
from hodoflow.momentum import AngularFactor, LaguerreCase, RadialSolution
from hodoflow.potentials import (
    PsiModelParams,
    bohr_sommerfeld,
    circulation_quantum,
    classical_potential,
    hamilton_jacobi_residual,
    potential_zeros,
    psi_classical_potential,
    psi_density,
    psi_model_eval,
    psi_quantum_potential,
    psi_velocity,
    quantum_potential,
    radial_moments,
    schrodinger_residual_at,
    sigma_r_closed_form,
    sigma_r_from_moments,
    stationary_u,
)

from oracles import polar_quad, radial_flow_q


def triple(n, ell, lam, k, abar, c1=1.0, c2=0.0):
    p = ModelParams(n=n, ell=ell)
    case = LaguerreCase(lam=lam, k=k, n=float(n), ell=float(ell), alpha_bar=abar)
    sol = RadialSolution.from_laguerre_case(p, case)
    fac = AngularFactor(lam=lam, c1=c1, c2=c2)
    return p, sol, fac


TRIPLES = [(2, 0, 2.0, 1, 2.0), (2, 4, 3.0, 2, 7.0), (2, 2, 4.0, 5, 7.0)]


def fd_quantum_potential(p, sol, fac, rho, theta, h_rel=5e-4):
    """Oracle: (alpha/beta) (Lap sqrt f)/sqrt f by FD over the inverted chart."""
    mp = forward_map(p, sol, fac, rho, theta)
    seed = {"pt": (rho, theta)}

    def sqrt_f(x, y):
        back = invert_map(p, sol, fac, (x, y), seed["pt"])
        seed["pt"] = back
        return math.sqrt(density_F(p, abs(ALPHA) * back.rho))

    h = h_rel * max(math.hypot(mp.x, mp.y), 1e-3)
    center = sqrt_f(mp.x, mp.y)
    lap = (
        sqrt_f(mp.x + h, mp.y) + sqrt_f(mp.x - h, mp.y)
        + sqrt_f(mp.x, mp.y + h) + sqrt_f(mp.x, mp.y - h)
        - 4.0 * center
    ) / h ** 2
    return ALPHA / BETA * lap / center


class TestQuantumPotentialMapped:
    def test_vortex_reduction_coefficients(self):
        # at (z1, z2) = (-1, 0) only the z4^4 numerator survives with weight 1
        from hodoflow.potentials import _a_coeffs

        for g in (0.7, -2.0, 3.1):
            a0, a1, a2 = _a_coeffs(2.0, 4.0, 0.0, -1.0, 0.0, g)
            assert a0 == 0.0
            assert a1 == 0.0
            assert a2 == -1.0 * (-1.0 - 0.0) == 1.0

    def test_vortex_reduction_random_draws(self):
        # the general closed form evaluated on the constant radial factor
        # reproduces the vortex-model quantum potential at machine precision
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = rng.uniform(0.7, 5.0)
            ell = rng.uniform(2.1, 9.0)
            sigma_r = rng.uniform(0.4, 2.5)
            r = rng.uniform(0.3, 4.0) * sigma_r
            params = ModelParams(n=n, ell=ell)
            pm = PsiModelParams(n=n, ell=ell, sigma_r=sigma_r, rho_t=params.rho_t)  # pm.sigma_v == SIGMA_V
            rho = abs(pm.c1) / r
            theta = rng.uniform(-1.0, 1.0)
            fac = AngularFactor(lam=0.0, c1=pm.c1, c2=0.3)
            sol = RadialSolution.constant()
            q_gen = quantum_potential(params, sol, fac, rho, theta)
            assert q_gen == pytest.approx(psi_quantum_potential(pm, r), rel=5e-13)

    @pytest.mark.parametrize("n,ell,lam,k,abar", TRIPLES)
    def test_fd_laplacian_oracle_pointwise(self, n, ell, lam, k, abar):
        p, sol, fac = triple(n, ell, lam, k, abar)
        for rho, theta in [(0.55 * p.rho_t, 0.5), (1.5 * p.rho_t, 0.4)]:
            closed = quantum_potential(p, sol, fac, rho, theta)
            oracle = fd_quantum_potential(p, sol, fac, rho, theta)
            assert closed == pytest.approx(oracle, rel=1e-3)

    def test_point_difference_agreement(self):
        p, sol, fac = triple(2, 4, 3.0, 2, 7.0)
        pts = [(0.5 * p.rho_t, 0.45), (0.62 * p.rho_t, 0.5), (1.55 * p.rho_t, 0.38)]
        closed = [quantum_potential(p, sol, fac, r, t) for r, t in pts]
        oracle = [fd_quantum_potential(p, sol, fac, r, t) for r, t in pts]
        for i in (1, 2):
            d_closed = closed[i] - closed[0]
            d_oracle = oracle[i] - oracle[0]
            assert d_closed == pytest.approx(d_oracle, rel=1e-3)

    def test_node_error_on_angular_zero(self):
        p, sol, fac = triple(2, 0, 2.0, 1, 2.0)  # Theta = sin(2 theta)
        with pytest.raises(NodeError):
            quantum_potential(p, sol, fac, 0.7 * p.rho_t, math.pi / 2.0)

    def test_lambda_one_rejected(self):
        p = ModelParams(n=2, ell=2)
        sol = RadialSolution.kummer(p, 1.0)
        fac = AngularFactor(lam=1.0)
        with pytest.raises(DegenerateMapError):
            quantum_potential(p, sol, fac, 1.0, 0.2)


class TestClassicalPotential:
    def test_kinetic_term_sign(self):
        # U = alpha rho^2 / (4 beta) - Q at alpha = -1/2, beta = 1, rho = 2 and Q = 0 is -0.5
        assert stationary_u(2.0, 0.0) == -0.5

    def test_single_valued_across_states(self):
        # shifting the state energy shifts Q by the same constant; U is fixed
        p, sol, fac = triple(2, 4, 3.0, 2, 7.0)
        rho, theta = 0.6 * p.rho_t, 0.5
        q = quantum_potential(p, sol, fac, rho, theta)
        kinetic = ALPHA * rho ** 2 / (4.0 * BETA)
        for shift in (0.0, 1.7, -4.2):
            u_val = kinetic - (q + shift) + shift
            assert u_val == pytest.approx(classical_potential(p, sol, fac, rho, theta), rel=1e-14)


def omega_chart(p):
    """The angularly symmetric flow: Omega with Theta = 1, so that Omega' = zeta_bar."""
    return p, RadialSolution.omega(), AngularFactor(lam=0.0, c1=0.0, c2=1.0)


class TestRadialFlowPotential:
    """The quantum potential of the Omega chart from the general closed form."""

    def test_against_fd_laplacian(self):
        p = ModelParams(n=2, ell=0)
        chart = omega_chart(p)
        for rho in (1.4 * p.rho_t, 2.0 * p.rho_t):
            mp = forward_map(*chart, rho, 0.0)
            r0 = math.hypot(mp.x, mp.y)

            def sqrt_f(r):
                return math.sqrt(density_F(p, abs(ALPHA) * invert_map(*chart, (r, 0.0), (rho, 0.0)).rho))

            h = 1e-4 * r0
            lap = (
                (sqrt_f(r0 + h) - 2.0 * sqrt_f(r0) + sqrt_f(r0 - h)) / h ** 2
                + (sqrt_f(r0 + h) - sqrt_f(r0 - h)) / (2.0 * h * r0)
            ) / sqrt_f(r0)
            assert quantum_potential(*chart, rho, 0.0) == pytest.approx(ALPHA / BETA * lap, rel=1e-5)

    @pytest.mark.parametrize("n, ell", [(2, 0), (2, 4), (1, 5), (3, 2.5)])
    def test_against_chain_rule_oracle(self, n, ell):
        p = ModelParams(n=n, ell=ell)
        chart = omega_chart(p)
        for rho_bar in np.linspace(1.05, 2.6, 12):
            rho = rho_bar * p.rho_t
            want = radial_flow_q(p, rho)
            for theta in (0.0, 2.5):
                assert quantum_potential(*chart, rho, theta) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_classical_potential_composition(self):
        p = ModelParams(n=2, ell=0)
        chart = omega_chart(p)
        rho = 1.7 * p.rho_t
        expected = ALPHA * rho ** 2 / (4.0 * BETA) - quantum_potential(*chart, rho, 0.3)
        assert classical_potential(*chart, rho, 0.3) == pytest.approx(expected, rel=1e-14)

    def test_region_guard(self):
        p = ModelParams(n=2, ell=0)
        with pytest.raises(RegionError):
            quantum_potential(*omega_chart(p), 0.8 * p.rho_t, 0.0)


class TestPsiModel:
    def test_parameter_validation(self):
        with pytest.raises(DivergenceError):
            PsiModelParams(n=4, ell=2.0)
        with pytest.raises(ParameterError):
            PsiModelParams(n=0.0, ell=6.0)

    def test_regime_picker(self):
        two = PsiModelParams.for_regime(4, 6, "two-zeros")
        crit = PsiModelParams.for_regime(4, 6, "critical")
        one = PsiModelParams.for_regime(4, 6, "single-zero")
        assert two.regime_discriminant < 0.0
        assert crit.regime_discriminant == pytest.approx(0.0, abs=1e-9)
        assert one.regime_discriminant > 0.0
        assert len(potential_zeros(two)) == 2
        assert len(potential_zeros(crit)) == 1
        assert len(potential_zeros(one)) == 1

    def test_zeros_annihilate_potential(self):
        for regime in ("two-zeros", "critical", "single-zero"):
            pm = PsiModelParams.for_regime(4, 6, regime)
            scale = abs(psi_classical_potential(pm, 0.5 * pm.sigma_r))
            for r in potential_zeros(pm):
                assert abs(psi_classical_potential(pm, r)) < 1e-9 * max(1.0, scale)

    def test_density_at_origin_and_normalization(self):
        pm = PsiModelParams(n=4, ell=6, sigma_r=1.0, rho_t=2.0)
        assert psi_density(pm, 0.0) == 0.0
        total = polar_quad(lambda r, phi: psi_density(pm, r), (0.0, math.inf), (0.0, 2.0 * math.pi), tol=1e-10)
        assert total == pytest.approx(1.0, rel=1e-8)

    def test_eval_bundle(self):
        pm = PsiModelParams(n=4, ell=6, sigma_r=1.0, rho_t=2.0)
        out = psi_model_eval(pm, r=1.3, phi=0.7)
        assert out["phase"] == pytest.approx(pm.angular_number * 0.7)
        assert out["v_phi"] == pytest.approx(pm.sigma_r * pm.sigma_v / 1.3, rel=1e-14)
        assert out["v_phi"] == psi_velocity(pm, 1.3)
        assert out["density"] == pytest.approx(psi_density(pm, 1.3), rel=1e-14)

    @pytest.mark.parametrize("regime", ["two-zeros", "critical", "single-zero"])
    def test_schrodinger_residual_analytic(self, regime):
        pm = PsiModelParams.for_regime(4, 6, regime)
        for r in np.geomspace(0.3, 30.0, 25) * pm.sigma_r:
            assert schrodinger_residual_at(pm, float(r)) < 1e-10

    @pytest.mark.parametrize("pm, r", [
        (PsiModelParams.for_regime(4, 6, "two-zeros"), 1e100),
        (PsiModelParams.for_regime(4, 6, "two-zeros"), 1e-100),
        # r^n is subnormal and sigma_r^n / r^n finite, but r^(n+2) underflows to 0
        (PsiModelParams(n=3.9, ell=3.0, sigma_r=1e-10), 1e-80),
    ], ids=["large-r", "small-r", "r^(n+2)-underflow"])
    def test_schrodinger_residual_out_of_range(self, pm, r):
        with pytest.raises(DomainError, match="out of the float range"):
            schrodinger_residual_at(pm, r)

    def test_schrodinger_residual_fd(self):
        # the finite-difference oracle of the wave equation is the psi suite's
        from hodoflow.suites import suite_psi

        report = next(r for r in suite_psi() if r.name == "schrodinger-fd")
        assert report.passed and report.total_points == 3, report

    def test_hamilton_jacobi_closure(self):
        for regime in ("two-zeros", "critical", "single-zero"):
            pm = PsiModelParams.for_regime(4, 6, regime)
            for r in (0.4, 1.0, 2.7, 9.0):
                assert hamilton_jacobi_residual(pm, r) < 1e-10

    def test_asymptotic_exponents(self):
        # log-log slope of |U| at r ~ 1e3 sigma: -2, -(n+2), -2 by regime
        expected = {"two-zeros": -2.0, "critical": -6.0, "single-zero": -2.0}
        for regime, slope_expected in expected.items():
            pm = PsiModelParams.for_regime(4, 6, regime)
            r1, r2 = 1e3 * pm.sigma_r, 2e3 * pm.sigma_r
            slope = (
                math.log(abs(psi_classical_potential(pm, r2)))
                - math.log(abs(psi_classical_potential(pm, r1)))
            ) / (math.log(r2) - math.log(r1))
            assert slope == pytest.approx(slope_expected, rel=0.02)

    def test_far_field_signs(self):
        r = 1e3
        assert psi_classical_potential(PsiModelParams.for_regime(4, 6, "two-zeros"), r) > 0.0
        assert psi_classical_potential(PsiModelParams.for_regime(4, 6, "single-zero"), r) < 0.0


class TestBohrSommerfeld:
    def _pm(self, c1_mag=2.0):
        # |c1| = rho_t sigma_r = 2 with sigma_r = 1
        return PsiModelParams(n=4, ell=6, sigma_r=1.0, rho_t=c1_mag)

    def _circle(self, radius, n=10_000, cx=0.0, cy=0.0):
        t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        return np.column_stack([cx + radius * np.cos(t), cy + radius * np.sin(t)])

    def test_circle_quantization(self):
        pm = self._pm(2.0)
        value = bohr_sommerfeld(pm, self._circle(1.7))
        assert type(value) is float
        assert circulation_quantum(pm) == pytest.approx(2.0 * math.pi)  # (h/2)|c1| with h = 2 pi
        assert value == pytest.approx(circulation_quantum(pm), rel=1e-8)

    def test_ellipse_contour_independence(self):
        pm = self._pm(2.0)
        t = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)
        ellipse = np.column_stack([2.5 * np.cos(t), 0.8 * np.sin(t)])
        assert bohr_sommerfeld(pm, ellipse) == pytest.approx(bohr_sommerfeld(pm, self._circle(1.0)), rel=1e-8)

    def test_non_enclosing_contour(self):
        pm = self._pm(2.0)
        value = bohr_sommerfeld(pm, self._circle(0.3, cx=2.0))
        assert abs(value) < 1e-10 * circulation_quantum(pm)

    def test_contour_through_origin_rejected(self):
        pm = self._pm(2.0)
        with pytest.raises(DomainError):
            bohr_sommerfeld(pm, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        # no vertex near the pole, but the midpoint of the first segment is on it
        with pytest.raises(DomainError):
            bohr_sommerfeld(pm, np.array([[-1.0, -1.0], [1.0, 1.0], [1.0, -1.0]]))


class TestMoments:
    def test_zeroth_moment_is_one(self):
        pm = PsiModelParams(n=4, ell=6, sigma_r=1.2, rho_t=2.0)
        assert radial_moments(pm, 0) == pytest.approx(1.0, rel=1e-13)

    def test_sigma_r_closed_form_agreement(self):
        pm = PsiModelParams(n=4, ell=6, sigma_r=0.9, rho_t=2.0)
        assert sigma_r_from_moments(pm) == pytest.approx(sigma_r_closed_form(pm), rel=1e-12)

    def test_first_moment_quadrature_oracle(self):
        pm = PsiModelParams(n=4, ell=8, sigma_r=1.1, rho_t=2.0)
        closed = radial_moments(pm, 1)
        quad = polar_quad(lambda r, phi: r * psi_density(pm, r), (0.0, math.inf), (0.0, 2.0 * math.pi), tol=1e-10)
        assert closed == pytest.approx(quad, rel=1e-6)

    def test_divergence_guard(self):
        pm = PsiModelParams(n=4, ell=3.5, rho_t=2.0)
        with pytest.raises(DivergenceError):
            radial_moments(pm, 2)
        with pytest.raises(DivergenceError):
            sigma_r_closed_form(pm)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda pm: PsiModelParams.for_regime(4, 6, "three-zeros"), ParameterError, "unknown regime"),
        (lambda pm: psi_classical_potential(pm, 0.0), DomainError, "radius must be positive"),
        (lambda pm: psi_velocity(pm, -1.0), DomainError, "radius must be positive"),
        (lambda pm: schrodinger_residual_at(pm, 0.0), DomainError, "radius must be positive"),
        # NaN fails every ordered comparison, so each radius guard is written to reject it
        (lambda pm: psi_density(pm, math.nan), DomainError, "radius must be non-negative"),
        (lambda pm: psi_quantum_potential(pm, math.nan), DomainError, "radius must be positive"),
        (lambda pm: psi_classical_potential(pm, math.nan), DomainError, "radius must be positive"),
        (lambda pm: psi_velocity(pm, math.nan), DomainError, "radius must be positive"),
        (lambda pm: schrodinger_residual_at(pm, math.nan), DomainError, "radius must be positive"),
        (lambda pm: bohr_sommerfeld(pm, np.array([[1.0, 0.0], [0.0, 1.0]])), DomainError, "N >= 3"),
        (lambda pm: bohr_sommerfeld(pm, np.ones((4, 3))), DomainError, "N >= 3"),
        (lambda pm: radial_moments(pm, 1.5), ParameterError, "non-negative integer"),
        (lambda pm: radial_moments(pm, -1), ParameterError, "non-negative integer"),
    ],
    ids=["regime", "U-radius", "v_phi-radius", "schrodinger-radius", "density-nan", "Q-nan", "U-nan",
         "v_phi-nan", "schrodinger-nan", "contour-points", "contour-columns", "moment-fraction", "moment-negative"],
)
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call(PsiModelParams(n=4, ell=6))
