"""Verifier primitives: stencils, quadrature, residual harnesses, reports."""

import math

import pytest

from hodoflow.errors import ParameterError
from hodoflow.mapping import SectorDomain
from hodoflow.maxwell import ModelParams
from hodoflow.momentum import AngularFactor, RadialSolution, factorized_u
from hodoflow.verify import (
    VerificationReport,
    _h_sweep_report,
    adaptive_quad,
    fd_derivative,
    pde_residual_momentum,
    quad2d_polar,
    report_from_residuals,
)


class TestFdDerivative:
    def test_cubic(self):
        assert fd_derivative(lambda x: x ** 3, 2.0, order=1, h=1e-5) == pytest.approx(12.0, abs=1e-6)

    def test_second_derivative_sine(self):
        val = fd_derivative(math.sin, 0.7, order=2)
        assert val == pytest.approx(-math.sin(0.7), abs=1e-5)

    def test_invalid_order(self):
        with pytest.raises(ParameterError):
            fd_derivative(math.sin, 0.0, order=3)


class TestQuadrature:
    def test_gaussian_tail(self):
        val = adaptive_quad(lambda z: math.exp(-z * z), 0.0, math.inf, tol=1e-12)
        assert val == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)

    def test_speed_density_integral(self):
        from hodoflow.maxwell import density_F, density_F_speed_integral

        p = ModelParams(n=2, ell=2)
        val = adaptive_quad(lambda z: density_F(p, z), 0.0, math.inf, tol=1e-12)
        assert val == pytest.approx(density_F_speed_integral(p), rel=1e-8)

    def test_polar_area(self):
        # area of annulus 1 <= r <= 2, quarter turn: (pi/4)(4-1) ... via f = 1
        val = quad2d_polar(lambda r, p: 1.0, (1.0, 2.0), (0.0, math.pi / 2.0), tol=1e-12)
        assert val == pytest.approx(3.0 * math.pi / 4.0, rel=1e-12)


class TestReports:
    def test_pass_rule(self):
        rep = VerificationReport("x", "g", max_abs=1e-6, rms=1e-7, tol=1e-5)
        assert rep.passed
        rep2 = VerificationReport("x", "g", max_abs=2e-5, rms=1e-7, tol=1e-5)
        assert not rep2.passed

    def test_skip_budget(self):
        rep = VerificationReport("x", "g", 1e-9, 1e-9, 1e-5, skipped_points=10, total_points=100)
        assert not rep.passed  # 10% skipped exceeds the 5% budget

    def test_serialization_fields(self):
        rep = report_from_residuals("check", "grid", [1e-7, -2e-7], tol=1e-5)
        d = rep.to_dict()
        assert set(d) == {"name", "grid_spec", "max_abs", "rms", "tol", "pass", "skipped_points"}
        assert d["pass"] is True
        assert d["max_abs"] == pytest.approx(2e-7)
        assert d["rms"] == pytest.approx(math.sqrt((1e-14 + 4e-14) / 2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_residual_fails(self, bad):
        rep = report_from_residuals("check", "grid", [1e-9, bad], tol=1e-5)
        assert not rep.passed
        assert not math.isfinite(rep.max_abs)

    def test_deterministic(self):
        p = ModelParams(n=2, ell=2)
        sol = RadialSolution.kummer(p, 2.0)
        fac = AngularFactor(lam=2.0, c1=0.4, c2=0.8)
        dom = SectorDomain(0.4 * p.rho_t, 0.9 * p.rho_t, 0.1, 0.6)
        u = lambda r, t: factorized_u(p, sol, fac, r, t)
        r1 = pde_residual_momentum(p, u, dom, grid=(6, 6))
        r2 = pde_residual_momentum(p, u, dom, grid=(6, 6))
        assert r1 == r2


class TestMomentumResidualHarness:
    def test_constant_solution(self):
        p = ModelParams(n=2, ell=2)
        dom = SectorDomain(0.3 * p.rho_t, 1.8 * p.rho_t, 0.0, 1.0)
        rep = pde_residual_momentum(p, lambda r, t: 3.7, dom, grid=(5, 5), tol=1e-12)
        assert rep.passed and rep.max_abs < 1e-12

    def test_linear_angular_solution(self):
        # u = c1 theta + c2 solves the equation for lam = 0 exactly
        p = ModelParams(n=2, ell=2)
        dom = SectorDomain(0.3 * p.rho_t, 1.8 * p.rho_t, 0.2, 1.2)
        # exact solution: residual sits at the FD rounding floor (~eps u / h^2)
        rep = pde_residual_momentum(p, lambda r, t: 1.4 * t + 0.3, dom, grid=(5, 5), tol=1e-7)
        assert rep.passed

    def test_h_sweep_flags_wrong_solution(self):
        # residuals of a function that does NOT solve the equation do not
        # shrink under h refinement, so the sweep marks the report failed
        rep = _h_sweep_report("momentum-pde", "4x4", [0.31, 0.12], [0.30, 0.11], 1e-5, 0, 2)
        assert not rep.passed
        assert rep.max_abs == math.inf and rep.grid_spec.endswith("[no-shrink]")

    def test_h_sweep_passes_true_solution(self):
        # truncation error of a true solution: halving h quarters the residual
        rep = _h_sweep_report("momentum-pde", "6x6", [8e-6, 4e-6], [2e-6, 1e-6], 1e-5, 0, 2)
        assert rep.passed, rep
        assert rep.max_abs == 2e-6
