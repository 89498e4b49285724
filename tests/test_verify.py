"""Verifier primitives: stencils, quadrature, residual harnesses, reports."""

import math

import numpy as np
import pytest

from hodoflow.errors import DomainError, NoConvergenceError, NodeError, ParameterError
from hodoflow.mapping import SectorDomain
from hodoflow.maxwell import ModelParams
from hodoflow.momentum import AngularFactor, RadialSolution, factorized_u
from hodoflow.verify import (
    VerificationReport,
    _h_sweep_report,
    adaptive_quad,
    fd_derivative,
    pde_residual_coordinate,
    pde_residual_momentum,
    report_from_residuals,
)


class TestFdDerivative:
    def test_cubic(self):
        assert fd_derivative(lambda x: x ** 3, 2.0, h=1e-5) == pytest.approx(12.0, abs=1e-6)


class TestQuadrature:
    def test_gaussian_tail(self):
        val = adaptive_quad(lambda z: math.exp(-z * z), 0.0)
        assert val == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-10)

    def test_speed_density_integral(self):
        from hodoflow.maxwell import density_F, density_F_speed_integral

        p = ModelParams(n=2, ell=2)
        val = adaptive_quad(lambda z: density_F(p, z), 0.0)
        assert val == pytest.approx(density_F_speed_integral(p), rel=1e-8)

    def test_divergent_tail_raises(self):
        # the tail (1, inf) of 1 / (1 + r) diverges like log: quad's error estimate stays large
        with pytest.warns(UserWarning), pytest.raises(NoConvergenceError, match="error estimate"):
            adaptive_quad(lambda r: 1.0 / (1.0 + r), 0.0)

    def test_divergent_constant_raises(self):
        # quad extrapolates the tail of 1 over (1, inf) to a finite value with a
        # tiny error estimate; only its failure code says the integral diverges
        with pytest.warns(UserWarning, match="divergent"), pytest.raises(NoConvergenceError, match="divergent"):
            adaptive_quad(lambda r: 1.0, 0.0)


class TestReports:
    def test_pass_rule(self):
        rep = VerificationReport("x", "g", max_abs=1e-6, rms=1e-7, tol=1e-5, skipped_points=0, total_points=1)
        assert rep.passed
        rep2 = VerificationReport("x", "g", max_abs=2e-5, rms=1e-7, tol=1e-5, skipped_points=0, total_points=1)
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

    def test_no_residuals_fails(self):
        rep = report_from_residuals("check", "grid", [], tol=1e-5, skipped=3)
        assert (rep.max_abs, rep.rms, rep.total_points) == (math.inf, math.inf, 3)
        assert not rep.passed

    def test_unknown_suite(self):
        from hodoflow.suites import run_suite

        with pytest.raises(ParameterError, match="unknown suite 'fast'"):
            run_suite("fast")

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
        r1 = pde_residual_momentum(p, u, dom, grid=(6, 6), name="momentum-pde")
        r2 = pde_residual_momentum(p, u, dom, grid=(6, 6), name="momentum-pde")
        assert r1 == r2


class TestMomentumResidualHarness:
    def test_constant_solution(self):
        p = ModelParams(n=2, ell=2)
        dom = SectorDomain(0.3 * p.rho_t, 1.8 * p.rho_t, 0.0, 1.0)
        rep = pde_residual_momentum(p, lambda r, t: 3.7, dom, grid=(5, 5), name="momentum-pde")
        assert rep.passed and rep.max_abs < 1e-12

    def test_u_fn_called_five_times(self):
        # one call per stencil offset, each over the whole grid
        calls = []

        def u_fn(rho, theta):
            calls.append((np.shape(rho), np.shape(theta)))
            return 3.7 + 0.0 * rho * theta

        p = ModelParams(n=2, ell=2)
        dom = SectorDomain(0.3 * p.rho_t, 1.8 * p.rho_t, 0.0, 1.0)
        rep = pde_residual_momentum(p, u_fn, dom, grid=(6, 4), name="momentum-pde")
        assert calls == [((6, 1), (4,))] * 5
        assert rep.passed and rep.total_points == 24

    def test_node_points_skipped(self):
        # points where a stencil value of u is NaN count as skipped: 5 of 25 exceeds the 5% budget
        p = ModelParams(n=2, ell=2)
        dom = SectorDomain(0.3 * p.rho_t, 1.8 * p.rho_t, 0.0, 1.0)
        u_fn = lambda rho, theta: np.where(theta > 0.9, math.nan, 3.7 + 0.0 * rho)
        rep = pde_residual_momentum(p, u_fn, dom, grid=(5, 5), name="momentum-pde")
        assert (rep.skipped_points, rep.total_points) == (5, 25)
        assert rep.max_abs < 1e-12 and not rep.passed

    def test_overflowing_residual_fails_unskipped(self):
        # u is finite at every stencil point, but 2 u overflows: the residual
        # is not finite, which fails the report and is not a skipped point
        p = ModelParams(n=2, ell=2)
        dom = SectorDomain(0.3 * p.rho_t, 1.8 * p.rho_t, 0.0, 1.0)
        rep = pde_residual_momentum(p, lambda r, t: 1e308 * (1.0 + 0.1 * t), dom, grid=(5, 5), name="momentum-pde")
        assert (rep.skipped_points, rep.total_points) == (0, 25)
        assert math.isnan(rep.max_abs) and not rep.passed

    def test_linear_angular_solution(self):
        # u = c1 theta + c2 solves the equation for lam = 0 exactly
        p = ModelParams(n=2, ell=2)
        dom = SectorDomain(0.3 * p.rho_t, 1.8 * p.rho_t, 0.2, 1.2)
        # exact solution: residual sits at the FD rounding floor (~eps u / h^2)
        rep = pde_residual_momentum(p, lambda r, t: 1.4 * t + 0.3, dom, grid=(5, 5), name="momentum-pde")
        assert rep.passed and rep.max_abs < 1e-7

    @pytest.mark.parametrize("error", [NodeError, DomainError])
    def test_coordinate_probes_that_raise_are_skipped(self, error):
        # the coordinate oracle evaluates Phi point by point: a probe whose
        # stencil raises NodeError or DomainError counts as skipped
        def phi_at(x, y):
            if x > 2.0:
                raise error("off the leaf")
            return 0.3 * x - 0.2 * y

        rep = pde_residual_coordinate(ModelParams(n=2, ell=2), phi_at, [(1.0, 0.5), (1.5, -0.2), (2.5, 0.1)])
        assert (rep.skipped_points, rep.total_points) == (1, 3)

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
