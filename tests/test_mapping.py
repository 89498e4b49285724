"""Inverse Legendre transform: map consistency, Jacobian, inversion, fields."""

import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from hodoflow import mapping
from hodoflow.errors import (
    DegenerateMapError,
    DomainError,
    FoldError,
    NoConvergenceError,
    NodeError,
    ParameterError,
    RegionError,
    UnivalenceWarning,
)
from hodoflow.mapping import (
    FieldGrid,
    FieldSample,
    SectorDomain,
    _image,
    forward_map,
    invert_map,
    map_differential,
    sample_fields,
)
from hodoflow.maxwell import (
    ALPHA,
    SIGMA_V,
    ModelParams,
    RegionTag,
    classify,
    coeff_g,
    density_F,
    normalization_sector,
)
from hodoflow.momentum import (
    AngularFactor,
    LaguerreCase,
    RadialSolution,
    factorized_u,
    radial_row,
    radial_rows,
    require_matching,
    zeta_bar,
)
from hodoflow.potentials import classical_potential, quantum_potential
from hodoflow.verify import chart_phi_fn
from oracles import band_edge_radii, extremum_angle


def triple(n, ell, lam, k, abar, c1=1.0, c2=0.0):
    p = ModelParams(n=n, ell=ell)
    case = LaguerreCase(lam=lam, k=k, n=float(n), ell=float(ell), alpha_bar=abar)
    sol = RadialSolution.from_laguerre_case(p, case)
    fac = AngularFactor(lam=lam, c1=c1, c2=c2)
    return p, sol, fac


def omega_chart(p):
    """The angularly symmetric flow: Omega with Theta = 1, so that Omega' = zeta_bar."""
    return p, RadialSolution.omega(), AngularFactor(lam=0.0, c1=0.0, c2=1.0)


def unchecked_image(p, sol, fac, rho, theta):
    """forward_map's ``(x, y, phi, J^-1)`` without its chart check, so also at
    lam = 1 and for a constant u; R and Theta must still match params."""
    require_matching(p, sol, fac)
    r, rp, _ = radial_row(p, sol, rho)
    return _image(rho, r, rp, coeff_g(p, rho), fac.lam, fac.value(theta), fac.deriv(theta),
                  math.cos(theta), math.sin(theta))


#: The three catalog triples used throughout: (n, ell, lam, k, alpha_bar)
TRIPLES = [(2, 0, 2.0, 1, 2.0), (2, 4, 3.0, 2, 7.0), (2, 2, 4.0, 5, 7.0)]


class TestScriptR:
    """Rcal = rho R'/R, the third value of :func:`radial_row`."""

    def test_lambda_one_is_identically_one(self):
        p = ModelParams(n=2, ell=2)
        sol = RadialSolution.kummer(p, 1.0)
        for rho in (0.3, 1.0, 2.9):
            assert radial_row(p, sol, rho)[2] == pytest.approx(1.0, abs=1e-14)

    def test_small_tau_limit(self):
        p, sol, _ = triple(2, 4, 3.0, 2, 7.0)
        assert radial_row(p, sol, 1e-6 * p.rho_t)[2] == pytest.approx(sol.exponents(p)[0], rel=1e-9)

    def test_fd_oracle(self):
        # rho R'(rho)/R(rho) by central differences
        p, sol, _ = triple(2, 0, 2.0, 1, 2.0)
        rho = 0.5 * p.rho_t
        h = 1e-6 * p.rho_t
        r = lambda x: radial_row(p, sol, x)[0]
        fd = rho * (r(rho + h) - r(rho - h)) / (2.0 * h * r(rho))
        assert radial_row(p, sol, rho)[2] == pytest.approx(fd, rel=1e-6)


class TestForwardMap:
    def test_degenerate_lambda_rejected(self):
        p = ModelParams(n=2, ell=2)
        sol = RadialSolution.kummer(p, 1.0)
        fac = AngularFactor(lam=1.0)
        with pytest.raises(DegenerateMapError):
            forward_map(p, sol, fac, 1.0, 0.3)

    def test_degenerate_lambda_zero_jacobian(self):
        # without the chart check, |J^-1| vanishes identically for lam = 1
        p = ModelParams(n=2, ell=2)
        sol = RadialSolution.kummer(p, 1.0)
        fac = AngularFactor(lam=1.0, c1=0.7, c2=0.4)
        rng = np.random.default_rng(1)
        for _ in range(100):
            rho = rng.uniform(0.1, 2.5) * p.rho_t
            theta = rng.uniform(-math.pi, math.pi)
            assert abs(unchecked_image(p, sol, fac, rho, theta)[3]) < 1e-12

    @pytest.mark.parametrize("radial", ["kummer+", "tricomi+", "constant"])
    def test_constant_u_rejected(self, radial):
        # lam = 0 with nu = a = 0 (M = Psi = 1) or the constant kind gives R = 1;
        # with Theta = c2 the map sends every point to the origin
        p = ModelParams(n=2, ell=3 if radial == "tricomi+" else 4)  # Psi needs b = (n + ell)/n non-integer
        if radial == "constant":
            sol = RadialSolution.constant()
        else:
            sol = RadialSolution.kummer(p, 0.0, branch="+", tricomi=radial == "tricomi+")
        fac = AngularFactor(lam=0.0, c1=0.0, c2=1.0)
        dom = SectorDomain(1.2 * p.rho_t, 1.6 * p.rho_t, -0.3, 0.3)
        with pytest.raises(DegenerateMapError):
            forward_map(p, sol, fac, 1.4 * p.rho_t, 0.1)
        with pytest.raises(DegenerateMapError):
            sample_fields(p, sol, fac, dom, grid=(4, 5))
        # without the chart check, the collapsed image is still evaluated
        x, y, _, _ = unchecked_image(p, sol, fac, 1.4 * p.rho_t, 0.1)
        assert x == y == 0.0

    def test_lam_zero_with_varying_factor_accepted(self):
        p = ModelParams(n=2, ell=3)  # b = 1/2 on the minus branch
        dom = SectorDomain(1.2 * p.rho_t, 1.6 * p.rho_t, -0.3, 0.3)
        cases = [
            (RadialSolution.kummer(p, 0.0, branch="+"), AngularFactor(lam=0.0, c1=0.5, c2=1.0)),
            (RadialSolution.kummer(p, 0.0, branch="-"), AngularFactor(lam=0.0, c1=0.0, c2=1.0)),
            (RadialSolution.constant(), AngularFactor(lam=0.0, c1=0.5, c2=1.0)),
        ]
        for sol, fac in cases:
            samples = sample_fields(p, sol, fac, dom, grid=(3, 3))
            assert any(math.hypot(s.x, s.y) > 0.0 for s in samples)

    def test_jacobian_zero_at_sonic_extremum(self):
        for n, ell, lam, k, abar in TRIPLES:
            p, sol, fac = triple(n, ell, lam, k, abar, c1=0.8, c2=0.45)
            theta_e = extremum_angle(fac)
            mp = forward_map(p, sol, fac, p.rho_t, theta_e)
            assert abs(mp.jac_inv) < 1e-10

    @pytest.mark.parametrize("n,ell,lam,k,abar", TRIPLES)
    def test_gradient_consistency(self, n, ell, lam, k, abar):
        # grad Phi recovered by FD over the mapped chart equals (xi, eta)
        p, sol, fac = triple(n, ell, lam, k, abar)
        for rho, theta in [(0.55 * p.rho_t, 0.5), (1.6 * p.rho_t, 0.35)]:
            mp = forward_map(p, sol, fac, rho, theta)
            h = 1e-5 * max(abs(mp.x), abs(mp.y), 0.1)
            seed = (rho, theta)

            def phi_at(x, y):
                r, t = invert_map(p, sol, fac, (x, y), seed)
                return forward_map(p, sol, fac, r, t).phi

            gx = (phi_at(mp.x + h, mp.y) - phi_at(mp.x - h, mp.y)) / (2.0 * h)
            gy = (phi_at(mp.x, mp.y + h) - phi_at(mp.x, mp.y - h)) / (2.0 * h)
            assert gx == pytest.approx(rho * math.cos(theta), rel=1e-4, abs=1e-8)
            assert gy == pytest.approx(rho * math.sin(theta), rel=1e-4, abs=1e-8)

    @pytest.mark.parametrize("n,ell,lam,k,abar", TRIPLES)
    def test_jacobian_formula_against_fd(self, n, ell, lam, k, abar):
        # J^-1 = det d(x,y)/d(xi,eta), assembled from an FD differential of
        # the forward map and the exact polar-to-Cartesian factor
        p, sol, fac = triple(n, ell, lam, k, abar)
        for rho, theta in [(0.6 * p.rho_t, 0.45), (1.7 * p.rho_t, 0.3)]:
            h_r = 1e-5 * p.rho_t
            h_t = 1e-5
            f = lambda r, t: forward_map(p, sol, fac, r, t)
            dx_r = (f(rho + h_r, theta).x - f(rho - h_r, theta).x) / (2.0 * h_r)
            dy_r = (f(rho + h_r, theta).y - f(rho - h_r, theta).y) / (2.0 * h_r)
            dx_t = (f(rho, theta + h_t).x - f(rho, theta - h_t).x) / (2.0 * h_t)
            dy_t = (f(rho, theta + h_t).y - f(rho, theta - h_t).y) / (2.0 * h_t)
            ct, st = math.cos(theta), math.sin(theta)
            # chain through d(rho, theta)/d(xi, eta)
            h11 = dx_r * ct - dx_t * st / rho
            h12 = dx_r * st + dx_t * ct / rho
            h21 = dy_r * ct - dy_t * st / rho
            h22 = dy_r * st + dy_t * ct / rho
            fd_jac_inv = h11 * h22 - h12 * h21
            assert f(rho, theta).jac_inv == pytest.approx(fd_jac_inv, rel=1e-4)

    def test_analytic_differential_matches_fd(self):
        p, sol, fac = triple(2, 4, 3.0, 2, 7.0)
        rho, theta = 1.5 * p.rho_t, 0.4
        jac = map_differential(p, sol, fac, rho, theta)
        h_r, h_t = 1e-6 * p.rho_t, 1e-6
        f = lambda r, t: forward_map(p, sol, fac, r, t)
        assert jac[0, 0] == pytest.approx((f(rho + h_r, theta).x - f(rho - h_r, theta).x) / (2 * h_r), rel=1e-6)
        assert jac[1, 0] == pytest.approx((f(rho + h_r, theta).y - f(rho - h_r, theta).y) / (2 * h_r), rel=1e-6)
        assert jac[0, 1] == pytest.approx((f(rho, theta + h_t).x - f(rho, theta - h_t).x) / (2 * h_t), rel=1e-6)
        assert jac[1, 1] == pytest.approx((f(rho, theta + h_t).y - f(rho, theta - h_t).y) / (2 * h_t), rel=1e-6)


class TestRadialMap:
    def test_minimum_radius(self):
        # image floor r_min = zeta_bar(rho_T) = e^((ell+1)/n)
        p = ModelParams(n=2, ell=0)
        expected = math.exp((p.ell + 1.0) / p.n)
        assert zeta_bar(p, p.rho_t) == pytest.approx(expected, rel=1e-14)
        mp = forward_map(*omega_chart(p), 1.0001 * p.rho_t, 0.3)
        assert math.hypot(mp.x, mp.y) >= expected * (1.0 - 1e-3)

    def test_velocity_radius_lock(self):
        # the speed at coordinate radius r is |alpha| * zeta_bar^-1(r)
        p = ModelParams(n=2, ell=0)
        rho = 1.9 * p.rho_t
        mp = forward_map(*omega_chart(p), rho, 1.1)
        assert math.hypot(mp.x, mp.y) == pytest.approx(zeta_bar(p, rho), rel=1e-12)
        back = invert_map(*omega_chart(p), (mp.x, mp.y), (1.5 * p.rho_t, 0.8))
        assert abs(ALPHA) * back.rho == pytest.approx(abs(ALPHA) * rho, rel=1e-12)

    def test_gradient_consistency(self):
        p = ModelParams(n=2, ell=0)
        chart = omega_chart(p)
        rho, theta = 1.8 * p.rho_t, 0.7
        mp = forward_map(*chart, rho, theta)

        phi_at = chart_phi_fn(*chart, (rho, theta))
        h = 1e-5 * math.hypot(mp.x, mp.y)
        gx = (phi_at(mp.x + h, mp.y) - phi_at(mp.x - h, mp.y)) / (2.0 * h)
        gy = (phi_at(mp.x, mp.y + h) - phi_at(mp.x, mp.y - h)) / (2.0 * h)
        assert gx == pytest.approx(rho * math.cos(theta), rel=1e-4)
        assert gy == pytest.approx(rho * math.sin(theta), rel=1e-4)

    def test_region_error(self):
        p = ModelParams(n=2, ell=0)
        with pytest.raises(RegionError):
            forward_map(*omega_chart(p), 0.5 * p.rho_t, 0.0)

    def test_sector_below_rho_t_raises(self):
        # Omega exists only for rho >= rho_T: the first row stops the sweep
        p = ModelParams(n=2, ell=0)
        with pytest.raises(RegionError):
            sample_fields(*omega_chart(p), SectorDomain(0.9 * p.rho_t, 1.5 * p.rho_t, 0.0, 1.0), grid=(3, 3))

    def test_row_at_rho_t_is_a_node(self):
        # g = 0 at rho_T: J^-1 vanishes and so does the denominator of Q
        p = ModelParams(n=2, ell=0)
        samples = list(sample_fields(*omega_chart(p), SectorDomain(p.rho_t, 1.5 * p.rho_t, 0.0, 1.0), grid=(3, 3)))
        assert [s.flag for s in samples] == ["node"] * 3 + [""] * 6
        for s in samples[:3]:
            assert s.jac_inv == 0.0 and math.isnan(s.q_pot) and math.isnan(s.u_pot)
            assert math.hypot(s.x, s.y) == pytest.approx(zeta_bar(p, p.rho_t), rel=1e-14)


class TestInvertMap:
    @pytest.mark.parametrize("n,ell,lam,k,abar", TRIPLES)
    def test_roundtrip(self, n, ell, lam, k, abar):
        p, sol, fac = triple(n, ell, lam, k, abar)
        for rho, theta in [(0.5 * p.rho_t, 0.6), (1.8 * p.rho_t, 0.25)]:
            mp = forward_map(p, sol, fac, rho, theta)
            back = invert_map(p, sol, fac, (mp.x, mp.y), (rho * 1.02, theta + 0.015))
            assert back.rho == pytest.approx(rho, rel=1e-10)
            assert back.theta == pytest.approx(theta, rel=1e-10, abs=1e-12)
            assert type(back.rho) is float and type(back.theta) is float

    @pytest.fixture
    def roundtrip_probe(self):
        # the map suite's inverse-roundtrip probe at (0.5 rho_T, 0.6)
        p, sol, fac = triple(2, 0, 2.0, 1, 2.0)
        rho, theta = 0.5 * p.rho_t, 0.6
        return p, sol, fac, forward_map(p, sol, fac, rho, theta)[:2], (1.03 * rho, theta + 0.02)

    def test_newton_exhaustion(self, roundtrip_probe, monkeypatch):
        monkeypatch.setattr(mapping, "NEWTON_MAX_ITER", 1)
        with pytest.raises(NoConvergenceError, match=r"no convergence after 1 iterations \(residual 1.071e-03\)"):
            invert_map(*roundtrip_probe)

    @pytest.mark.parametrize("target", [(math.nan, 0.0), (0.5, math.nan)])
    def test_nan_target_fails(self, roundtrip_probe, target):
        p, sol, fac, _, seed = roundtrip_probe
        with pytest.raises(NoConvergenceError, match="backtracking"):
            invert_map(p, sol, fac, target, seed)

    def test_singular_differential(self):
        # on the sonic circle g = 0, and Theta' = 0 at theta = 0 for Theta = cos(lam theta)
        p, sol, _ = triple(2, 0, 2.0, 1, 2.0)
        fac = AngularFactor(lam=2.0, c1=0.0, c2=1.0)
        with pytest.raises(NoConvergenceError, match="singular differential"):
            invert_map(p, sol, fac, (0.3, 0.2), (p.rho_t, 0.0))

    def test_target_off_leaf_never_silent(self):
        # a target far outside the seed's leaf must raise, not return junk
        p, sol, fac = triple(2, 0, 2.0, 1, 2.0)
        mp = forward_map(p, sol, fac, 0.5 * p.rho_t, 0.6)
        with pytest.raises((FoldError, NoConvergenceError)):
            invert_map(p, sol, fac, (mp.x + 1e3, mp.y - 1e3), (0.5 * p.rho_t, 0.6))

    def test_trial_step_below_rho_t_backtracks(self):
        # on the Omega chart a full Newton step from this seed lands below
        # rho_T, where Omega does not exist: the step is shortened, and the
        # call ends in one of the documented errors
        p = ModelParams(n=2, ell=0)
        chart = omega_chart(p)
        target = forward_map(*chart, 2.3 * p.rho_t, 2.2)[:2]
        with pytest.raises((FoldError, NoConvergenceError)):
            invert_map(*chart, target, (1.3 * p.rho_t, 0.2))


class TestSampleFields:
    def test_paper_sector_speed_range_and_tail(self):
        # hyperbolic sector: rho in [1.8, 2.4] rho_T, |theta| <= 12 deg
        p, sol, _ = triple(2, 0, 2.0, 1, 2.0)
        fac = AngularFactor(lam=2.0, c1=0.0, c2=1.0)  # symmetric sector: no node at theta = 0
        dom = SectorDomain(1.8 * p.rho_t, 2.4 * p.rho_t, -math.radians(12), math.radians(12))
        samples = sample_fields(p, sol, fac, dom, grid=(8, 7))
        speeds = [s.speed for s in samples]
        assert min(speeds) >= 1.8 * SIGMA_V * (1.0 - 1e-12)
        assert max(speeds) <= 2.4 * SIGMA_V * (1.0 + 1e-12)
        # hyperbolic tail: density strictly decreasing with speed
        by_speed = sorted({(s.speed, s.density) for s in samples})
        dens = [d for _, d in by_speed]
        assert all(b < a for a, b in zip(dens, dens[1:]))
        assert all(s.region is RegionTag.HYPERBOLIC for s in samples)
        # sector direction property: velocity directions stay in the sector
        for s in samples:
            ang = math.atan2(s.vy, s.vx)
            assert -math.radians(12) - 1e-12 <= ang <= math.radians(12) + 1e-12

    def test_grid_below_two_by_two_rejected(self):
        p, sol, fac = triple(2, 0, 2.0, 1, 2.0)
        dom = SectorDomain(0.3 * p.rho_t, 0.9 * p.rho_t, 0.1, 0.6)
        with pytest.raises(DomainError, match="grid must be at least 2x2"):
            sample_fields(p, sol, fac, dom, grid=(1, 5))

    def test_elliptic_disk_speed_bound(self):
        p, sol, fac = triple(2, 0, 2.0, 1, 2.0)
        dom = SectorDomain(0.05 * p.rho_t, 0.98 * p.rho_t, 0.1, 2.0 * math.pi - 0.1)
        samples = sample_fields(p, sol, fac, dom, grid=(6, 24))
        assert all(s.speed < SIGMA_V for s in samples)

    def test_degenerate_corner_flagged(self):
        p, sol, fac = triple(2, 0, 2.0, 1, 2.0, c1=1.0, c2=0.0)
        theta_e = extremum_angle(fac)  # pi/4 for sin(2 theta)
        dom = SectorDomain(0.9 * p.rho_t, p.rho_t, theta_e - 0.01, theta_e + 0.01)
        samples = sample_fields(p, sol, fac, dom, grid=(3, 3))
        corner = min(samples, key=lambda s: abs(s.jac_inv))
        # the grid contains the exact corner (rho_T, theta_e), where J^-1 = 0
        assert corner.region is RegionTag.PARABOLIC
        assert abs(corner.jac_inv) < 1e-10

    def test_univalence_warning_on_fold(self):
        # sin angular factor over the symmetric sector is not univalent
        p, sol, fac = triple(2, 0, 2.0, 1, 2.0, c1=1.0, c2=0.0)
        dom = SectorDomain(1.8 * p.rho_t, 2.4 * p.rho_t, -math.radians(12), math.radians(12))
        with pytest.warns(UnivalenceWarning):
            sample_fields(p, sol, fac, dom, grid=(6, 7))

    def test_continuity_divergence(self):
        # the defining conservation law: div(f <v>) = 0 on the mapped chart,
        # with the flux reconstructed pointwise through the numerical inverse
        p, sol, fac = triple(2, 4, 3.0, 2, 7.0)
        for rho0, theta0 in [(0.55 * p.rho_t, 0.5), (1.6 * p.rho_t, 0.35)]:
            mp = forward_map(p, sol, fac, rho0, theta0)
            seed = {"pt": (rho0, theta0)}

            def flux(x, y):
                from hodoflow.maxwell import density_F

                back = invert_map(p, sol, fac, (x, y), seed["pt"])
                seed["pt"] = back
                f_val = density_F(p, abs(ALPHA) * back.rho)
                return (
                    -ALPHA * back.rho * math.cos(back.theta) * f_val,
                    -ALPHA * back.rho * math.sin(back.theta) * f_val,
                )

            r_loc = math.hypot(mp.x, mp.y)
            h = 1e-5 * r_loc
            div = (flux(mp.x + h, mp.y)[0] - flux(mp.x - h, mp.y)[0]) / (2.0 * h) + (
                flux(mp.x, mp.y + h)[1] - flux(mp.x, mp.y - h)[1]
            ) / (2.0 * h)
            norm = math.hypot(*flux(mp.x, mp.y))
            assert abs(div) * r_loc / norm < 1e-4

    def test_record_contract(self):
        # a FieldGrid of read-only arrays, whose iteration yields immutable
        # records with Python floats, each its arrays' entries bit for bit
        p, sol, fac = triple(2, 4, 3.0, 2, 7.0, c1=0.0, c2=1.0)
        dom = SectorDomain(1.5 * p.rho_t, 1.89 * p.rho_t, -0.26, 0.26)
        radial_dom = SectorDomain(1.5 * p.rho_t, 2.5 * p.rho_t, 0.0, 1.0)
        # rows beyond the Kummer series' z_max: NaN fields and flags
        p_far = ModelParams(n=2, ell=4)
        far = (p_far, RadialSolution.kummer(p_far, 2.5, branch="+"), AngularFactor(lam=2.5, c1=0.0, c2=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnivalenceWarning)
            results = [
                sample_fields(p, sol, fac, dom, grid=(4, 5)),
                sample_fields(*omega_chart(ModelParams(n=2, ell=0)), radial_dom, grid=(4, 5)),
                sample_fields(*far, SectorDomain(4.0 * p_far.rho_t, 5.0 * p_far.rho_t, 0.0, 0.3), grid=(4, 5)),
            ]
        assert results[2].code.any()
        fields = FieldSample.CSV_COLUMNS[:-1] + ("region", "flag")
        numeric = [name for name in fields[:10] if name not in ("speed", "density")]

        def bits(record):
            return [struct.pack("<d", v) for v in record[:10]] + list(record[10:])

        for grid in results:
            assert type(grid) is FieldGrid and len(grid) == 20
            assert grid.rho.shape == grid.speed.shape == grid.density.shape == (4,) and len(grid.region) == 4
            assert grid.theta.shape == (5,)
            for name in numeric + ["code"]:
                assert getattr(grid, name).shape == (4, 5), name
            for name in numeric + ["code", "rho", "theta", "speed", "density"]:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(grid, name)[0] = 0
            with pytest.raises(AttributeError):
                grid.x = grid.y
            with pytest.raises(TypeError):
                grid[0]
            assert list(map(bits, grid)) == list(map(bits, grid))
            for k, s in enumerate(grid):
                i, j = divmod(k, 5)
                assert type(s) is FieldSample
                assert s._fields == fields
                assert all(type(v) is float for v in s[:10])
                assert isinstance(s.region, RegionTag) and type(s.flag) is str
                want = [getattr(grid, name)[i] if name in ("speed", "density") else getattr(grid, name)[i, j]
                        for name in fields[:10]]
                assert bits(s) == bits(want + [grid.region[i], mapping._FLAGS[grid.code[i, j]]])
                with pytest.raises(AttributeError):
                    s.x = 0.0
                with pytest.raises(AttributeError):
                    s.flag = "node"

    def test_sweep_memory_stays_flat(self):
        # the records are built as the grid is iterated, never all at once:
        # 160 x 160 points on the README sector peak well below the 10.7 MB a
        # list of the records takes, and a full iteration holds its columns'
        # floats (8.8 MB) but no list of every record (12.5 MB)
        p = ModelParams(n=2, ell=4)
        chart = p, RadialSolution.kummer(p, 3.0, branch="+"), AngularFactor(lam=3.0, c1=0.0, c2=1.0)
        dom = SectorDomain(1.5 * p.rho_t, 1.89 * p.rho_t, -math.radians(15), math.radians(15))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UnivalenceWarning)
            tracemalloc.start()
            try:
                grid = sample_fields(*chart, dom, (160, 160))
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                count = sum(1 for _ in grid)
                iter_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert count == len(grid) == 25600
        assert peak < 5e6, f"peak {peak / 1e6:.1f} MB"
        assert iter_peak < 10.5e6, f"iteration peak {iter_peak / 1e6:.1f} MB"

    def test_radial_fields(self):
        p = ModelParams(n=2, ell=0)
        dom = SectorDomain(1.5 * p.rho_t, 2.5 * p.rho_t, 0.0, 1.0)
        samples = sample_fields(*omega_chart(p), dom, grid=(5, 5))
        r_floor = math.exp((p.ell + 1.0) / p.n)
        for s in samples:
            assert math.hypot(s.x, s.y) >= r_floor * (1.0 - 1e-12)
            assert s.region is RegionTag.HYPERBOLIC
            assert math.isfinite(s.q_pot) and math.isfinite(s.u_pot)


def _kummer_case(radial, c1, c2, rho_bar, half_deg, grid):
    p = ModelParams(n=2, ell=4)
    sol = RadialSolution.kummer(p, 2.5, branch=radial[-1], tricomi=radial.startswith("tricomi"))
    half = math.radians(half_deg)
    dom = SectorDomain(rho_bar[0] * p.rho_t, rho_bar[1] * p.rho_t, -half, half)
    return p, sol, AngularFactor(lam=2.5, c1=c1, c2=c2), dom, grid


def _laguerre_case(triple_args, c1, c2, rho_bar, theta, grid):
    p, sol, fac = triple(*triple_args, c1=c1, c2=c2)
    dom = SectorDomain(rho_bar[0] * p.rho_t, rho_bar[1] * p.rho_t, *theta)
    return p, sol, fac, dom, grid


_THETA_E = math.pi / 4.0  # extremum of sin(2 theta)

#: name -> (params, sol, fac, domain, grid); odd theta counts put theta = 0 on the grid
GRID_CASES = {
    # Theta = sin(3 theta): nodal columns at theta = 0 (Theta = 0 exactly) and
    # at theta = +-pi/3 (|Theta| ~ 1e-16, caught by the node test)
    "laguerre-theta-node": _laguerre_case(
        (2, 4, 3.0, 2, 7.0), 1.0, 0.0, (0.4, 0.9), (-math.pi / 3.0, math.pi / 3.0), (5, 7)
    ),
    # M(-1, 3, tau) = 1 - tau/3 vanishes at tau = 3, i.e. on the last row rho = sqrt(6) rho_T
    "laguerre-m-node": _laguerre_case(
        (2, 0, 2.0, 1, 2.0), 0.0, 1.0, (2.0, math.sqrt(6.0)), (-0.2, 0.2), (5, 7)
    ),
    # the exact corner of test_degenerate_corner_flagged, where J^-1 = 0
    "degenerate-corner": _laguerre_case(
        (2, 0, 2.0, 1, 2.0), 1.0, 0.0, (0.9, 1.0), (_THETA_E - 0.01, _THETA_E + 0.01), (3, 3)
    ),
    # the fold of test_univalence_warning_on_fold
    "fold": _laguerre_case(
        (2, 0, 2.0, 1, 2.0), 1.0, 0.0, (1.8, 2.4), (-math.radians(12), math.radians(12)), (6, 7)
    ),
    # Theta' = 0 and, on the last row rho = rho_T, g = 0: the closed form's
    # denominator vanishes exactly and J^-1 = -0.0
    "lam0-sonic-row": (
        ModelParams(n=2, ell=3),
        RadialSolution.kummer(ModelParams(n=2, ell=3), 0.0, branch="-"),
        AngularFactor(lam=0.0, c1=0.0, c2=1.0),
        SectorDomain(1.6, 2.0, -0.2, 0.2),
        (3, 5),
    ),
    "kummer+": _kummer_case("kummer+", 0.0, 1.0, (1.2, 1.8), 12.0, (5, 9)),
    "kummer-": _kummer_case("kummer-", 1.0, 0.0, (0.4, 0.9), 12.0, (5, 9)),
    "tricomi+": _kummer_case("tricomi+", 0.0, 1.0, (1.5, 2.8), 12.0, (5, 9)),
    "tricomi-": _kummer_case("tricomi-", 0.3, 1.0, (0.3, 0.9), 12.0, (5, 9)),
}


def _scalar_sample(p, sol, fac, rho, theta):
    """One record from the scalar functions: the reference for the grid path."""
    mp = forward_map(p, sol, fac, rho, theta)
    try:
        q = quantum_potential(p, sol, fac, rho, theta)
        u = classical_potential(p, sol, fac, rho, theta)
        flag = ""
    except NodeError:
        q = u = math.nan
        flag = "node"
    speed = abs(ALPHA) * rho
    values = {
        "x": mp.x, "y": mp.y, "phi": mp.phi, "jac_inv": mp.jac_inv, "q_pot": q, "u_pot": u,
        "vx": -ALPHA * rho * math.cos(theta), "vy": -ALPHA * rho * math.sin(theta),
        "speed": speed, "density": density_F(p, speed),
    }
    return values, classify(p, rho), flag


class TestSweepRegions:
    def test_rows_at_band_edges(self):
        # each row's region is classify's, by identity, at rho_T (1 +- EPS_PARABOLIC)
        # and one ulp to either side; a two-row grid holds its edges exactly
        p, sol, fac = triple(2, 0, 2.0, 1, 2.0)
        radii = band_edge_radii(p)
        for lo, hi in zip(radii, radii[1:]):
            region = mapping._field_block(p, sol, fac, SectorDomain(lo, hi, 0.1, 0.6), (2, 2), 1.0).region
            assert region[0] is classify(p, lo) and region[1] is classify(p, hi)


class TestGridAgainstScalar:
    @pytest.mark.parametrize("name", sorted(GRID_CASES))
    def test_pointwise_agreement(self, name):
        p, sol, fac, dom, grid = GRID_CASES[name]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            samples = list(sample_fields(p, sol, fac, dom, grid))
        assert len(samples) == grid[0] * grid[1]
        rhos = np.linspace(dom.rho_min, dom.rho_max, grid[0])
        thetas = np.linspace(dom.theta_min, dom.theta_max, grid[1])
        jacs = []
        for i, rho in enumerate(rhos):
            row = samples[i * grid[1]:(i + 1) * grid[1]]
            ref = [_scalar_sample(p, sol, fac, float(rho), float(t)) for t in thetas]
            for key in ref[0][0]:
                want = np.array([values[key] for values, _, _ in ref])
                got = np.array([getattr(s, key) for s in row])
                assert np.array_equal(got, want, equal_nan=True), (name, i, key)
            assert [s.flag for s in row] == [flag for _, _, flag in ref]
            assert [s.region for s in row] == [region for _, region, _ in ref]
            jacs += [values["jac_inv"] for values, _, _ in ref]
        folded = any(j > 0.0 for j in jacs) and any(j < 0.0 for j in jacs)
        assert [w.category for w in caught] == ([UnivalenceWarning] if folded else [])

    def test_cases_cover_nodes_and_folds(self):
        # the comparison above is only as strong as its cases
        flagged = {}
        for name, (p, sol, fac, dom, grid) in GRID_CASES.items():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                samples = sample_fields(p, sol, fac, dom, grid)
            flagged[name] = (sum(s.flag == "node" for s in samples), bool(caught))
        assert flagged["laguerre-theta-node"][0] == 15  # three nodal columns
        assert flagged["laguerre-m-node"][0] == 7  # one nodal row
        assert flagged["lam0-sonic-row"] == (5, False)  # one row, J^-1 <= 0 everywhere
        assert flagged["kummer-"][0] == 5
        assert flagged["fold"][1] and flagged["tricomi+"][1]
        p, sol, fac, dom, grid = GRID_CASES["degenerate-corner"]
        assert min(abs(s.jac_inv) for s in sample_fields(p, sol, fac, dom, grid)) < 1e-10


def _radial_solutions():
    """name -> (params, sol): every radial kind the sweeps evaluate."""
    p = ModelParams(n=2, ell=4)
    out = {
        kind: (p, RadialSolution.kummer(p, 2.5, branch=kind[-1], tricomi=kind.startswith("tricomi")))
        for kind in ("kummer+", "kummer-", "tricomi+", "tricomi-")
    }
    out["laguerre"] = triple(2, 4, 3.0, 2, 7.0)[:2]
    out["laguerre-m-node"] = triple(2, 0, 2.0, 1, 2.0)[:2]  # M(-1, 3, tau) = 0 at rho = sqrt(6) rho_T
    out["omega"] = omega_chart(ModelParams(n=2, ell=0))[:2]
    return out


class TestRadialRows:
    # tiny radii leave the float range, tau = 2.5 rho_bar^2 passes z_max = 50
    # at rho_bar = 4.47, and rho_bar^2 passes the cap 50 at 7.07; Omega exists
    # from rho_T on
    RHO_BARS = (1e-40, 1e-30, 1e-3, 0.3, 0.9, 1.0, 1.5, math.sqrt(6.0), 2.8, 4.4, 4.5, 5.0, 7.0, 7.2, 12.0)

    @pytest.mark.parametrize("name", sorted(_radial_solutions()))
    def test_equals_scalar_rows(self, name):
        p, sol = _radial_solutions()[name]
        rhos = [r * p.rho_t for r in self.RHO_BARS]
        want = []
        for rho in rhos:
            try:
                want.append(radial_row(p, sol, rho))
            except (DomainError, RegionError):
                want.append((math.nan,) * 3)
        got = radial_rows(p, sol, rhos)
        np.testing.assert_array_equal(np.array(got).T, np.array(want))

    def test_rows_cover_every_rejection(self):
        # the comparison above is only as strong as its rows
        def nan_rows(name):
            p, sol = _radial_solutions()[name]
            r, _, rcal = radial_rows(p, sol, [r * p.rho_t for r in self.RHO_BARS])
            return [i for i, v in enumerate(r) if math.isnan(v)], [i for i, v in enumerate(rcal) if math.isnan(v)]

        assert nan_rows("kummer+")[0] == [10, 11, 12, 13, 14]  # past z_max
        assert nan_rows("kummer-")[0] == [0, 10, 11, 12, 13, 14]  # and rho_bar^nu overflows
        assert nan_rows("tricomi+")[0] == [0, 1, 10, 11, 12, 13, 14]  # tau^(1-b) overflows
        assert nan_rows("laguerre-m-node") == ([13, 14], [7, 13, 14])  # ell = 0: the cap; Rcal at the node
        assert nan_rows("omega")[0] == [0, 1, 2, 3, 4, 13, 14]  # inside rho_T, past the cap

    def test_no_rows(self):
        p, sol = _radial_solutions()["kummer+"]
        assert [col.shape for col in radial_rows(p, sol, [])] == [(0,)] * 3


class TestSweepNeverAborts:
    def _out_of_range_samples(self):
        # tau = 2.5 rho_bar^2 runs 40, 44.1, 48.4, 52.9, 57.6, 62.5 over the rows;
        # the Kummer series stops at z_max = 50
        p = ModelParams(n=2, ell=4)
        sol = RadialSolution.kummer(p, 2.5, branch="+")
        fac = AngularFactor(lam=2.5, c1=0.0, c2=1.0)
        dom = SectorDomain(4.0 * p.rho_t, 5.0 * p.rho_t, 0.0, 0.3)
        return p, sample_fields(p, sol, fac, dom, grid=(6, 6))

    def test_rows_beyond_z_max_flagged(self):
        p, samples = self._out_of_range_samples()
        assert len(samples) == 36
        rhos = np.linspace(4.0 * p.rho_t, 5.0 * p.rho_t, 6)
        thetas = np.linspace(0.0, 0.3, 6)
        for k, s in enumerate(samples):
            rho, theta = rhos[k // 6], thetas[k % 6]
            if p.tau(rho) > 50.0:
                assert s.flag == "out-of-range"
                for key in ("x", "y", "phi", "jac_inv", "q_pot", "u_pot"):
                    assert math.isnan(getattr(s, key)), key
            else:
                assert s.flag == ""
                assert math.isfinite(s.x) and math.isfinite(s.q_pot)
            assert s.speed == pytest.approx(abs(ALPHA) * rho, rel=1e-15)
            assert s.density == pytest.approx(density_F(p, abs(ALPHA) * rho), rel=1e-15)
            assert s.vx == pytest.approx(-ALPHA * rho * math.cos(theta), rel=1e-15)
            assert s.vy == pytest.approx(-ALPHA * rho * math.sin(theta), rel=1e-15, abs=1e-300)
        assert [round(p.tau(r), 1) for r in rhos[3:]] == [52.9, 57.6, 62.5]
        assert sum(s.flag == "out-of-range" for s in samples) == 18

    def test_radial_rows_beyond_series_cap_flagged(self):
        # rho_bar^n > RHO_BAR_N_CAP = 50 from rho_bar = 7.07 on; the Omega series stops there
        p = ModelParams(n=2, ell=0)
        dom = SectorDomain(1.5 * p.rho_t, 9.0 * p.rho_t, 0.0, 1.0)
        samples = sample_fields(*omega_chart(p), dom, grid=(4, 3))
        rhos = np.linspace(1.5, 9.0, 4)
        for k, s in enumerate(samples):
            if rhos[k // 3] ** 2 > 50.0:
                assert s.flag == "out-of-range"
                assert math.isnan(s.x) and math.isnan(s.jac_inv) and math.isnan(s.u_pot)
            else:
                mp = forward_map(*omega_chart(p), rhos[k // 3] * p.rho_t, [0.0, 0.5, 1.0][k % 3])
                assert s.flag == "" and s.x == pytest.approx(mp.x, rel=1e-14)
                assert s.phi == pytest.approx(mp.phi, rel=1e-14)
            assert math.isfinite(s.speed) and math.isfinite(s.density)

    @pytest.mark.parametrize("radial", ["kummer-", "tricomi-", "tricomi+"])
    def test_rows_below_float_range_flagged(self, radial):
        # at rho = 1e-40 rho_T, rho_bar^nu (kummer-, tricomi-) or tau^(1-b)
        # (tricomi+) leaves the float range
        p = ModelParams(n=2, ell=4)
        sol = RadialSolution.kummer(p, 2.5, branch=radial[-1], tricomi=radial.startswith("tricomi"))
        fac = AngularFactor(lam=2.5, c1=1.0, c2=0.0)
        dom = SectorDomain(1e-40 * p.rho_t, 0.9 * p.rho_t, -0.25, 0.25)
        samples = list(sample_fields(p, sol, fac, dom, grid=(4, 4)))
        assert [s.flag for s in samples[:4]] == ["out-of-range"] * 4
        assert all(math.isnan(s.x) and math.isnan(s.q_pot) for s in samples[:4])
        assert all(s.flag != "out-of-range" and math.isfinite(s.x) for s in samples[4:])
        with pytest.raises(DomainError):
            forward_map(p, sol, fac, 1e-40 * p.rho_t, 0.1)
        with pytest.raises(DomainError):
            quantum_potential(p, sol, fac, 1e-40 * p.rho_t, 0.1)

    def test_row_overflowing_the_chart_flagged(self):
        # rho_bar^nu = 1e238 is finite at rho = 1e-30 rho_T, but u^2 and J^-1 are not
        p = ModelParams(n=2, ell=4)
        sol = RadialSolution.kummer(p, 2.5, branch="-")
        fac = AngularFactor(lam=2.5, c1=1.0, c2=0.0)
        dom = SectorDomain(1e-30 * p.rho_t, 0.9 * p.rho_t, -0.25, 0.25)
        assert math.isfinite(radial_row(p, sol, 1e-30 * p.rho_t)[0])
        samples = list(sample_fields(p, sol, fac, dom, grid=(4, 4)))
        assert [s.flag for s in samples[:4]] == ["out-of-range"] * 4
        for s in samples[:4]:
            for key in ("x", "y", "phi", "jac_inv", "q_pot", "u_pot"):
                assert math.isnan(getattr(s, key)), key
        assert all(s.flag == "" and math.isfinite(s.jac_inv) for s in samples[4:])
        with pytest.raises(DomainError):
            forward_map(p, sol, fac, 1e-30 * p.rho_t, 0.1)
        with pytest.raises(DomainError):
            quantum_potential(p, sol, fac, 1e-30 * p.rho_t, 0.1)
        with pytest.raises(DomainError):
            classical_potential(p, sol, fac, 1e-30 * p.rho_t, 0.1)
        # J^-1 = -P / rho^4 with rho^4 below the float range
        with pytest.raises(DomainError):
            forward_map(p, RadialSolution.constant(), AngularFactor(lam=0.0, c1=1.0, c2=0.0), 1e-90, 0.1)

    def test_density_singular_row_flagged(self):
        # ell < 0: F diverges at zero speed, and |alpha| rho_min underflows to 0
        p = ModelParams(n=2, ell=-0.5)
        fac = AngularFactor(lam=0.0, c1=1.0, c2=0.0)
        dom = SectorDomain(5e-324, 0.5, -0.1, 0.1)
        samples = list(sample_fields(p, RadialSolution.constant(), fac, dom, grid=(3, 3)))
        assert samples[0].speed == 0.0
        for s in samples[:3]:
            assert s.flag == "density-singular"
            assert math.isnan(s.density) and math.isnan(s.q_pot) and math.isnan(s.u_pot)
        # theta = 0 is a node of Theta = theta; the other rows keep their density
        assert [s.flag for s in samples[3:]] == ["", "node", ""] * 2
        assert all(math.isfinite(s.density) for s in samples[3:])

    def test_underflowing_density_is_zero_not_singular(self):
        # F's decay underflows long before w^4 overflows at rho = 1e80: F is 0
        # there, and the rows are out of range, not density-singular
        p = ModelParams(n=2, ell=4)
        sol = RadialSolution.kummer(p, 2.5, branch="+")
        fac = AngularFactor(lam=2.5, c1=0.0, c2=1.0)
        grid = sample_fields(p, sol, fac, SectorDomain(1e80 * p.rho_t, 2e80 * p.rho_t, -0.2, 0.2), (3, 2))
        assert grid.density.tolist() == [0.0] * 3
        assert grid.code.tolist() == [[2, 2]] * 3
        assert {s.flag for s in grid} == {"out-of-range"}

    def test_scalar_path_still_raises(self):
        # the flag belongs to the sweep; a single evaluation keeps its error
        p = ModelParams(n=2, ell=4)
        sol = RadialSolution.kummer(p, 2.5, branch="+")
        fac = AngularFactor(lam=2.5, c1=0.0, c2=1.0)
        with pytest.raises(DomainError):
            forward_map(p, sol, fac, 5.0 * p.rho_t, 0.1)

    @pytest.mark.parametrize("name", ["laguerre-theta-node", "laguerre-m-node", "fold", "tricomi-"])
    def test_no_runtime_warning(self, name):
        p, sol, fac, dom, grid = GRID_CASES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", UnivalenceWarning)
            sample_fields(p, sol, fac, dom, grid)
            self._out_of_range_samples()


class TestAbsJacInvArc:
    """The closed-form theta integral of |J^-1| against adaptive quadrature of
    the scalar map's inverse Jacobian, split where it changes sign."""

    @pytest.mark.parametrize(
        "ell, lam, branch, c1, c2, rho_bar, theta",
        [
            (4.0, 3.0, "+", 0.0, 1.0, 1.7, (-1.0, 1.0)),  # several fold pairs
            (4.0, 2.5, "+", 0.7, 1.3, 1.4, (-0.3, 0.9)),  # mixed Theta
            (4.0, 2.5, "+", 0.7, 1.3, 0.7, (-0.3, 0.9)),  # elliptic: no fold
            (3.0, 0.0, "-", 1.0, 0.5, 1.4, (-1.5, 0.4)),  # lam = 0: a quadratic in theta
            (3.0, 0.0, "-", 0.0, 1.0, 1.4, (-1.5, 0.4)),  # lam = 0, constant Theta
        ],
    )
    def test_matches_fold_split_quadrature(self, ell, lam, branch, c1, c2, rho_bar, theta):
        integrate = pytest.importorskip("scipy.integrate")
        optimize = pytest.importorskip("scipy.optimize")
        from hodoflow.mapping import _abs_jac_inv_arc
        from hodoflow.maxwell import coeff_g
        from hodoflow.momentum import radial_row

        p = ModelParams(n=2, ell=ell)
        sol = RadialSolution.kummer(p, lam, branch=branch)
        fac = AngularFactor(lam=lam, c1=c1, c2=c2)
        rho = rho_bar * p.rho_t
        r, rp, _ = radial_row(p, sol, rho)
        got = _abs_jac_inv_arc(*(np.array([v]) for v in (rho, r, rp, coeff_g(p, rho))), fac, *theta)[0]

        def jac(t):
            return unchecked_image(p, sol, fac, rho, t)[3]

        grid = np.linspace(*theta, 257)
        vals = [jac(t) for t in grid]
        folds = [optimize.brentq(jac, grid[i], grid[i + 1], xtol=1e-15)
                 for i in range(256) if vals[i] * vals[i + 1] < 0.0]
        want = integrate.quad(lambda t: abs(jac(t)), *theta, points=folds or None,
                              epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        if lam == 3.0:
            assert len(folds) >= 4


class TestAbsJacInvArcRows:
    """The arc integral over a whole sweep at once, row by row against
    adaptive quadrature of ``|P| / rho^4``, split where P changes sign."""

    #: (w1, w2, g) per row
    ROWS = [
        (0.02, 1.0, -1.0),
        (0.3, 1.0, -1.0),
        (3.0, 1.0, -1.0),
        (1.0, 1.0, -5.0),
        (0.3, 1.0, -0.1),
        (10.0, 1.0, -0.1),
        (0.5, 1.0, -1.0),
        (2.0, 1.0, -0.1),
        (1.0, 0.7, 0.8),  # g > 0: P > 0, no fold
        (1.0, 0.0, -1.0),  # w2 = 0: P = (w1 Theta')^2 touches zero, no fold
    ]

    @pytest.mark.parametrize(
        "lam, c1, c2, arc, folds",
        [
            (2.5, 0.7, 1.3, (-0.3, 0.4), {0, 1, 2}),
            # 2.1 periods of cos(2 lam theta)
            (2.5, 0.7, 1.3, (-1.2, 1.5), {0, 4, 5, 6}),
            (3.0, 0.0, 1.0, (-0.9, 1.1), {0, 3, 4}),
            # lam = 0: P is a quadratic in theta
            (0.0, 1.0, 0.5, (-1.5, 0.4), {0, 1, 2}),
        ],
    )
    def test_rows_against_fold_split_quadrature(self, lam, c1, c2, arc, folds):
        integrate = pytest.importorskip("scipy.integrate")
        optimize = pytest.importorskip("scipy.optimize")
        from hodoflow.mapping import _abs_jac_inv_arc

        fac = AngularFactor(lam=lam, c1=c1, c2=c2)
        rho = 2.0  # so that rho R' - lam^2 R is exactly 0 on the w2 = 0 row
        w1, w2, g = (np.array(col) for col in zip(*self.ROWS))
        r = (w2 - w1) if lam == 0.0 else (w1 - w2) / (lam ** 2 - 1.0)
        rp = (w2 + lam ** 2 * r) / rho
        got = _abs_jac_inv_arc(np.full(r.size, rho), r, rp, g, fac, *arc)
        assert got.shape == (r.size,)
        seen = set()
        for k in range(r.size):
            v1, v2 = rho * rp[k] - r[k], rho * rp[k] - lam ** 2 * r[k]

            def form(t):
                return (v1 * fac.deriv(t)) ** 2 + g[k] * (v2 * fac.value(t)) ** 2

            grid = np.linspace(*arc, 4097)
            vals = [form(t) for t in grid.tolist()]
            cuts = [optimize.brentq(form, grid[i], grid[i + 1], xtol=1e-15)
                    for i in range(grid.size - 1) if vals[i] * vals[i + 1] < 0.0]
            seen.add(len(cuts))
            want = integrate.quad(lambda t: abs(form(t)), *arc, points=cuts or None,
                                  epsabs=0.0, epsrel=1e-13, limit=400)[0] / rho ** 4
            assert got[k] == pytest.approx(want, rel=1e-12, abs=0.0), (k, self.ROWS[k])
        assert seen == folds

    @pytest.mark.parametrize("lam, c1, c2, arc", [
        (2.5, 0.7, 1.3, (-1.2, 1.5)),
        (3.0, 0.0, 1.0, (-0.9, 1.1)),
        (0.0, 1.0, 0.5, (-1.5, 0.4)),
    ])
    def test_fold_angles_against_scalar_loop(self, lam, c1, c2, arc):
        # the array pass against math's functions one row at a time; NumPy's
        # arctan2 may differ from math.atan2 in the last bit
        from hodoflow.mapping import _fold_angles

        w1, w2, g = (np.array(col) for col in zip(*self.ROWS))
        with np.errstate(all="ignore"):
            got = _fold_angles(w1, w2, g, AngularFactor(lam=lam, c1=c1, c2=c2), *arc)
        for k, (v1, v2, gk) in enumerate(self.ROWS):
            want = []
            if gk < 0.0 and v2 != 0.0:
                if lam == 0.0:
                    s0 = abs(c1 * v1) / (math.sqrt(-gk) * abs(v2))
                    want = [(-s0 - c2) / c1, (s0 - c2) / c1]
                else:
                    y0 = math.atan2(math.sqrt(-gk) * abs(v2), lam * abs(v1))
                    phi0 = math.atan2(c1, c2)
                    want = [(phi0 + y * y0 + j * math.pi) / lam for y in (-1.0, 1.0) for j in range(-9, 10)]
            want = sorted(t for t in want if arc[0] < t < arc[1])
            assert got[k, :len(want)].tolist() == pytest.approx(want, rel=0.0, abs=8e-16), k
            assert (got[k, len(want):] == arc[1]).all()


#: One hyperbolic point and sector (rho in rho_T), where every kind below has a chart.
_RHO, _THETA = 1.4, 0.1

#: Every entry point that takes a (params, sol, fac), and forward_map's
#: arithmetic without the chart check (:func:`unchecked_image`); ``xy`` is the
#: target of ``invert_map``, which starts from (_RHO, _THETA), and the others
#: ignore it.
MODEL_CHECKED = {
    "forward_map": lambda p, sol, fac, xy: forward_map(p, sol, fac, _RHO * p.rho_t, _THETA),
    "forward_map-degenerate": lambda p, sol, fac, xy: unchecked_image(p, sol, fac, _RHO * p.rho_t, _THETA),
    "map_differential": lambda p, sol, fac, xy: map_differential(p, sol, fac, _RHO * p.rho_t, _THETA),
    "invert_map": lambda p, sol, fac, xy: invert_map(p, sol, fac, xy, (_RHO * p.rho_t, _THETA)),
    "quantum_potential": lambda p, sol, fac, xy: quantum_potential(p, sol, fac, _RHO * p.rho_t, _THETA),
    "classical_potential": lambda p, sol, fac, xy: classical_potential(p, sol, fac, _RHO * p.rho_t, _THETA),
    "factorized_u": lambda p, sol, fac, xy: factorized_u(p, sol, fac, _RHO * p.rho_t, _THETA),
    "factorized_u-grid": lambda p, sol, fac, xy: factorized_u(
        p, sol, fac, np.array([[_RHO * p.rho_t]]), np.array([_THETA])),
    "sample_fields": lambda p, sol, fac, xy: sample_fields(
        p, sol, fac, SectorDomain(1.2 * p.rho_t, 1.6 * p.rho_t, -0.2, 0.2), (3, 3)),
    "normalization_sector": lambda p, sol, fac, xy: normalization_sector(
        p, sol, fac, SectorDomain(1.2 * p.rho_t, 1.6 * p.rho_t, -0.2, 0.2)),
}


class TestModelCheck:
    """Every entry point rejects an R and a Theta that are not one solution of its params."""

    @pytest.mark.parametrize("entry", MODEL_CHECKED)
    def test_lam_mismatch_raises(self, entry):
        p, sol, _ = triple(2, 4, 3.0, 2, 7.0)
        with pytest.raises(ParameterError, match="disagree"):
            MODEL_CHECKED[entry](p, sol, AngularFactor(lam=2.0, c1=0.0, c2=1.0), (1.0, 0.5))

    @pytest.mark.parametrize("case", ["lam-one", "constant-u"])
    @pytest.mark.parametrize("entry", sorted(set(MODEL_CHECKED) - {"forward_map-degenerate", "map_differential",
                                                                    "factorized_u", "factorized_u-grid"}))
    def test_no_chart_raises(self, entry, case):
        # one chart check (momentum.require_chart) serves the map and the potentials
        p = ModelParams(n=2, ell=4)
        if case == "lam-one":
            sol, fac = RadialSolution.kummer(p, 1.0), AngularFactor(lam=1.0, c1=0.0, c2=1.0)
        else:
            sol, fac = RadialSolution.constant(), AngularFactor(lam=0.0, c1=0.0, c2=1.0)
        with pytest.raises(DegenerateMapError):
            MODEL_CHECKED[entry](p, sol, fac, (1.0, 0.5))

    @pytest.mark.parametrize("kind", ["omega", "constant"])
    @pytest.mark.parametrize("entry", MODEL_CHECKED)
    def test_omega_and_constant_read_params(self, entry, kind):
        # these kinds carry no (n, ell): one solution object serves every params
        if kind == "omega":
            sol, fac = RadialSolution.omega(), AngularFactor(lam=0.0, c1=0.0, c2=1.0)
        else:
            sol, fac = RadialSolution.constant(), AngularFactor(lam=0.0, c1=0.5, c2=1.0)
        for p in (ModelParams(n=2, ell=4), ModelParams(n=2, ell=2)):
            xy = forward_map(p, sol, fac, _RHO * p.rho_t, _THETA)[:2]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UnivalenceWarning)
                assert MODEL_CHECKED[entry](p, sol, fac, xy) is not None

    @pytest.mark.parametrize("kind", ["kummer+", "kummer-", "tricomi+", "tricomi-"])
    @pytest.mark.parametrize("entry", MODEL_CHECKED)
    def test_kummer_kinds_read_params(self, entry, kind):
        # a Kummer-based solution is its kind and lam: nu, a and b come from params
        build = lambda p: RadialSolution.kummer(p, 2.5, branch=kind[-1], tricomi=kind.startswith("tricomi"))
        sol, fac = build(ModelParams(n=2, ell=4)), AngularFactor(lam=2.5, c1=1.0, c2=0.0)
        assert sol == build(ModelParams(n=2, ell=2))
        for p in (ModelParams(n=2, ell=4), ModelParams(n=2, ell=2)):
            xy = forward_map(p, sol, fac, _RHO * p.rho_t, _THETA)[:2]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UnivalenceWarning)
                assert MODEL_CHECKED[entry](p, sol, fac, xy) is not None

    @pytest.mark.parametrize("kind, lam, built, evaluated, match", [
        # b = -1.3355 at ell = 4 and -1.1e-16 at ell = 1.2
        ("kummer-", math.sqrt(0.64 / 2.2), 4.0, 1.2, "M branch undefined"),
        # b = 4.442 at ell = 3 and 5.0 at ell = 4
        ("tricomi+", math.sqrt(2.4), 3.0, 4.0, "Tricomi branch not implemented"),
    ])
    @pytest.mark.parametrize("entry", MODEL_CHECKED)
    def test_b_judged_under_evaluating_params(self, entry, kind, lam, built, evaluated, match):
        tricomi = kind.startswith("tricomi")
        with pytest.raises(ParameterError, match=match):
            RadialSolution.kummer(ModelParams(n=2, ell=evaluated), lam, branch=kind[-1], tricomi=tricomi)
        sol = RadialSolution.kummer(ModelParams(n=2, ell=built), lam, branch=kind[-1], tricomi=tricomi)
        with pytest.raises(ParameterError, match=match):
            MODEL_CHECKED[entry](ModelParams(n=2, ell=evaluated), sol, AngularFactor(lam=lam, c1=1.0, c2=0.0),
                                 (1.0, 0.5))
