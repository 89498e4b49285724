"""Distribution family, induced coefficients, and region classification."""

import math

import numpy as np
import pytest

from hodoflow import maxwell, verify
from hodoflow.errors import DivergenceError, DomainError, ParameterError
from hodoflow.maxwell import (
    ALPHA,
    EPS_PARABOLIC,
    ModelParams,
    RegionTag,
    classify,
    coeff_g,
    coeff_h,
    density_F,
    density_F_speed_integral,
    discriminant,
    normalization_psi_model,
)
from hodoflow.mapping import SectorDomain
from hodoflow.momentum import AngularFactor, LaguerreCase, RadialSolution
from hodoflow.specfun import gamma
from oracles import band_edge_radii, coeff_h_bar, polar_quad


@pytest.fixture
def maxwell22():
    return ModelParams(n=2, ell=2)


class TestModelParams:
    def test_defaults_give_order_one_scales(self, maxwell22):
        assert maxwell22.rho_t == pytest.approx(2.0)
        assert maxwell22.sigma_nl > 0.0
        # the velocity at the sonic circle equals sigma_v exactly
        assert abs(ALPHA) * maxwell22.rho_t == pytest.approx(maxwell22.sigma_v, rel=1e-15)

    @pytest.mark.parametrize(
        "kw",
        # ell and sigma_v are also checked past their boundaries (kw4, kw5)
        [{"n": 0.0}, {"n": -1.0}, {"ell": -1.0}, {"sigma_v": 0.0}, {"ell": -1.5}, {"sigma_v": -1.0}, {"c0": 0.0}],
    )
    def test_validation(self, kw):
        base = dict(n=2, ell=2)
        base.update(kw)
        with pytest.raises(ParameterError):
            ModelParams(**base)

    def test_units_are_not_fields(self):
        # alpha and beta are the constants maxwell.ALPHA and BETA, not settings
        for kw in ({"alpha": -0.5}, {"beta": 1.0}):
            with pytest.raises(TypeError):
                ModelParams(n=2, ell=0, **kw)

    def test_one_home_for_the_units(self):
        # the mapped flows and the vortex model read the same hbar and m
        from hodoflow import potentials

        assert (maxwell.HBAR, maxwell.MASS) == (potentials.HBAR, potentials.MASS) == (1.0, 1.0)
        assert maxwell.ALPHA == -maxwell.HBAR / (2.0 * maxwell.MASS) == -0.5
        assert maxwell.BETA == 1.0 / maxwell.HBAR == 1.0
        for rho_t in (0.5, 2.0, 3.7):
            assert potentials.PsiModelParams(n=2.0, ell=4.0, rho_t=rho_t).sigma_v == abs(maxwell.ALPHA) * rho_t

    @pytest.mark.parametrize("field", ["n", "ell", "sigma_v", "c0", "c2"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, bad):
        # NaN passes every ordered comparison of the range checks, so each
        # float field is tested for finiteness when the object is built
        base = dict(n=2.0, ell=2.0)
        base[field] = bad
        with pytest.raises(ParameterError):
            ModelParams(**base)

    @pytest.mark.parametrize(
        "kw", [{"lam": math.nan}, {"lam": math.inf}, {"c1": math.nan}, {"c2": -math.inf}]
    )
    def test_non_finite_angular_factor_rejected(self, kw):
        base = dict(lam=2.0, c1=1.0, c2=0.0)
        base.update(kw)
        with pytest.raises(ParameterError):
            AngularFactor(**base)


@pytest.mark.parametrize(
    "build",
    [
        lambda: LaguerreCase(lam=math.nan, k=0, n=2.0, ell=0.0, alpha_bar=1.0),
        lambda: LaguerreCase(lam=1.0, k=0, n=2.0, ell=math.nan, alpha_bar=1.0),
        lambda: LaguerreCase(lam=3.0, k=2, n=2.0, ell=4.0, alpha_bar=math.inf),
        lambda: RadialSolution.kummer(ModelParams(n=2, ell=0), math.nan),
        lambda: RadialSolution.kummer(ModelParams(n=2, ell=0), math.inf),
        lambda: SectorDomain(3.0, math.inf, -0.2, 0.2),
        lambda: SectorDomain(1.0, 2.0, -math.inf, 0.2),
        lambda: SectorDomain(math.nan, 2.0, -0.2, 0.2),
    ],
    ids=["laguerre-lam", "laguerre-ell", "laguerre-alpha_bar", "radial-nan", "radial-inf", "sector-rho_max",
         "sector-theta_min", "sector-rho_min"],
)
def test_non_finite_model_objects_rejected(build):
    # every model object checks its float fields when it is built
    with pytest.raises(ParameterError, match="must be finite"):
        build()


class TestDensity:
    def test_gaussian_case(self):
        p = ModelParams(n=2, ell=0)
        # n=2, ell=0 is a Gaussian in the speed with F(0) = N
        assert density_F(p, 0.0) == 1.0
        zs = np.linspace(0.1, 3.0, 7)
        for z in zs:
            assert density_F(p, z) == pytest.approx(math.exp(-0.5 * (z / p.sigma_v) ** 2), rel=1e-13)

    def test_mode_location_fd_oracle(self, maxwell22):
        # F'(z*) = 0 where ell = n z*^n / (sigma_nl^n 2^(n/2))
        p = maxwell22
        zstar = p.sigma_v * (p.ell / (p.ell + 1.0)) ** (1.0 / p.n)
        s2n = p.sigma_nl ** p.n * 2.0 ** (p.n / 2.0)
        assert p.n * zstar ** p.n / s2n == pytest.approx(p.ell, rel=1e-13)
        h = 1e-7
        fd = (density_F(p, zstar + h) - density_F(p, zstar - h)) / (2.0 * h)
        assert abs(fd) < 1e-6 * density_F(p, zstar)

    def test_speed_integral_against_quadrature(self, maxwell22):
        closed = density_F_speed_integral(maxwell22)
        quad = verify.adaptive_quad(lambda z: density_F(maxwell22, z), 0.0)
        assert closed == pytest.approx(quad, rel=1e-10)
        # and the closed form is (N/n) Gamma((ell+1)/n) sigma_nl sqrt(2)
        assert closed == pytest.approx(
            gamma(3.0 / 2.0) / 2.0 * maxwell22.sigma_nl * math.sqrt(2.0), rel=1e-14
        )

    def test_negative_speed_rejected(self, maxwell22):
        with pytest.raises(DomainError, match="speed must be non-negative"):
            density_F(maxwell22, -0.1)

    def test_negative_ell_singularity(self):
        p = ModelParams(n=2, ell=-0.5)
        with pytest.raises(DomainError):
            density_F(p, 0.0)


class TestCoefficients:
    def test_h_negative_for_ell_zero(self):
        p = ModelParams(n=2, ell=0)
        for z in (0.2, 1.0, 4.0):
            assert coeff_h(p, z) < 0.0

    def test_h_needs_positive_speed(self, maxwell22):
        with pytest.raises(DomainError, match="h requires z > 0"):
            coeff_h(maxwell22, 0.0)

    def test_h_forms_agree(self, maxwell22):
        # speed form at z = |alpha| rho vs direct momentum form
        for rho in (0.3, 1.0, 1.3 * maxwell22.rho_t, 2.9):
            z = abs(ALPHA) * rho
            assert coeff_h(maxwell22, z) == pytest.approx(coeff_h_bar(maxwell22, rho), rel=1e-12)

    def test_g_zero_on_sonic_circle(self, maxwell22):
        assert coeff_g(maxwell22, maxwell22.rho_t) == pytest.approx(0.0, abs=1e-14)
        # consistency: 1 + rho^2 h_bar = g there as well
        rho_t = maxwell22.rho_t
        assert 1.0 + rho_t ** 2 * coeff_h_bar(maxwell22, rho_t) == pytest.approx(0.0, abs=1e-12)

    def test_g_small_rho_limit(self, maxwell22):
        assert coeff_g(maxwell22, 1e-9) == pytest.approx(maxwell22.ell + 1.0, rel=1e-12)

    def test_discriminant_at_twice_rho_t(self):
        # algebraic consequence of the sigma_nl tie: Delta(2 rho_T) = (ell+1)(2^n - 1)
        for n, ell in [(2, 2), (3, 0.5), (1, 4)]:
            p = ModelParams(n=n, ell=ell)
            assert discriminant(p, 2.0 * p.rho_t) == pytest.approx((ell + 1.0) * (2.0 ** n - 1.0), rel=1e-12)

    def test_g_equals_minus_delta_everywhere(self, maxwell22):
        rng = np.random.default_rng(5)
        for rho in rng.uniform(0.05, 5.0, size=50):
            assert coeff_g(maxwell22, rho) == -discriminant(maxwell22, rho)

    def test_rho_gprime_identity(self, maxwell22):
        # rho g'(rho) = n (g - 1 - ell), by central differences
        for rho in (0.7, 1.9, 3.1):
            fd = verify.fd_derivative(lambda r: coeff_g(maxwell22, r), rho, h=1e-6)
            lhs = rho * fd
            rhs = maxwell22.n * (coeff_g(maxwell22, rho) - 1.0 - maxwell22.ell)
            assert lhs == pytest.approx(rhs, rel=1e-6)


class TestClassify:
    def test_three_regions(self, maxwell22):
        rt = maxwell22.rho_t
        assert classify(maxwell22, 0.5 * rt) is RegionTag.ELLIPTIC
        assert classify(maxwell22, rt) is RegionTag.PARABOLIC
        assert classify(maxwell22, 2.0 * rt) is RegionTag.HYPERBOLIC

    def test_band_width(self, maxwell22):
        rt = maxwell22.rho_t
        assert classify(maxwell22, rt * (1.0 + 0.5 * EPS_PARABOLIC)) is RegionTag.PARABOLIC
        assert classify(maxwell22, rt * (1.0 + 10.0 * EPS_PARABOLIC)) is RegionTag.HYPERBOLIC

    def test_row_rule_at_band_edges(self, maxwell22):
        # the rule the sweeps apply to a row of radii is classify's, by
        # identity, at rho_T (1 +- EPS_PARABOLIC) and one ulp to either side
        radii = band_edge_radii(maxwell22)
        tags = [classify(maxwell22, rho) for rho in radii]
        assert set(tags) == set(RegionTag)
        got = maxwell._regions(maxwell22, np.array(radii))
        assert len(got) == len(tags) and all(g is t for g, t in zip(got, tags))

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.nan])
    def test_row_rule_keeps_domain_error(self, maxwell22, rho):
        with pytest.raises(DomainError):
            maxwell._regions(maxwell22, np.array([0.5, rho, 1.5]))

    @pytest.mark.parametrize("call", [classify, coeff_g, discriminant, coeff_h, density_F])
    def test_nan_radius_raises(self, maxwell22, call):
        with pytest.raises(DomainError):
            call(maxwell22, math.nan)

    def test_monotone_thresholds(self, maxwell22):
        # elliptic radii all below parabolic band, hyperbolic all above
        order = {RegionTag.ELLIPTIC: 0, RegionTag.PARABOLIC: 1, RegionTag.HYPERBOLIC: 2}
        tags = [order[classify(maxwell22, rho)] for rho in np.linspace(0.01, 5.0, 400)]
        assert tags == sorted(tags)


class TestNormalization:
    def test_psi_model_closed_form_4_6(self):
        sigma = 1.3
        n_const = normalization_psi_model(4.0, 6.0, sigma)
        expected_inv = (2.0 * math.pi * sigma ** 2 / 4.0) * (7.0 / 4.0) ** 0.5 * gamma(1.0)
        assert 1.0 / n_const == pytest.approx(expected_inv, rel=1e-14)

    def test_psi_model_quadrature_oracle(self):
        from hodoflow.potentials import PsiModelParams, psi_density

        pm = PsiModelParams(n=4, ell=6, sigma_r=1.3, rho_t=2.0)
        total = polar_quad(lambda r, phi: psi_density(pm, r), (0.0, math.inf), (0.0, 2.0 * math.pi), tol=1e-10)
        assert total == pytest.approx(1.0, rel=1e-8)

    def test_divergence_for_small_ell(self):
        with pytest.raises(DivergenceError):
            normalization_psi_model(2.0, 2.0, 1.0)

    def test_sector_normalization_midpoint_oracle(self):
        # N over a univalent hyperbolic sector image; re-integrated with a
        # plain midpoint rule (independent integrator) the mass must be ~1
        import math

        from hodoflow.mapping import SectorDomain, forward_map
        from hodoflow.maxwell import normalization_sector
        from hodoflow.momentum import AngularFactor, LaguerreCase, RadialSolution

        p = ModelParams(n=2, ell=0)
        case = LaguerreCase(lam=2.0, k=1, n=2.0, ell=0.0, alpha_bar=2.0)
        sol = RadialSolution.from_laguerre_case(p, case)
        fac = AngularFactor(lam=2.0, c1=0.0, c2=1.0)
        dom = SectorDomain(1.9 * p.rho_t, 2.3 * p.rho_t, -0.15, 0.15)
        n_const = normalization_sector(p, sol, fac, dom)

        m_r, m_t = 160, 80
        dr = (dom.rho_max - dom.rho_min) / m_r
        dt = (dom.theta_max - dom.theta_min) / m_t
        total = 0.0
        for i in range(m_r):
            rho = dom.rho_min + (i + 0.5) * dr
            f_val = n_const * density_F(p, abs(ALPHA) * rho)
            for j in range(m_t):
                theta = dom.theta_min + (j + 0.5) * dt
                total += f_val * abs(forward_map(p, sol, fac, rho, theta).jac_inv) * rho * dr * dt
        assert total == pytest.approx(1.0, rel=1e-3)


def _fold_split_reference(p, sol, fac, dom):
    """1 / N from nested scipy quad at epsrel = 1e-13, the theta integral of
    ``|w1^2 Theta'^2 + g w2^2 Theta^2| / rho^4`` split at its sign changes and
    the rho integral at the sign changes of ``g, w1, w2`` and of that form on
    both edges, each located by a scan and brentq."""
    integrate = pytest.importorskip("scipy.integrate")
    optimize = pytest.importorskip("scipy.optimize")

    from hodoflow.momentum import radial_row

    def parts(rho):
        r, rp, _ = radial_row(p, sol, rho)
        w1, w2, g = rho * rp - r, rho * rp - fac.lam ** 2 * r, coeff_g(p, rho)
        return w1, w2, g, lambda t: (w1 * fac.deriv(t)) ** 2 + g * (w2 * fac.value(t)) ** 2

    def roots(f, lo, hi, n_scan):
        grid = np.linspace(lo, hi, n_scan + 1)
        vals = [f(x) for x in grid]
        return [optimize.brentq(f, grid[i], grid[i + 1], xtol=1e-15)
                for i in range(n_scan) if vals[i] * vals[i + 1] < 0.0]

    def ring(rho):
        form = parts(rho)[3]
        folds = roots(form, dom.theta_min, dom.theta_max, 64)
        inner = integrate.quad(lambda t: abs(form(t)), dom.theta_min, dom.theta_max, points=folds or None,
                               epsabs=0.0, epsrel=1e-13, limit=200)[0]
        return density_F(p, abs(ALPHA) * rho) * inner / rho ** 3

    def kink_terms(rho):
        w1, w2, g, form = parts(rho)
        return w1, w2, g, form(dom.theta_min), form(dom.theta_max)

    kinks = sorted(x for k in range(5) for x in roots(lambda rho: kink_terms(rho)[k], dom.rho_min, dom.rho_max, 64))
    cuts = [dom.rho_min, *kinks, dom.rho_max]
    return math.fsum(integrate.quad(ring, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                     for a, b in zip(cuts[:-1], cuts[1:]))


def _quad_oracle(p, sol, fac, dom):
    """1 / N from nested quadrature (:func:`oracles.polar_quad`) over the scalar forward map, tol = 1e-11."""
    from hodoflow.mapping import forward_map

    def integrand(rho, theta):
        return density_F(p, abs(ALPHA) * rho) * abs(forward_map(p, sol, fac, rho, theta).jac_inv)

    return polar_quad(integrand, (dom.rho_min, dom.rho_max), (dom.theta_min, dom.theta_max), tol=1e-11)


#: name: (ell, lam, radial branch or "laguerre", c1, c2, rho in rho_T, theta in degrees), n = 2
_SECTORS = {
    "lam0-linear": (3.0, 0.0, "-", 1.0, 0.5, (0.4, 0.9), (-17.0, 23.0)),  # nu = -ell: w2 = rho R' is nonzero
    "mixed-theta": (4.0, 2.5, "+", 0.7, 1.3, (0.4, 0.9), (-10.0, 25.0)),
    "elliptic": (4.0, 2.5, "-", 1.0, 0.0, (0.4, 0.9), (5.0, 30.0)),
    "readme": (4.0, 3.0, "laguerre", 0.0, 1.0, (1.5, 1.89), (-15.0, 15.0)),
    "found": (4.0, 2.5, "+", 0.0, 1.0, (1.6, 1.7), (-20.0, 20.0)),
    "across-rho-t": (4.0, 2.5, "+", 0.7, 1.3, (0.8, 1.3), (-10.0, 25.0)),  # the folds are born at rho_T
}


def _sector_case(name):
    from hodoflow.mapping import SectorDomain
    from hodoflow.momentum import LaguerreCase, RadialSolution

    ell, lam, radial, c1, c2, rho, theta = _SECTORS[name]
    p = ModelParams(n=2, ell=ell)
    if radial == "laguerre":
        sol = RadialSolution.from_laguerre_case(p, LaguerreCase(lam=lam, k=2, n=2.0, ell=ell, alpha_bar=7.0))
    else:
        sol = RadialSolution.kummer(p, lam, branch=radial)
    dom = SectorDomain(rho[0] * p.rho_t, rho[1] * p.rho_t, math.radians(theta[0]), math.radians(theta[1]))
    return p, sol, AngularFactor(lam=lam, c1=c1, c2=c2), dom


class TestSectorNormalization:
    """normalization_sector against oracles that integrate |J^-1| numerically."""

    def test_found_sector_matches_fold_split_reference(self):
        # [1.6, 1.7] rho_T x 20 deg, kummer+ at lam = 2.5: nested adaptive
        # quadrature over the kinked integrand was off by 5.1e-7 here
        from hodoflow.maxwell import normalization_sector

        case = _sector_case("found")
        n_const = normalization_sector(*case)
        assert n_const * _fold_split_reference(*case) == pytest.approx(1.0, rel=1e-10, abs=0.0)
        assert n_const == pytest.approx(6.442614951556, rel=1e-11)

    @pytest.mark.parametrize(
        "name, oracle",
        [
            ("lam0-linear", _quad_oracle),
            ("mixed-theta", _quad_oracle),
            ("elliptic", _quad_oracle),
            ("readme", _fold_split_reference),
            ("across-rho-t", _fold_split_reference),
        ],
    )
    def test_against_oracle(self, name, oracle):
        from hodoflow.maxwell import normalization_sector

        case = _sector_case(name)
        assert normalization_sector(*case) * oracle(*case) == pytest.approx(1.0, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("n, ell, rho_min", [(2, 4, 1.2), (3, 2.5, 1.0)])
    def test_omega_chart_against_radial_quadrature(self, n, ell, rho_min):
        # Theta = 1 and Omega' = zeta_bar make |J^-1| = (ell + 1)(rho_bar^n - 1)
        # zeta_bar^2 / rho^2 at every theta: a 1-D integral in rho
        integrate = pytest.importorskip("scipy.integrate")

        from hodoflow.mapping import SectorDomain
        from hodoflow.maxwell import normalization_sector
        from hodoflow.momentum import RadialSolution

        p = ModelParams(n=n, ell=ell)
        dom = SectorDomain(rho_min * p.rho_t, 2.2 * p.rho_t, -0.4, 0.9)
        chart = (p, RadialSolution.omega(), AngularFactor(lam=0.0, c1=0.0, c2=1.0))

        def ring(rho):
            zeta_bar = p.c0 * p.rho_bar(rho) ** -(ell + 1.0) * math.exp(p.tau(rho))
            jac_inv = (ell + 1.0) * (p.rho_bar(rho) ** n - 1.0) * zeta_bar ** 2 / rho ** 2
            return density_F(p, abs(ALPHA) * rho) * jac_inv * rho

        arc = dom.theta_max - dom.theta_min
        inv = arc * integrate.quad(ring, dom.rho_min, dom.rho_max, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert normalization_sector(*chart, dom) * inv == pytest.approx(1.0, rel=1e-10, abs=0.0)

    def test_disagreeing_orders_raise(self, monkeypatch):
        # this single elliptic panel needs bisecting: the orders differ by ~8e-9
        from hodoflow import maxwell
        from hodoflow.errors import NoConvergenceError

        case = _sector_case("elliptic")
        monkeypatch.setattr(maxwell, "SECTOR_MAX_PANELS", 1)
        with pytest.raises(NoConvergenceError):
            maxwell.normalization_sector(*case)
        monkeypatch.setattr(maxwell, "SECTOR_TOL", 1e-7)
        assert maxwell.normalization_sector(*case) > 0.0

    #: values recorded from the per-row implementation; the array passes keep them within 1e-13
    RECORDED = {
        "lam0-linear": 0.002351783671494746,
        "mixed-theta": 6.449290904532349,
        "elliptic": 4.859915358612438e-08,
        "readme": 0.004125814066469144,
        "found": 6.442614951556001,
        "across-rho-t": 1.71532797961853,
    }

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_recorded_values(self, name):
        from hodoflow.maxwell import normalization_sector

        assert normalization_sector(*_sector_case(name)) == pytest.approx(self.RECORDED[name], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "radial, lam, rho, half, value",
        [
            # the fold-crossing sectors of the normalize benchmark at seed 1, Theta = cos(lam theta)
            ("laguerre", 3.0, (3.439999602731589, 3.5200026388285397), 0.10471968551958742, 0.8099713785474035),
            ("laguerre", 3.0, (3.10000117192056, 3.19999893298406), 0.2617993137562337, 0.01826790371677517),
            ("+", 2.5, (2.800000268179422, 2.9999989596945205), 0.5235991383260877, 4.150412591355085),
            ("+", 2.5, (3.3999975929634756, 3.600002513588934), 0.331612364850692, 9.74890844725355),
        ],
    )
    def test_recorded_benchmark_values(self, radial, lam, rho, half, value):
        from hodoflow.mapping import SectorDomain
        from hodoflow.maxwell import normalization_sector
        from hodoflow.momentum import LaguerreCase, RadialSolution

        p = ModelParams(n=2, ell=4)
        if radial == "laguerre":
            sol = RadialSolution.from_laguerre_case(p, LaguerreCase(lam=lam, k=2, n=2.0, ell=4.0, alpha_bar=7.0))
        else:
            sol = RadialSolution.kummer(p, lam, branch=radial)
        dom = SectorDomain(*rho, -half, half)
        n_const = normalization_sector(p, sol, AngularFactor(lam=lam, c1=0.0, c2=1.0), dom)
        assert n_const == pytest.approx(value, rel=1e-13, abs=0.0)

    def test_mismatched_lam_raises(self):
        from hodoflow.mapping import SectorDomain
        from hodoflow.maxwell import normalization_sector
        from hodoflow.momentum import RadialSolution

        p = ModelParams(n=2, ell=4)
        dom = SectorDomain(1.6 * p.rho_t, 1.7 * p.rho_t, -0.3, 0.3)
        with pytest.raises(ParameterError):
            normalization_sector(p, RadialSolution.kummer(p, 3.0), AngularFactor(lam=2.5, c1=0.0, c2=1.0), dom)

    def test_degenerate_lam_one_raises(self):
        from hodoflow.errors import DegenerateMapError
        from hodoflow.mapping import SectorDomain
        from hodoflow.maxwell import normalization_sector
        from hodoflow.momentum import RadialSolution

        p = ModelParams(n=2, ell=4)
        dom = SectorDomain(1.2 * p.rho_t, 1.4 * p.rho_t, -0.3, 0.3)
        with pytest.raises(DegenerateMapError):
            normalization_sector(p, RadialSolution.kummer(p, 1.0), AngularFactor(lam=1.0), dom)

    @pytest.mark.parametrize("constant_kind", [False, True])
    def test_constant_u_raises(self, constant_kind):
        # R = 1 (lam = 0, nu = a = 0, or the constant kind) and Theta = c2: the
        # image collapses to the origin, so there is no chart to normalize over
        from hodoflow.errors import DegenerateMapError
        from hodoflow.mapping import SectorDomain
        from hodoflow.maxwell import normalization_sector
        from hodoflow.momentum import RadialSolution

        p = ModelParams(n=2, ell=4)
        sol = RadialSolution.constant() if constant_kind else RadialSolution.kummer(p, 0.0)
        dom = SectorDomain(1.2 * p.rho_t, 1.6 * p.rho_t, -0.3, 0.3)
        with pytest.raises(DegenerateMapError):
            normalization_sector(p, sol, AngularFactor(lam=0.0, c1=0.0, c2=1.0), dom)

    def test_sector_past_z_max_raises(self):
        # tau = (5/2) rho_bar^2 passes z_max = 50 at rho_bar = sqrt(20) ~ 4.47
        from hodoflow.mapping import SectorDomain
        from hodoflow.maxwell import normalization_sector
        from hodoflow.momentum import RadialSolution

        p = ModelParams(n=2, ell=4)
        dom = SectorDomain(4.0 * p.rho_t, 5.0 * p.rho_t, -0.1, 0.1)
        with pytest.raises(DomainError):
            normalization_sector(p, RadialSolution.kummer(p, 2.5), AngularFactor(lam=2.5, c1=0.0, c2=1.0), dom)
