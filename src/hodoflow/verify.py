"""Independent numerical oracles and residual reports.

Nothing here reuses the closed forms it checks: derivatives come from
central-difference stencils, integrals from adaptive quadrature
(scipy.integrate behind this module's contract), and coordinate-space
residuals from finite differences over charts reconstructed point-by-point
with the numerical inverse map.  Reports are deterministic for fixed grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from . import mapping
from .errors import DomainError, NodeError, NoConvergenceError, ParameterError
from .maxwell import ModelParams, coeff_h
from .mapping import SectorDomain
from .momentum import AngularFactor, RadialSolution

_EPS = float(np.finfo(float).eps)

#: Default steps from the truncation/roundoff balance, relative to the scale
#: of the differentiated variable.
FD_STEP_FIRST = math.sqrt(_EPS)
FD_STEP_SECOND = _EPS ** (1.0 / 3.0)

#: Stencil step of :func:`pde_residual_coordinate`, relative to the probe radius.
COORD_H_REL = 1e-3


@dataclass(frozen=True)
class VerificationReport:
    """Residual statistics of one oracle check.

    ``max_abs`` and ``rms`` are already normalized when the check uses
    per-point scales; a report passes iff ``max_abs <= tol``.
    ``skipped_points`` counts flagged nodes and degenerate points, which must
    stay below 5% of the grid.
    """

    name: str
    grid_spec: str
    max_abs: float
    rms: float
    tol: float
    skipped_points: int = 0
    total_points: int = 0

    @property
    def passed(self) -> bool:
        ok = self.max_abs <= self.tol
        if self.total_points > 0:
            ok = ok and self.skipped_points <= 0.05 * self.total_points
        return ok

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "grid_spec": self.grid_spec,
            "max_abs": self.max_abs,
            "rms": self.rms,
            "tol": self.tol,
            "pass": self.passed,
            "skipped_points": self.skipped_points,
        }


def report_from_residuals(
    name: str,
    grid_spec: str,
    residuals: Sequence[float],
    tol: float,
    skipped: int = 0,
    total: int | None = None,
) -> VerificationReport:
    arr = np.asarray(residuals, dtype=float)  # a non-finite residual fails the report
    if arr.size == 0:
        return VerificationReport(name, grid_spec, math.inf, math.inf, tol, skipped, total or skipped)
    return VerificationReport(
        name=name,
        grid_spec=grid_spec,
        max_abs=float(np.max(np.abs(arr))),
        rms=float(np.sqrt(np.mean(arr ** 2))),
        tol=tol,
        skipped_points=skipped,
        total_points=total if total is not None else arr.size + skipped,
    )


def fd_derivative(f: Callable[[float], float], x: float, order: int = 1, h: float | None = None) -> float:
    """Central-difference derivative of a scalar function, O(h^2) truncation."""
    if order == 1:
        hh = h if h is not None else FD_STEP_FIRST * max(abs(x), 1.0)
        return (f(x + hh) - f(x - hh)) / (2.0 * hh)
    if order == 2:
        hh = h if h is not None else FD_STEP_SECOND * max(abs(x), 1.0)
        return (f(x + hh) - 2.0 * f(x) + f(x - hh)) / hh ** 2
    raise ParameterError(f"order must be 1 or 2, got {order}")


def adaptive_quad(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive quadrature with an explicit 1/r tail substitution for b = inf."""
    if math.isinf(b):
        cut = max(2.0 * abs(a), a + 1.0, 1.0)
        head, err1 = integrate.quad(f, a, cut, epsabs=tol, epsrel=tol, limit=300)
        tail, err2 = integrate.quad(
            lambda t: f(1.0 / t) / t ** 2, 0.0, 1.0 / cut, epsabs=tol, epsrel=tol, limit=300
        )
        value, err = head + tail, err1 + err2
    else:
        value, err = integrate.quad(f, a, b, epsabs=tol, epsrel=tol, limit=300)
    if err > 50.0 * max(tol, tol * abs(value)) + 1e-300:
        raise NoConvergenceError(f"quadrature error estimate {err:.2e} too large for tol {tol:.2e}")
    return value


def quad2d_polar(
    f: Callable[[float, float], float],
    r_range: tuple[float, float],
    phi_range: tuple[float, float],
    tol: float = 1e-9,
) -> float:
    """Iterated adaptive quadrature of f over the polar measure r dr dphi."""
    r_lo, r_hi = r_range

    def ring(r: float) -> float:
        inner, _ = integrate.quad(lambda p: f(r, p), phi_range[0], phi_range[1], epsabs=tol, epsrel=tol, limit=200)
        return inner * r

    return adaptive_quad(ring, r_lo, r_hi, tol=tol)


# ---------------------------------------------------------------------------
# PDE residuals
# ---------------------------------------------------------------------------

def _momentum_residual_at(
    params: ModelParams,
    u_fn: Callable[[float, float], float],
    rho: float,
    theta: float,
    h_rho: float,
    h_theta: float,
) -> float:
    from .maxwell import coeff_g

    u_c = u_fn(rho, theta)
    u_up, u_down = u_fn(rho + h_rho, theta), u_fn(rho - h_rho, theta)
    u_rr = (u_up - 2.0 * u_c + u_down) / h_rho ** 2
    u_r = (u_up - u_down) / (2.0 * h_rho)
    u_tt = (u_fn(rho, theta + h_theta) - 2.0 * u_c + u_fn(rho, theta - h_theta)) / h_theta ** 2
    g = coeff_g(params, rho)
    t1 = u_rr
    t2 = g * u_r / rho
    t3 = g * u_tt / rho ** 2
    scale = max(abs(t1), abs(t2), abs(t3), (params.ell + 1.0) * abs(u_c) / rho ** 2, 1e-300)
    return (t1 + t2 + t3) / scale


def _residuals(points, residual_at: Callable[..., float]) -> tuple[list[float], int]:
    """Residuals at each point; points where one raises NodeError or
    DomainError are counted as skipped instead."""
    residuals, skipped = [], 0
    for point in points:
        try:
            residuals.append(residual_at(*point))
        except (NodeError, DomainError):
            skipped += 1
    return residuals, skipped


def _h_sweep_report(name: str, grid_spec: str, coarse: Sequence[float], fine: Sequence[float],
                    tol: float, skipped: int, total: int) -> VerificationReport:
    """Report on the fine sweep.  Unless halving h at least halved the worst
    residual (or both sweeps stay below tol / 10), the residual is not
    truncation error: the report fails with ``max_abs = inf`` and a
    ``[no-shrink]`` note."""
    report = report_from_residuals(name, grid_spec + " (h-sweep)", fine, tol, skipped, total)
    worst_coarse = max((abs(r) for r in coarse), default=math.inf)
    worst_fine = max((abs(r) for r in fine), default=math.inf)
    if worst_fine <= worst_coarse / 2.0 or max(worst_coarse, worst_fine) <= 0.1 * tol:
        return report
    return replace(report, grid_spec=report.grid_spec + " [no-shrink]", max_abs=math.inf)


def pde_residual_momentum(
    params: ModelParams,
    u_fn: Callable[[float, float], float],
    domain: SectorDomain,
    grid: tuple[int, int],
    tol: float = 1e-5,
    name: str = "momentum-pde",
) -> VerificationReport:
    """Finite-difference residual of the polar momentum-space equation.

    ``u_rr + g (u_r / rho + u_tt / rho^2)`` normalized per point by the
    largest term magnitude.  The steps, ``2e-4 rho_T`` and ``2e-4``, are
    truncation-dominated.
    """
    hr, ht = 2e-4 * params.rho_t, 2e-4
    points = [(float(rho), float(theta))
              for rho in np.linspace(domain.rho_min, domain.rho_max, grid[0])
              for theta in np.linspace(domain.theta_min, domain.theta_max, grid[1])]
    residuals, skipped = _residuals(points, lambda rho, theta: _momentum_residual_at(
        params, u_fn, rho, theta, hr, ht))
    grid_note = f"{grid[0]}x{grid[1]} rho[{domain.rho_min:.4g},{domain.rho_max:.4g}] h={hr:.2e}"
    return report_from_residuals(name, grid_note, residuals, tol, skipped, len(points))


def chart_phi_fn(
    params: ModelParams,
    sol: RadialSolution,
    fac: AngularFactor,
    seed: mapping.MomentumPoint,
) -> Callable[[float, float], float]:
    """Phase Phi as a function of coordinates on one univalent leaf.

    Each call inverts the map by Newton iteration, reusing the previous
    solution as the next seed, so stencil sweeps stay on the seed's leaf.
    """
    state = {"seed": mapping.MomentumPoint(*seed)}

    def phi_at(x: float, y: float) -> float:
        mp = mapping.invert_map(params, sol, fac, (x, y), state["seed"])
        state["seed"] = mp
        return mapping.forward_map(params, sol, fac, mp.rho, mp.theta).phi_val

    return phi_at


def coordinate_pde_residual_at(
    params: ModelParams,
    phi_at: Callable[[float, float], float],
    x0: float,
    y0: float,
    h: float,
) -> float:
    """Residual of the quasilinear coordinate-space equation at one point.

    All five second-order stencil combinations are taken from a 3x3 patch of
    Phi values; the coefficient h_{n,ell} is evaluated at the local speed
    |alpha grad Phi|.
    """
    patch = {}
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            patch[(i, j)] = phi_at(x0 + i * h, y0 + j * h)
    phi_x = (patch[(1, 0)] - patch[(-1, 0)]) / (2.0 * h)
    phi_y = (patch[(0, 1)] - patch[(0, -1)]) / (2.0 * h)
    phi_xx = (patch[(1, 0)] - 2.0 * patch[(0, 0)] + patch[(-1, 0)]) / h ** 2
    phi_yy = (patch[(0, 1)] - 2.0 * patch[(0, 0)] + patch[(0, -1)]) / h ** 2
    phi_xy = (patch[(1, 1)] - patch[(1, -1)] - patch[(-1, 1)] + patch[(-1, -1)]) / (4.0 * h ** 2)
    speed = abs(params.alpha) * math.hypot(phi_x, phi_y)
    h_coef = coeff_h(params, speed)
    t1 = (1.0 + phi_x ** 2 * h_coef) * phi_xx
    t2 = 2.0 * h_coef * phi_x * phi_y * phi_xy
    t3 = (1.0 + phi_y ** 2 * h_coef) * phi_yy
    scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
    return (t1 + t2 + t3) / scale


def pde_residual_coordinate(
    params: ModelParams,
    phi_at: Callable[[float, float], float],
    probes: Sequence[tuple[float, float]],
    tol: float = 1e-3,
    name: str = "coordinate-pde",
) -> VerificationReport:
    """Quasilinear-equation residual at coordinate probe points, with h-sweep.

    The stencil step is ``COORD_H_REL`` times the probe's radius, then half
    of it.  ``probes`` are coordinate points strictly inside a univalent leaf
    with the inverse Jacobian bounded away from zero; fold events propagate.
    """

    def sweep(factor: float) -> tuple[list[float], int]:
        return _residuals(probes, lambda x0, y0: coordinate_pde_residual_at(
            params, phi_at, x0, y0, COORD_H_REL * factor * max(math.hypot(x0, y0), 1e-6)))

    coarse, _ = sweep(1.0)
    fine, skipped = sweep(0.5)
    note = f"{len(probes)} probes h_rel={COORD_H_REL:.1e}"
    return _h_sweep_report(name, note, coarse, fine, tol, skipped, len(probes))
