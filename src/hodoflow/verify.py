"""Independent numerical oracles and residual reports.

Nothing here reuses the closed forms it checks: derivatives come from
central-difference stencils, integrals from adaptive quadrature
(scipy.integrate behind this module's contract), and coordinate-space
residuals from finite differences over charts reconstructed point-by-point
with the numerical inverse map.  Reports are deterministic for fixed grids.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from . import mapping, specfun
from .errors import DomainError, NodeError, NoConvergenceError
from .maxwell import ModelParams, _g, coeff_h
from .mapping import SectorDomain
from .momentum import AngularFactor, RadialSolution

#: Stencil step of :func:`pde_residual_coordinate`, relative to the probe
#: radius; the tolerances of its report, of :func:`pde_residual_momentum`'s
#: report and (absolute and relative) of :func:`adaptive_quad`.
COORD_H_REL = 1e-3
COORD_TOL = 1e-3
MOMENTUM_TOL = 1e-5
QUAD_TOL = 1e-10


@dataclass(frozen=True)
class VerificationReport:
    """Residual statistics of one oracle check.

    ``max_abs`` and ``rms`` are already normalized when the check uses
    per-point scales; a report passes iff ``max_abs <= tol``.
    ``skipped_points`` counts flagged nodes and degenerate points, which must
    stay within 5% of ``total_points``.
    """

    name: str
    grid_spec: str
    max_abs: float
    rms: float
    tol: float
    skipped_points: int
    total_points: int

    @property
    def passed(self) -> bool:
        return self.max_abs <= self.tol and self.skipped_points <= 0.05 * self.total_points

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


def fd_derivative(f: Callable[[float], float], x: float, h: float) -> float:
    """Central first difference of a scalar function with step h, O(h^2) truncation."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def adaptive_quad(f: Callable[[float], float], a: float) -> float:
    """Adaptive quadrature over [a, inf) to ``QUAD_TOL``: quad on [a, cut]
    plus the tail (cut, inf) through the substitution r = 1/t.  :class:`NoConvergenceError`
    where quad reports a failure on either piece (its message is issued first
    as an ``IntegrationWarning``) or the summed error estimate is too large."""
    cut = max(2.0 * abs(a), a + 1.0, 1.0)
    opts = dict(epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=300, full_output=1)
    head, err1, _, *failed = integrate.quad(f, a, cut, **opts)
    tail, err2, _, *tail_failed = integrate.quad(lambda t: f(1.0 / t) / t ** 2, 0.0, 1.0 / cut, **opts)
    failed += tail_failed  # quad appends its message only where it reports a failure (ier > 0)
    if failed:
        warnings.warn(failed[0], integrate.IntegrationWarning, stacklevel=2)
        raise NoConvergenceError(f"quadrature failed with error estimate {err1 + err2:.2e}: {failed[0]}")
    value, err = head + tail, err1 + err2
    if err > 50.0 * max(QUAD_TOL, QUAD_TOL * abs(value)) + 1e-300:
        raise NoConvergenceError(f"quadrature error estimate {err:.2e} too large for tol {QUAD_TOL:.2e}")
    return value


# ---------------------------------------------------------------------------
# PDE residuals
# ---------------------------------------------------------------------------

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
    u_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    domain: SectorDomain,
    grid: tuple[int, int],
    name: str,
) -> VerificationReport:
    """Finite-difference residual of the polar momentum-space equation,
    against the tolerance ``MOMENTUM_TOL``.

    ``u_rr + g (u_r / rho + u_tt / rho^2)`` normalized per point by the
    largest term magnitude.  The steps, ``2e-4 rho_T`` and ``2e-4``, are
    truncation-dominated.  ``name`` labels the report.

    ``u_fn`` is called 5 times, once per stencil offset, on a rho column
    ``(n_rho, 1)`` and a theta row ``(n_theta,)``, and returns u broadcast over
    that grid (a float broadcasts too).  A point is skipped where one of its
    five u values is NaN; a non-finite residual elsewhere fails the report.
    """
    hr, ht = 2e-4 * params.rho_t, 2e-4
    rho = np.linspace(domain.rho_min, domain.rho_max, grid[0])[:, None]
    theta = np.linspace(domain.theta_min, domain.theta_max, grid[1])
    stencil = [np.broadcast_to(np.asarray(u_fn(r, t), dtype=float), (rho.size, theta.size))
               for r, t in ((rho, theta), (rho + hr, theta), (rho - hr, theta), (rho, theta + ht), (rho, theta - ht))]
    kept = ~np.any(np.isnan(stencil), axis=0)
    u_c, u_up, u_down, u_t_up, u_t_down = stencil
    rho2 = specfun._power(rho, 2)  # Python's power: NumPy's square can differ in the last bit
    with np.errstate(all="ignore"):
        t1 = (u_up - 2.0 * u_c + u_down) / hr ** 2
        u_r = (u_up - u_down) / (2.0 * hr)
        u_tt = (u_t_up - 2.0 * u_c + u_t_down) / ht ** 2
        g = _g(params, rho)
        t2 = g * u_r / rho
        t3 = g * u_tt / rho2
        scale = np.max([np.abs(t1), np.abs(t2), np.abs(t3), (params.ell + 1.0) * np.abs(u_c) / rho2], axis=0)
        residuals = (t1 + t2 + t3) / np.maximum(scale, 1e-300)
    grid_note = f"{grid[0]}x{grid[1]} rho[{domain.rho_min:.4g},{domain.rho_max:.4g}] h={hr:.2e}"
    return report_from_residuals(name, grid_note, residuals[kept], MOMENTUM_TOL, int((~kept).sum()), kept.size)


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
        return mapping.forward_map(params, sol, fac, mp.rho, mp.theta).phi

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
) -> VerificationReport:
    """Quasilinear-equation residual at coordinate probe points, with h-sweep,
    against the tolerance ``COORD_TOL``.

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
    return _h_sweep_report("coordinate-pde", note, coarse, fine, COORD_TOL, skipped, len(probes))
