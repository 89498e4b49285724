"""The benchmark's inputs: the cases of each workload, made from a seed.

A case is a plain dictionary.  The seed moves every sector edge and every
command-line value by a small relative amount; the list of cases, the grid
sizes and the commands are fixed, so each run performs the same mix.  The
program receives only the values made here.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("fields-laguerre", "fields-kummer", "normalize", "cli")

#: Seconds one cycle through a workload's cases takes on the reference host.
#: The number of whole cycles a run performs is ``round(seconds / this)``, so
#: it is fixed by ``--seconds`` alone and the same on every commit.
NOMINAL_CYCLE_S = {
    "fields-laguerre": 0.5,
    "fields-kummer": 1.9,
    "normalize": 2.2,
    "cli": 18.0,
}

#: (n_rho, n_theta); the odd theta count puts theta = 0 on the grid.
FIELDS_GRID = (40, 41)

# Sector templates: rho in units of rho_T, theta half-width in degrees.
_LAGUERRE = [
    # README case, hyperbolic sector crossed by a fold
    dict(id="readme-hyp-fold", n=2.0, ell=4.0, lam=3.0, radial="laguerre", k=2, fc1=0.0, fc2=1.0,
         rho=(1.5, 1.89), half_deg=15.0),
    # README case, elliptic sector cut by the nodal line theta = 0 of sin(3 theta)
    dict(id="readme-ell-node", n=2.0, ell=4.0, lam=3.0, radial="laguerre", k=2, fc1=1.0, fc2=0.0,
         rho=(0.4, 0.9), half_deg=20.0),
    dict(id="l4k4-hyp", n=2.0, ell=6.0, lam=4.0, radial="laguerre", k=4, fc1=0.0, fc2=1.0,
         rho=(1.2, 1.6), half_deg=10.0),
    dict(id="n1-ell", n=1.0, ell=5.0, lam=2.0, radial="laguerre", k=1, fc1=0.0, fc2=1.0,
         rho=(0.5, 0.95), half_deg=20.0),
]

# lam = 2.5 at (n, ell) = (2, 4): the Kummer series do not terminate.  The
# tricomi+ sector ends at tau = 20 (see CHANGES.md: Psi loses digits beyond).
_KUMMER = [
    dict(id="kummer+-hyp", n=2.0, ell=4.0, lam=2.5, radial="kummer+", fc1=0.0, fc2=1.0,
         rho=(1.2, 1.8), half_deg=12.0),
    dict(id="kummer--ell-node", n=2.0, ell=4.0, lam=2.5, radial="kummer-", fc1=1.0, fc2=0.0,
         rho=(0.4, 0.9), half_deg=12.0),
    dict(id="tricomi+-hyp-fold", n=2.0, ell=4.0, lam=2.5, radial="tricomi+", fc1=0.0, fc2=1.0,
         rho=(1.5, 2.8), half_deg=12.0),
    dict(id="tricomi--ell", n=2.0, ell=4.0, lam=2.5, radial="tricomi-", fc1=0.0, fc2=1.0,
         rho=(0.3, 0.9), half_deg=12.0),
]

# Sectors crossed by a fold; Theta = cos(lam theta) (c1 = 0) everywhere.
_NORMALIZE = [
    dict(id="readme-fold-a", n=2.0, ell=4.0, lam=3.0, radial="laguerre", k=2, fc1=0.0, fc2=1.0,
         rho=(1.72, 1.76), half_deg=6.0),
    dict(id="readme-fold-b", n=2.0, ell=4.0, lam=3.0, radial="laguerre", k=2, fc1=0.0, fc2=1.0,
         rho=(1.55, 1.60), half_deg=15.0),
    dict(id="kummer+-fold-a", n=2.0, ell=4.0, lam=2.5, radial="kummer+", fc1=0.0, fc2=1.0,
         rho=(1.4, 1.5), half_deg=30.0),
    dict(id="kummer+-fold-b", n=2.0, ell=4.0, lam=2.5, radial="kummer+", fc1=0.0, fc2=1.0,
         rho=(1.7, 1.8), half_deg=19.0),
]

RHO_T = 2.0  # sigma_v / |alpha| at the program's default units


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return value * (1.0 + rel * (2.0 * rng.random() - 1.0))


def _sector_cases(templates: list, rng: random.Random, rel: float, grid) -> list[dict]:
    out = []
    for tpl in templates:
        case = {k: v for k, v in tpl.items() if k not in ("rho", "half_deg")}
        lo, hi = (_jitter(rng, v, rel) for v in tpl["rho"])
        half = math.radians(_jitter(rng, tpl["half_deg"], rel))
        case.update(rho_min=lo * RHO_T, rho_max=hi * RHO_T, theta_min=-half, theta_max=half)
        if grid is not None:
            case["grid"] = list(grid)
        out.append(case)
    return out


def _cli_cases(rng: random.Random) -> list[dict]:
    def j(value: float, rel: float = 0.01) -> str:
        return repr(round(_jitter(rng, value, rel), 6))

    ell = rng.choice((2.0, 4.0))
    rho_bars = [j(v) for v in (0.5, 0.8, 1.4, 2.2)]
    lam_last = rng.choice((4, 5))
    rho_lo, rho_hi, th_lo, th_hi = j(1.5), j(1.89), j(-15.0), j(15.0)
    sector = ["--rho-min", rho_lo, "--rho-max", rho_hi, "--theta-min", th_lo, "--theta-max", th_hi]
    model = ["--n", "2", "--ell", "4", "--lambda", "3"]
    # what map-fields evaluates: the regular Kummer branch with Theta = cos(3 theta)
    fields = dict(n=2.0, ell=4.0, lam=3.0, radial="kummer+", fc1=0.0, fc2=1.0,
                  rho_min=float(rho_lo) * RHO_T, rho_max=float(rho_hi) * RHO_T,
                  theta_min=math.radians(float(th_lo)), theta_max=math.radians(float(th_hi)))
    sm_lo, sm_hi = j(0.3), j(2.0)
    return [
        dict(id="classify", argv=["classify", "--n", "2", "--ell", repr(ell), "--rho", ",".join(rho_bars)],
             n=2.0, ell=ell, rho_bars=[float(v) for v in rho_bars]),
        dict(id="characteristics",
             argv=["characteristics", "--n", "2", "--ell", repr(ell), "--rho", ",".join(rho_bars)],
             n=2.0, ell=ell, rho_bars=[float(v) for v in rho_bars]),
        dict(id="laguerre-enum", argv=["laguerre-enum", "--n", "2", "--lambda", f"2,3,{lam_last}"],
             n=2.0, lams=[2.0, 3.0, float(lam_last)]),
        # solve-momentum defaults: kummer+, Theta = sin(lam theta), 16 x 16, theta in [0, 60] degrees
        dict(id="solve-momentum", argv=["solve-momentum", *model, "--rho-min", sm_lo, "--rho-max", sm_hi,
                                        "--output", "u.csv"],
             fields=dict(n=2.0, ell=4.0, lam=3.0, radial="kummer+", fc1=1.0, fc2=0.0,
                         rho_min=float(sm_lo) * RHO_T, rho_max=float(sm_hi) * RHO_T,
                         theta_min=0.0, theta_max=math.radians(60.0), grid=[16, 16])),
        dict(id="map-fields", argv=["map-fields", *model, *sector, "--output", "fields.csv"],
             fields=dict(fields, grid=[24, 24])),
        dict(id="map-fields-repeat", argv=["map-fields", *model, *sector, "--output", "fields_repeat.csv"],
             repeats="map-fields"),
        dict(id="map-fields-64", argv=["map-fields", *model, *sector, "--n-rho", "64", "--n-theta", "64",
                                       "--output", "fields64.csv"],
             fields=dict(fields, grid=[64, 64])),
        dict(id="psi-model", argv=["psi-model", "--n", "4", "--ell", "6", "--regime", "two-zeros",
                                   "--sigma-r", j(1.0), "--output", "psi.csv"]),
        dict(id="verify-all", argv=["verify", "all", "--output", "report.json"]),
    ]


def make_cases(workload: str, seed: int) -> list[dict]:
    """The cases of one cycle, in the order they run."""
    rng = _rng(workload, seed)
    if workload == "fields-laguerre":
        return _sector_cases(_LAGUERRE, rng, 0.005, FIELDS_GRID)
    if workload == "fields-kummer":
        return _sector_cases(_KUMMER, rng, 0.005, FIELDS_GRID)
    if workload == "normalize":
        # adaptive quadrature's cost jumps with the sector edges (0.24-0.87 s
        # for one case under 0.2 % moves), so these move by 1e-6 only
        return _sector_cases(_NORMALIZE, rng, 1e-6, None)
    if workload == "cli":
        return _cli_cases(rng)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))
