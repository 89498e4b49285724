"""Command-line front end.

Subcommands: classify, characteristics, laguerre-enum, solve-momentum,
map-fields, psi-model, verify.  Momentum radii are given in units of the
sonic radius rho_T, angles in degrees; vortex-model radii are in units of
sigma_r.  CSV output uses '.' decimals, ',' separators, Unix newlines, a
mandatory header row, and 17-significant-digit floats, so identical configs
produce byte-identical files.  Exit codes: 0 ok, 1 usage, 2 degenerate map,
3 fold/multivalence, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

from . import momentum, suites
from .errors import (
    DegenerateMapError,
    DivergenceError,
    DomainError,
    FoldError,
    HodoflowError,
    ParameterError,
    RegionError,
    UnivalenceWarning,
)
from .mapping import FieldSample, SectorDomain, sample_fields
from .maxwell import ModelParams, classify, coeff_g, discriminant, normalization_sector
from .momentum import (
    AngularFactor,
    CharacteristicKind,
    RadialKind,
    RadialSolution,
    canonical_kappa,
    characteristic_chi,
    laguerre_enumerate,
    laguerre_enumerate_for_ell,
    slope_rho_theta,
)
from .potentials import (
    PsiModelParams,
    circulation_quantum,
    potential_zeros,
    psi_classical_potential,
    psi_density,
    psi_quantum_potential,
    psi_velocity,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DEGENERATE = 2
EXIT_FOLD = 3
EXIT_VERIFY = 4

_RADIAL_CHOICES = ("kummer+", "kummer-", "tricomi+", "tricomi-", "omega", "constant")


class _Parser(argparse.ArgumentParser):
    """argparse variant that reserves exit code 1 for usage errors."""

    def error(self, message):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0.0:
            value = 0.0  # collapse -0.0 for stable output
        return "%.17g" % value
    return str(value)


def _echo_lines(config: dict) -> list[str]:
    return [f"# {key} = {_fmt(config[key])}" for key in sorted(config)]


def _csv_lines(rows: list[tuple]) -> list[str]:
    return [",".join(_fmt(v) for v in row) for row in rows]


def _write_csv(path: Path, config: dict, columns: tuple, body: list[str]) -> None:
    """Echoed config, header and the already formatted data lines ``body``."""
    lines = [*_echo_lines(config), ",".join(columns), *body]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_sidecar(path: Path, config: dict, summary: dict) -> None:
    payload = {"config": {k: config[k] for k in sorted(config)}, "summary": summary}
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n")


def _load_config_file(path: str) -> dict:
    """Flat ``key = value`` text, UTF-8, '#' comments."""
    out = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"bad config line (expected 'key = value'): {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = value
    return out


def _resolve(args, file_keys: dict, name: str, cast, default=None):
    """Flag wins over config file, which wins over the default."""
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    if name in file_keys:
        return cast(file_keys[name])
    return default


def _params_from(args, cfg) -> ModelParams:
    return ModelParams(
        n=_resolve(args, cfg, "n", float, 2.0),
        ell=_resolve(args, cfg, "ell", float, 0.0),
        sigma_v=_resolve(args, cfg, "sigma_v", float, 1.0),
        alpha=_resolve(args, cfg, "alpha", float, -0.5),
        beta=_resolve(args, cfg, "beta", float, 1.0),
        c0=_resolve(args, cfg, "c0", float, 1.0),
        c1=_resolve(args, cfg, "c1", float, 1.0),
        c2=_resolve(args, cfg, "c2", float, 0.0),
    )


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    params = ModelParams(n=args.n, ell=args.ell, sigma_v=args.sigma_v)
    print("rho_bar,Delta,g,region")
    for rho_bar in _float_list(args.rho):
        rho = rho_bar * params.rho_t
        print(
            ",".join(
                [
                    _fmt(rho_bar),
                    _fmt(discriminant(params, rho)),
                    _fmt(coeff_g(params, rho)),
                    str(classify(params, rho)),
                ]
            )
        )
    return EXIT_OK


def cmd_characteristics(args) -> int:
    params = ModelParams(n=args.n, ell=args.ell, sigma_v=args.sigma_v)
    print("rho_bar,region,chi_plus_at_theta0,slope_drho_dtheta,kappa")
    for rho_bar in _float_list(args.rho):
        rho = rho_bar * params.rho_t
        region = classify(params, rho)
        if region.value == "hyperbolic":
            kind, branch = CharacteristicKind.HYPERBOLIC_PLUS, "hyperbolic"
        else:
            kind, branch = CharacteristicKind.ELLIPTIC_PLUS, "elliptic"
        chi = characteristic_chi(params, kind, rho, math.radians(args.theta0))
        slope = slope_rho_theta(params, rho)
        try:
            kappa = canonical_kappa(params, rho, branch)
        except HodoflowError:
            kappa = math.nan
        print(",".join([_fmt(rho_bar), region.value, _fmt(chi), _fmt(slope), _fmt(kappa)]))
    return EXIT_OK


def cmd_laguerre_enum(args) -> int:
    print("lam,lam_squared,k,ell,alpha_bar")
    if args.ell_fixed is not None:
        rows = laguerre_enumerate_for_ell(args.n, args.ell_fixed, k_max=args.k_max)
    else:
        if not args.lam:
            raise ParameterError("either --lambda or --ell-fixed is required")
        rows = laguerre_enumerate(args.n, _float_list(args.lam), ell_max=args.ell_max)
    for case in rows:
        print(
            ",".join(
                [_fmt(case.lam), _fmt(case.lam ** 2), str(case.k), _fmt(case.ell), _fmt(case.alpha_bar)]
            )
        )
    return EXIT_OK


def _build_solution(params: ModelParams, radial: str, lam: float) -> RadialSolution:
    if radial == "omega":
        return RadialSolution.omega()
    if radial == "constant":
        return RadialSolution.constant()
    branch = "+" if radial.endswith("+") else "-"
    return RadialSolution.kummer(params, lam, branch=branch, tricomi=radial.startswith("tricomi"))


def _separated_model(args, cfg_file: dict, fc1: float, fc2: float):
    """``(params, radial, sol, fac)`` of the separated solution a command
    evaluates; ``fc1``, ``fc2`` are the command's angular defaults."""
    params = _params_from(args, cfg_file)
    radial = _resolve(args, cfg_file, "radial", str, "kummer+")
    sol = _build_solution(params, radial, _resolve(args, cfg_file, "lam", float, 2.0))
    if sol.kind is RadialKind.HYPERBOLIC_OMEGA:
        # matched c1: Omega' = zeta_bar, so rho maps to radius zeta_bar(rho)
        params = params.with_(c1=momentum.omega_matched_c1(params))
    fac = AngularFactor(lam=sol.lam, c1=_resolve(args, cfg_file, "fc1", float, fc1) or 0.0,
                        c2=_resolve(args, cfg_file, "fc2", float, fc2))
    return params, radial, sol, fac


def cmd_solve_momentum(args) -> int:
    cfg_file = _load_config_file(args.config) if args.config else {}
    params, radial, sol, fac = _separated_model(args, cfg_file, fc1=1.0, fc2=0.0)
    rho_lo_bar = _resolve(args, cfg_file, "rho_min", float, 0.3)
    rho_hi_bar = _resolve(args, cfg_file, "rho_max", float, 2.0)
    th_lo_deg = _resolve(args, cfg_file, "theta_min_deg", float, 0.0)
    th_hi_deg = _resolve(args, cfg_file, "theta_max_deg", float, 60.0)
    rho_lo, rho_hi = rho_lo_bar * params.rho_t, rho_hi_bar * params.rho_t
    th_lo, th_hi = math.radians(th_lo_deg), math.radians(th_hi_deg)
    n_rho = _resolve(args, cfg_file, "n_rho", int, 16)
    n_theta = _resolve(args, cfg_file, "n_theta", int, 16)
    config = {
        "command": "solve-momentum", "n": params.n, "ell": params.ell, "sigma_v": params.sigma_v,
        "alpha": params.alpha, "beta": params.beta, "c0": params.c0, "c1": params.c1, "c2": params.c2,
        "radial": radial, "lam": sol.lam, "fc1": fac.c1, "fc2": fac.c2,
        "rho_min": rho_lo_bar, "rho_max": rho_hi_bar,
        "theta_min_deg": th_lo_deg, "theta_max_deg": th_hi_deg,
        "n_rho": n_rho, "n_theta": n_theta,
    }
    thetas = [th_lo + (th_hi - th_lo) * j / (n_theta - 1) for j in range(n_theta)]
    angular = [fac.value(theta) for theta in thetas]
    rhos = [rho_lo + (rho_hi - rho_lo) * i / (n_rho - 1) for i in range(n_rho)]
    rows = []
    # a row the radial factor cannot be evaluated at is nan, as map-fields flags it
    for rho, r_val in zip(rhos, momentum.radial_rows(params, sol, rhos)[0].tolist()):
        region = classify(params, rho).value
        rows.extend((rho / params.rho_t, theta, r_val * t_val, r_val, t_val, region)
                    for theta, t_val in zip(thetas, angular))
    out = Path(args.output)
    _write_csv(out, config, ("rho_bar", "theta", "u", "radial", "angular", "region"), _csv_lines(rows))
    summary = {"rows": len(rows), "out_of_range_rows": sum(math.isnan(row[3]) for row in rows)}
    _write_sidecar(out.with_suffix(out.suffix + ".json"), config, summary)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_map_fields(args) -> int:
    cfg_file = _load_config_file(args.config) if args.config else {}
    params, radial, sol, fac = _separated_model(args, cfg_file, fc1=0.0, fc2=1.0)
    rho_lo_bar = _resolve(args, cfg_file, "rho_min", float, 1.8)
    rho_hi_bar = _resolve(args, cfg_file, "rho_max", float, 2.4)
    th_lo_deg = _resolve(args, cfg_file, "theta_min_deg", float, -12.0)
    th_hi_deg = _resolve(args, cfg_file, "theta_max_deg", float, 12.0)
    rho_lo, rho_hi = rho_lo_bar * params.rho_t, rho_hi_bar * params.rho_t
    th_lo, th_hi = math.radians(th_lo_deg), math.radians(th_hi_deg)
    n_rho = _resolve(args, cfg_file, "n_rho", int, 24)
    n_theta = _resolve(args, cfg_file, "n_theta", int, 24)
    normalize = bool(int(_resolve(args, cfg_file, "normalize", int, 0)))
    domain = SectorDomain(rho_lo, rho_hi, th_lo, th_hi)
    config = {
        "command": "map-fields", "n": params.n, "ell": params.ell, "sigma_v": params.sigma_v,
        "alpha": params.alpha, "beta": params.beta, "c0": params.c0, "c1": params.c1, "c2": params.c2,
        "radial": radial, "lam": sol.lam, "fc1": fac.c1, "fc2": fac.c2,
        "rho_min": rho_lo_bar, "rho_max": rho_hi_bar,
        "theta_min_deg": th_lo_deg, "theta_max_deg": th_hi_deg,
        "n_rho": n_rho, "n_theta": n_theta, "normalize": int(normalize), "format": "csv",
        "require_univalent": int(bool(args.require_univalent)),
    }
    norm = normalization_sector(params, sol, fac, domain) if normalize else 1.0
    univalent = True
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        samples = sample_fields(params, sol, fac, domain, (n_rho, n_theta), norm=norm)
    if any(issubclass(w.category, UnivalenceWarning) for w in caught):
        univalent = False
        message = (
            "the grid spans a fold of the transform (inverse Jacobian changes sign); "
            "the image is not a single leaf"
        )
        if args.require_univalent:
            raise FoldError(message)
        print(f"warning: {message}", file=sys.stderr)
    out = Path(args.output)
    # one %-format per row, a column at a time: v + 0.0 collapses -0.0 as
    # _fmt does, and NaN still prints nan
    *values, regions, _ = zip(*samples)
    row_format = ",".join(["%.17g"] * len(values)) + ",%s"
    body = list(map(row_format.__mod__, zip(*([v + 0.0 for v in col] for col in values), regions)))
    _write_csv(out, config, FieldSample.CSV_COLUMNS, body)
    finite = [s for s in samples if math.isfinite(s.density)]
    summary = {
        "rows": len(samples),
        "speed_min": min(s.speed for s in samples),
        "speed_max": max(s.speed for s in samples),
        "density_min": min(s.density for s in finite) if finite else math.nan,
        "density_max": max(s.density for s in finite) if finite else math.nan,
        "flagged": sum(1 for s in samples if s.flag),
        "univalent": univalent,
    }
    _write_sidecar(out.with_suffix(out.suffix + ".json"), config, summary)
    print(f"wrote {out} ({len(samples)} rows)")
    return EXIT_OK


def cmd_psi_model(args) -> int:
    cfg_file = _load_config_file(args.config) if args.config else {}
    n = _resolve(args, cfg_file, "n", float, 4.0)
    ell = _resolve(args, cfg_file, "ell", float, 6.0)
    sigma_r = _resolve(args, cfg_file, "sigma_r", float, 1.0)
    regime = _resolve(args, cfg_file, "regime", str, None)
    if regime is not None:
        pm = PsiModelParams.for_regime(n, ell, regime, sigma_r=sigma_r)
    else:
        pm = PsiModelParams(n=n, ell=ell, sigma_r=sigma_r,
                            rho_t=_resolve(args, cfg_file, "rho_t", float, 2.0))
    r_lo = _resolve(args, cfg_file, "r_min", float, 0.2)
    r_hi = _resolve(args, cfg_file, "r_max", float, 6.0)
    n_r = _resolve(args, cfg_file, "n_r", int, 200)
    config = {
        "command": "psi-model", "n": pm.n, "ell": pm.ell, "sigma_r": pm.sigma_r, "rho_t": pm.rho_t,
        "regime": regime or "explicit", "r_min": r_lo, "r_max": r_hi, "n_r": n_r,
    }
    rows = []
    for i in range(n_r):
        r_bar = r_lo + (r_hi - r_lo) * i / (n_r - 1)
        r = r_bar * pm.sigma_r
        rows.append((r_bar, psi_density(pm, r), psi_quantum_potential(pm, r),
                     psi_classical_potential(pm, r), psi_velocity(pm, r)))
    zeros = potential_zeros(pm)
    summary = {
        "potential_zeros_over_sigma_r": [z / pm.sigma_r for z in zeros],
        "regime_discriminant": pm.regime_discriminant,
        "circulation": circulation_quantum(pm),
        "c1": pm.c1,
    }
    out = Path(args.output)
    _write_csv(out, config, ("r_bar", "density", "q_pot", "u_pot", "v_phi"), _csv_lines(rows))
    _write_sidecar(out.with_suffix(out.suffix + ".json"), config, summary)
    names = ", ".join(_fmt(z / pm.sigma_r) for z in zeros)
    print(f"wrote {out}; potential zeros at r/sigma_r = {names}")
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = suites.run_suite(args.suite)
    ok = all(r.passed for r in reports)
    payload = {"suite": args.suite, "pass": ok, "reports": [r.to_dict() for r in reports]}
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8", newline="\n")
    print(text)
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hodoflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[], help="region classification table (rho in rho_T units)")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--sigma-v", type=float, default=1.0, dest="sigma_v")
    p.add_argument("--rho", type=str, required=True, help="comma list of rho / rho_T")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("characteristics", help="characteristic values, slopes, canonical coefficients")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--sigma-v", type=float, default=1.0, dest="sigma_v")
    p.add_argument("--rho", type=str, required=True, help="comma list of rho / rho_T")
    p.add_argument("--theta0", type=float, default=0.0, help="angle offset in degrees")
    p.set_defaults(func=cmd_characteristics)

    p = sub.add_parser("laguerre-enum", help="polynomial radial-factor catalog")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--lambda", type=str, default=None, dest="lam", help="comma list of lam values")
    p.add_argument("--ell-max", type=float, default=1e6, dest="ell_max")
    p.add_argument("--ell-fixed", type=float, default=None, dest="ell_fixed")
    p.add_argument("--k-max", type=int, default=16, dest="k_max")
    p.set_defaults(func=cmd_laguerre_enum)

    def add_model_flags(q):
        q.add_argument("--config", type=str, default=None, help="flat key = value config file")
        q.add_argument("--n", type=float, default=None)
        q.add_argument("--ell", type=float, default=None)
        q.add_argument("--sigma-v", type=float, default=None, dest="sigma_v")
        q.add_argument("--alpha", type=float, default=None)
        q.add_argument("--beta", type=float, default=None)
        q.add_argument("--c0", type=float, default=None)
        q.add_argument("--c1", type=float, default=None)
        q.add_argument("--c2", type=float, default=None)
        q.add_argument("--lambda", type=float, default=None, dest="lam")
        q.add_argument("--radial", type=str, default=None, choices=_RADIAL_CHOICES)
        q.add_argument("--fc1", type=float, default=None, help="angular-factor c1")
        q.add_argument("--fc2", type=float, default=None, help="angular-factor c2")
        q.add_argument("--rho-min", type=float, default=None, dest="rho_min", help="in rho_T units")
        q.add_argument("--rho-max", type=float, default=None, dest="rho_max", help="in rho_T units")
        q.add_argument("--theta-min", type=float, default=None, dest="theta_min_deg", help="degrees")
        q.add_argument("--theta-max", type=float, default=None, dest="theta_max_deg", help="degrees")
        q.add_argument("--n-rho", type=int, default=None, dest="n_rho")
        q.add_argument("--n-theta", type=int, default=None, dest="n_theta")

    p = sub.add_parser("solve-momentum", help="evaluate a separated momentum-space solution on a grid")
    add_model_flags(p)
    p.add_argument("--output", type=str, required=True)
    p.set_defaults(func=cmd_solve_momentum)

    p = sub.add_parser("map-fields", help="coordinate-space field grid (CSV + JSON sidecar)")
    add_model_flags(p)
    p.add_argument("--normalize", type=int, default=None, help="1: normalize density over the sector image")
    p.add_argument(
        "--require-univalent", action="store_true", dest="require_univalent",
        help="exit 3 if the inverse Jacobian changes sign over the grid (default: warn and proceed)",
    )
    p.add_argument("--output", type=str, required=True)
    p.set_defaults(func=cmd_map_fields)

    p = sub.add_parser("psi-model", help="vortex wavefunction profiles and potential zeros")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--n", type=float, default=None)
    p.add_argument("--ell", type=float, default=None)
    p.add_argument("--sigma-r", type=float, default=None, dest="sigma_r")
    p.add_argument("--rho-t", type=float, default=None, dest="rho_t")
    p.add_argument("--regime", type=str, default=None, choices=("two-zeros", "critical", "single-zero"))
    p.add_argument("--r-min", type=float, default=None, dest="r_min", help="in sigma_r units")
    p.add_argument("--r-max", type=float, default=None, dest="r_max", help="in sigma_r units")
    p.add_argument("--n-r", type=int, default=None, dest="n_r")
    p.add_argument("--output", type=str, required=True)
    p.set_defaults(func=cmd_psi_model)

    p = sub.add_parser("verify", help="run a named verification suite, emit a JSON report")
    p.add_argument("suite", choices=suites.SUITE_NAMES)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DegenerateMapError as exc:
        print(f"degenerate map: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except FoldError as exc:
        print(f"fold detected: {exc}", file=sys.stderr)
        return EXIT_FOLD
    except (ParameterError, DivergenceError, DomainError, RegionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HodoflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
