"""Command-line front end.

Subcommands: classify, characteristics, laguerre-enum, solve-momentum,
map-fields, psi-model, verify.  Momentum radii are given in units of the
sonic radius rho_T, angles in degrees; vortex-model radii are in units of
sigma_r.  CSV output uses '.' decimals, ',' separators, Unix newlines, a
mandatory header row, and 17-significant-digit floats, so identical configs
produce byte-identical files.  Exit codes: 0 ok, 1 usage, input or
evaluation error, 2 degenerate map, 3 fold/multivalence, 4 a failed
``verify`` report.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import momentum, suites
from .errors import (
    DegenerateMapError,
    DomainError,
    FoldError,
    HodoflowError,
    ParameterError,
)
from .mapping import FieldSample, SectorDomain, _field_block
from .maxwell import ModelParams, RegionTag, _regions, classify, coeff_g, discriminant, normalization_sector
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

_MODEL = {"n": 2.0, "ell": 0.0, "c2": 0.0, "lam": 2.0, "radial": "kummer+"}

#: Defaults of the commands that take ``--config``, by flag dest.  Each key is
#: one flag of its command, of its default's type; a config file value is cast
#: to that type; the resolved values are the config a command echoes.
_DEFAULTS = {
    "solve-momentum": {**_MODEL, "fc1": 1.0, "fc2": 0.0, "rho_min": 0.3, "rho_max": 2.0,
                       "theta_min_deg": 0.0, "theta_max_deg": 60.0, "n_rho": 16, "n_theta": 16},
    "map-fields": {**_MODEL, "fc1": 0.0, "fc2": 1.0, "rho_min": 1.8, "rho_max": 2.4,
                   "theta_min_deg": -12.0, "theta_max_deg": 12.0, "n_rho": 24, "n_theta": 24, "normalize": 0},
    "psi-model": {"n": 4.0, "ell": 6.0, "sigma_r": 1.0, "rho_t": 2.0, "regime": "explicit",
                  "r_min": 0.2, "r_max": 6.0, "n_r": 200},
}


#: The flags whose name is not ``--`` plus the dest with '_' turned into '-'.
_FLAGS = {"lam": "--lambda", "theta_min_deg": "--theta-min", "theta_max_deg": "--theta-max"}
_CHOICES = {"radial": [kind.value for kind in RadialKind], "regime": ("two-zeros", "critical", "single-zero")}
_HELP = {"config": "flat key = value config file", "c2": "n Omega(rho_T) / rho_T of the omega kind",
         "fc1": "angular-factor c1", "fc2": "angular-factor c2",
         "rho_min": "in rho_T units", "rho_max": "in rho_T units", "theta_min_deg": "degrees",
         "theta_max_deg": "degrees", "normalize": "1: normalize density over the sector image",
         "r_min": "in sigma_r units", "r_max": "in sigma_r units"}


class _Parser(argparse.ArgumentParser):
    """argparse variant that reserves exit code 1 for usage errors."""

    def error(self, message):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    """A float to 17 significant digits, -0.0 collapsed to 0; anything else by ``str``."""
    return "%.17g" % (value + 0.0) if isinstance(value, float) else str(value)


def _lines(columns):
    """Data lines of a table given column by column, one type to a column:
    each cell as :func:`_fmt` prints it, with one ``%`` format per line."""
    columns = list(columns)
    floats = [isinstance(col[0], float) for col in columns]
    cells = [[v + 0.0 for v in col] if is_float else col for is_float, col in zip(floats, columns)]
    line = ",".join("%.17g" if is_float else "%s" for is_float in floats)
    return map(line.__mod__, zip(*cells))


def _table(header, columns) -> list[str]:
    """Header and data lines of a table given column by column (:func:`_lines`)."""
    return [",".join(header), *_lines(columns)]


def _row_lines(cells, columns) -> str:
    """The data lines of one rho row, joined: ``cells`` holds the row's cells
    in column order, the text of a cell the whole row shares (no ``%`` in it)
    and None for one that varies along it, whose floats ``columns`` gives in
    the same order, -0.0 already collapsed.  One ``%`` format per line."""
    line = ",".join("%.17g" if cell is None else cell for cell in cells)
    return "\n".join(map(line.__mod__, zip(*columns)))


def _write_table(path: str, config: dict, header, lines, summary: dict) -> Path:
    """The CSV at ``path`` (echoed config, header, then each item of ``lines``:
    one data line or a row's lines joined, written as it comes) and its JSON
    sidecar."""
    out = Path(path)
    with out.open("w", encoding="utf-8", newline="\n") as csv:
        csv.writelines(f"# {key} = {_fmt(config[key])}\n" for key in sorted(config))
        csv.write(",".join(header) + "\n")
        csv.writelines(f"{text}\n" for text in lines)
    sidecar = json.dumps({"config": config, "summary": summary}, sort_keys=True, indent=2)
    out.with_suffix(out.suffix + ".json").write_text(sidecar + "\n", encoding="utf-8", newline="\n")
    return out


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


def _resolve(args) -> dict:
    """The command's config: each key of its defaults table from the flag, else
    from the ``--config`` file, else the default.  A file key must be one of
    the table's, its value must parse as its default's type, every float must
    be finite and grid counts must be >= 2."""
    defaults = _DEFAULTS[args.command]
    file_keys = _load_config_file(args.config) if args.config else {}
    config = {"command": args.command, **defaults}
    for key, value in file_keys.items():
        if key not in defaults:
            raise ParameterError(f"unknown config key {key!r} for {args.command}")
        cast = type(defaults[key])
        try:
            config[key] = cast(value)
        except ValueError:
            raise ParameterError(f"config value {key} = {value!r} is not a valid {cast.__name__}") from None
    config.update((key, getattr(args, key)) for key in defaults if getattr(args, key) is not None)
    for key, value in config.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ParameterError(f"{key} must be finite, got {value}")
    shape = tuple(config[key] for key in ("n_rho", "n_theta", "n_r") if key in config)
    if min(shape) < 2:
        raise DomainError(f"grid must be at least {'x'.join('2' * len(shape))}, got {shape}")
    return config


def _separated_model(config: dict):
    """``(params, sol, fac)`` of the separated solution in ``config``, which
    is updated to the values evaluated: the solution's lam and fc1 with -0.0
    collapsed."""
    params = ModelParams(n=config["n"], ell=config["ell"], c2=config["c2"])
    try:
        kind = RadialKind(config["radial"])
    except ValueError:
        raise ParameterError(f"unknown radial {config['radial']!r}") from None
    if kind is RadialKind.HYPERBOLIC_OMEGA:
        sol = RadialSolution.omega()
    elif kind is RadialKind.CONSTANT:
        sol = RadialSolution.constant()
    else:
        sol = RadialSolution.kummer(params, config["lam"], branch=config["radial"][-1], tricomi=kind.tricomi)
    fac = AngularFactor(lam=sol.lam, c1=config["fc1"] + 0.0, c2=config["fc2"])
    config.update(lam=sol.lam, fc1=fac.c1)
    return params, sol, fac


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(args) -> int:
    params = ModelParams(n=args.n, ell=args.ell)
    rows = []
    for rho_bar in _float_list(args.rho):
        rho = rho_bar * params.rho_t
        rows.append((rho_bar, discriminant(params, rho), coeff_g(params, rho), classify(params, rho)))
    print("\n".join(_table(("rho_bar", "Delta", "g", "region"), zip(*rows))))
    return EXIT_OK


def cmd_characteristics(args) -> int:
    params = ModelParams(n=args.n, ell=args.ell)
    rows = []
    for rho_bar in _float_list(args.rho):
        rho = rho_bar * params.rho_t
        region = classify(params, rho)
        hyperbolic = region is RegionTag.HYPERBOLIC
        kind = CharacteristicKind.HYPERBOLIC_PLUS if hyperbolic else CharacteristicKind.ELLIPTIC_PLUS
        chi = characteristic_chi(params, kind, rho, math.radians(args.theta0))
        slope = slope_rho_theta(params, rho)
        try:
            kappa = canonical_kappa(params, rho)
        except HodoflowError:
            kappa = math.nan
        rows.append((rho_bar, region, chi, slope, kappa))
    header = ("rho_bar", "region", "chi_plus_at_theta0", "slope_drho_dtheta", "kappa")
    print("\n".join(_table(header, zip(*rows))))
    return EXIT_OK


def cmd_laguerre_enum(args) -> int:
    if args.ell_fixed is not None:
        cases = laguerre_enumerate_for_ell(args.n, args.ell_fixed, k_max=args.k_max)
    elif args.lam:
        cases = laguerre_enumerate(args.n, _float_list(args.lam), ell_max=args.ell_max)
    else:
        raise ParameterError("either --lambda or --ell-fixed is required")
    rows = [(case.lam, case.lam ** 2, case.k, case.ell, case.alpha_bar) for case in cases]
    print("\n".join(_table(("lam", "lam_squared", "k", "ell", "alpha_bar"), zip(*rows))))
    return EXIT_OK


def cmd_solve_momentum(args) -> int:
    config = _resolve(args)
    params, sol, fac = _separated_model(config)
    rhos = _linspace(config["rho_min"] * params.rho_t, config["rho_max"] * params.rho_t, config["n_rho"])
    thetas = _linspace(math.radians(config["theta_min_deg"]), math.radians(config["theta_max_deg"]),
                       config["n_theta"])
    angular = np.array([fac.value(theta) for theta in thetas])
    # a row the radial factor cannot be evaluated at is nan, as map-fields flags it
    radial = momentum.radial_rows(params, sol, rhos)[0]
    regions = _regions(params, np.array(rhos))
    theta_cells, angular_cells = [theta + 0.0 for theta in thetas], (angular + 0.0).tolist()
    rows = (_row_lines((_fmt(rho / params.rho_t), None, None, _fmt(r_val), None, _fmt(region)),
                       (theta_cells, (r_val * angular + 0.0).tolist(), angular_cells))
            for rho, r_val, region in zip(rhos, radial.tolist(), regions))
    summary = {"rows": len(rhos) * len(thetas), "out_of_range_rows": len(thetas) * int(np.isnan(radial).sum())}
    out = _write_table(args.output, config, ("rho_bar", "theta", "u", "radial", "angular", "region"), rows, summary)
    print(f"wrote {out}")
    return EXIT_OK


def _field_rows(fields):
    """The map-fields CSV, one rho row of lines at a time: the row's speed,
    density and region formatted once, its points from the grid's arrays."""
    shared = ("speed", "density", "region")
    arrays = [getattr(fields, name) for name in FieldSample.CSV_COLUMNS if name not in shared]
    for *rows, speed, density, region in zip(*arrays, fields.speed.tolist(), fields.density.tolist(),
                                             fields.region):
        text = dict(zip(shared, map(_fmt, (speed, density, region))))
        cells = [text.get(name) for name in FieldSample.CSV_COLUMNS]
        yield _row_lines(cells, [(row + 0.0).tolist() for row in rows])


def cmd_map_fields(args) -> int:
    config = _resolve(args)
    params, sol, fac = _separated_model(config)
    config.update(normalize=int(bool(config["normalize"])), format="csv",
                  require_univalent=int(args.require_univalent))
    domain = SectorDomain(config["rho_min"] * params.rho_t, config["rho_max"] * params.rho_t,
                          math.radians(config["theta_min_deg"]), math.radians(config["theta_max_deg"]))
    norm = normalization_sector(params, sol, fac, domain) if config["normalize"] else 1.0
    fields = _field_block(params, sol, fac, domain, (config["n_rho"], config["n_theta"]), norm)
    if not fields.univalent:
        message = (
            "the grid spans a fold of the transform (inverse Jacobian changes sign); "
            "the image is not a single leaf"
        )
        if args.require_univalent:
            raise FoldError(message)
        print(f"warning: {message}", file=sys.stderr)
    rows = len(fields)
    # the speed and density columns repeat each row's value: the rows give their extremes
    finite = [d for d in fields.density.tolist() if math.isfinite(d)]
    summary = {
        "rows": rows,
        "speed_min": min(fields.speed.tolist()),
        "speed_max": max(fields.speed.tolist()),
        "density_min": min(finite, default=math.nan),
        "density_max": max(finite, default=math.nan),
        "flagged": int(np.count_nonzero(fields.code)),
        "univalent": fields.univalent,
    }
    out = _write_table(args.output, config, FieldSample.CSV_COLUMNS, _field_rows(fields), summary)
    print(f"wrote {out} ({rows} rows)")
    return EXIT_OK


def cmd_psi_model(args) -> int:
    config = _resolve(args)
    n, ell, sigma_r, regime = config["n"], config["ell"], config["sigma_r"], config["regime"]
    if regime == "explicit":
        pm = PsiModelParams(n=n, ell=ell, sigma_r=sigma_r, rho_t=config["rho_t"])
    else:
        pm = PsiModelParams.for_regime(n, ell, regime, sigma_r=sigma_r)
    config["rho_t"] = pm.rho_t
    rows = []
    for r_bar in _linspace(config["r_min"], config["r_max"], config["n_r"]):
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
    out = _write_table(args.output, config, ("r_bar", "density", "q_pot", "u_pot", "v_phi"), _lines(zip(*rows)),
                       summary)
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

    def add_point_flags(q):
        q.add_argument("--n", type=float, required=True)
        q.add_argument("--ell", type=float, required=True)
        q.add_argument("--rho", type=str, required=True, help="comma list of rho / rho_T")

    p = sub.add_parser("classify", help="region classification table (rho in rho_T units)")
    add_point_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("characteristics", help="characteristic values, slopes, canonical coefficients")
    add_point_flags(p)
    p.add_argument("--theta0", type=float, default=0.0, help="angle offset in degrees")
    p.set_defaults(func=cmd_characteristics)

    p = sub.add_parser("laguerre-enum", help="polynomial radial-factor catalog")
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--lambda", type=str, default=None, dest="lam", help="comma list of lam values")
    p.add_argument("--ell-max", type=float, default=1e6, dest="ell_max")
    p.add_argument("--ell-fixed", type=float, default=None, dest="ell_fixed")
    p.add_argument("--k-max", type=int, default=16, dest="k_max")
    p.set_defaults(func=cmd_laguerre_enum)

    for command, func, text in (
        ("solve-momentum", cmd_solve_momentum, "evaluate a separated momentum-space solution on a grid"),
        ("map-fields", cmd_map_fields, "coordinate-space field grid (CSV + JSON sidecar)"),
        ("psi-model", cmd_psi_model, "vortex wavefunction profiles and potential zeros"),
    ):
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", type=str, default=None, help=_HELP["config"])
        for key, default in _DEFAULTS[command].items():
            p.add_argument(_FLAGS.get(key, "--" + key.replace("_", "-")), type=type(default), default=None, dest=key,
                           choices=_CHOICES.get(key), help=_HELP.get(key))
        if command == "map-fields":
            p.add_argument(
                "--require-univalent", action="store_true", dest="require_univalent",
                help="exit 3 if the inverse Jacobian changes sign over the grid (default: warn and proceed)",
            )
        p.add_argument("--output", type=str, required=True)
        p.set_defaults(func=func)

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
    except HodoflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main():
    """Entry point of the ``hodoflow`` script and ``python -m hodoflow.cli``:
    :func:`main` on ``sys.argv``, then exit with its code.  The collector is
    frozen first, so the interpreter's exit-time collections skip the objects
    of numpy, scipy and hodoflow; atexit handlers and the stream flush still
    run.  :func:`main` itself leaves the collector as it is."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console_main()
