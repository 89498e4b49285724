"""Command-line interface: tables, files, config handling, exit codes."""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import re
import shlex
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import pytest

import hodoflow
from hodoflow import (
    AngularFactor,
    FieldSample,
    ModelParams,
    ParameterError,
    RadialSolution,
    RegionTag,
    SectorDomain,
    UnivalenceWarning,
    classify,
    normalization_sector,
    sample_fields,
)
from hodoflow.cli import _DEFAULTS, _fmt, _resolve, _table, build_parser, console_main, main
from hodoflow.momentum import radial_row
from oracles import band_edge_radii

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _readme_commands() -> list[list[str]]:
    """The argument lists of the commands in README's "Command line" block."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.strip()]


def _readme_python_blocks() -> list[str]:
    """The fenced ``python`` blocks of README.md in order, dedented where a
    list item indents them."""
    blocks = re.findall(r"^( *)```python\n(.*?)^\1```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    return [textwrap.dedent(body) for _, body in blocks]


def test_readme_python_blocks(tmp_path, monkeypatch):
    # the README's Python blocks run in order in one namespace, as a reader pastes them
    monkeypatch.chdir(tmp_path)
    blocks = _readme_python_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_command(argv, tmp_path, monkeypatch, capsys):
    # every README command runs; one that writes files writes the same bytes twice
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    if "--output" in argv:
        name = argv[argv.index("--output") + 1]
        assert set(files) == ({name, name + ".json"} if name.endswith(".csv") else {name})
        assert main(argv) == 0
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == files


#: sha256 of the README ``map-fields`` example's CSV and sidecar.
MAP_FIELDS_DIGESTS = {
    "fields.csv": "ea6cdd457a9a92210e39ad069ac05eaf84aec37f01361561e6200b14a32bda09",
    "fields.csv.json": "99d599fdc64065295c75c3f9dbd3f5002b14364138cf39644ae6308bca4a32b6",
}


def _digests(folder: Path) -> dict:
    return {name: hashlib.sha256((folder / name).read_bytes()).hexdigest() for name in MAP_FIELDS_DIGESTS}


def test_readme_map_fields_bytes(tmp_path, monkeypatch):
    # the README example's CSV and sidecar, pinned by their sha256
    monkeypatch.chdir(tmp_path)
    argv = next(argv for argv in _readme_commands() if argv[0] == "map-fields")
    assert main(argv) == 0
    assert _digests(tmp_path) == MAP_FIELDS_DIGESTS


@pytest.mark.parametrize("command, digests", [
    ("solve-momentum", {
        "u.csv": "2ca65b38aa83e7c23806a66e0756f5d65619bd2f7c219ff23e4477050092c1da",
        "u.csv.json": "a67de54c50a1779b15221706c50e0b19c67702666c0c1afb5ec977267f30fefb",
    }),
    ("psi-model", {
        "psi.csv": "560e92e88014379853c56f425b19594776138a1db9b3c79f45f2b20921c21ee5",
        "psi.csv.json": "44b082af883d5fb0aafccf6b850f5a8fe0f7867bbf01ed596a9c63db37894340",
    }),
])
def test_readme_table_bytes(command, digests, tmp_path, monkeypatch):
    # the other two README tables' CSV and sidecar, pinned by their sha256
    monkeypatch.chdir(tmp_path)
    argv = next(argv for argv in _readme_commands() if argv[0] == command)
    assert main(argv) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests} == digests


#: sha256 of ``verify all --output``'s JSON, a fact of this platform (glibc
#: libm, x86-64) as the README pins above are.
VERIFY_ALL_SHA256 = "99822f0f74004bdf47fedbd10c3384a4ba55976fd083adc515498178dc028eec"


def test_verify_all_json_bytes(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "all", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_ALL_SHA256


def _script(*argv, cwd):
    """``python -m hodoflow.cli ARGV`` in a fresh interpreter on this checkout."""
    src = str(Path(hodoflow.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "hodoflow.cli", *argv], cwd=cwd, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))


class TestScriptExit:
    def test_readme_map_fields(self, tmp_path):
        argv = next(argv for argv in _readme_commands() if argv[0] == "map-fields")
        result = _script(*argv, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("wrote fields.csv")
        assert _digests(tmp_path) == MAP_FIELDS_DIGESTS

    def test_readme_map_fields_at_numpy_baseline(self, tmp_path, monkeypatch):
        # the table's bits do not depend on the SIMD loops NumPy dispatches to at run time
        umath = pytest.importorskip("numpy._core._multiarray_umath")
        if platform.machine().lower() not in ("x86_64", "amd64"):
            pytest.skip("checked on x86-64")
        if not any(umath.__cpu_features__.get(name) for name in umath.__cpu_dispatch__):
            pytest.skip("NumPy dispatches nothing beyond its baseline on this CPU")
        monkeypatch.setenv("NPY_ENABLE_CPU_FEATURES", ",".join(umath.__cpu_baseline__))
        # the variable takes effect: a fresh interpreter runs no dispatched loop
        probe = "import numpy._core._multiarray_umath as m; print(any(map(m.__cpu_features__.get, m.__cpu_dispatch__)))"
        assert subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True).stdout == "False\n"
        argv = next(argv for argv in _readme_commands() if argv[0] == "map-fields")
        result = _script(*argv, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        assert _digests(tmp_path) == MAP_FIELDS_DIGESTS

    def test_failing_command_as_in_process(self, tmp_path, monkeypatch, capsys):
        argv = ("map-fields", "--n", "2", "--ell", "4", "--radial", "constant", "--rho-min", "1.2",
                "--rho-max", "1.6", "--output", "x.csv")
        result = _script(*argv, cwd=tmp_path)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert (result.returncode, result.stdout, result.stderr) == (code, out, err)
        assert code == 2 and err.startswith("degenerate map:")

    def test_main_leaves_the_collector(self, capsys):
        before = gc.get_freeze_count()
        assert main(["classify", "--n", "2", "--ell", "4", "--rho", "0.5,1.5"]) == 0
        assert gc.get_freeze_count() == before

    def test_console_main_freezes_and_exits(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["hodoflow", "classify", "--n", "2", "--ell", "4", "--rho", "0.5,1.5"])
        try:
            with pytest.raises(SystemExit) as exc:
                console_main()
            assert exc.value.code == 0
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert capsys.readouterr().out.startswith("rho_bar,Delta,g,region\n")

    def test_console_script_target(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((README.parent / "pyproject.toml").read_text(encoding="utf-8"))
        assert pyproject["project"]["scripts"] == {"hodoflow": "hodoflow.cli:console_main"}

    def test_mpmath_is_a_test_extra_only(self):
        # the tests' high-precision oracles import mpmath; the library never does
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((README.parent / "pyproject.toml").read_text(encoding="utf-8"))["project"]
        assert any(req.startswith("mpmath") for req in project["optional-dependencies"]["test"])
        assert not any(req.startswith("mpmath") for req in project["dependencies"])


def test_map_fields_memory_stays_flat(tmp_path, capsys):
    # map-fields writes its CSV one rho row at a time from the numeric block:
    # 160 x 160 points (a 5.4 MB CSV) peak below 8 MB of Python allocations
    argv = ["map-fields", "--n", "2", "--ell", "4", "--lambda", "3", "--rho-min", "1.5", "--rho-max", "1.89",
            "--theta-min", "-15", "--theta-max", "15", "--n-rho", "160", "--n-theta", "160",
            "--output", str(tmp_path / "f.csv")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr().out.endswith("(25600 rows)\n")
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


def _omega_chart(p):
    return p, RadialSolution.omega(), AngularFactor(lam=0.0, c1=0.0, c2=1.0)


@pytest.mark.parametrize("flags, model, rho_t_units, theta_deg", [
    # the README sector (kummer+, Theta = cos 3 theta), crossed by a fold
    (("--n", "2", "--ell", "4", "--lambda", "3", "--rho-min", "1.5", "--rho-max", "1.89",
      "--theta-min", "-15", "--theta-max", "15"),
     lambda p: (p, RadialSolution.kummer(p, 3.0, branch="+"), AngularFactor(lam=3.0, c1=0.0, c2=1.0)),
     (1.5, 1.89), (-15.0, 15.0)),
    # the Omega chart, univalent
    (("--radial", "omega", "--n", "2", "--ell", "0", "--lambda", "0", "--rho-min", "1.2", "--rho-max", "2"),
     _omega_chart, (1.2, 2.0), (-12.0, 12.0)),
    # rows beyond the Kummer series' z_max: out-of-range, NaN cells
    (("--n", "2", "--ell", "4", "--lambda", "2.5", "--rho-min", "4", "--rho-max", "5",
      "--n-rho", "6", "--n-theta", "6"),
     lambda p: (p, RadialSolution.kummer(p, 2.5, branch="+"), AngularFactor(lam=2.5, c1=0.0, c2=1.0)),
     (4.0, 5.0), (-12.0, 12.0)),
], ids=["readme", "omega", "out-of-range"])
def test_map_fields_reads_the_records(tmp_path, capsys, flags, model, rho_t_units, theta_deg):
    # map-fields and sample_fields read one field core: the CSV is the records
    # as text, and the sidecar is not univalent exactly where sample_fields warns
    out_file = tmp_path / "f.csv"
    code, _, _ = run_cli(capsys, "map-fields", *flags, "--output", str(out_file))
    assert code == 0
    config = json.loads((tmp_path / "f.csv.json").read_text())["config"]
    params, sol, fac = model(ModelParams(n=config["n"], ell=config["ell"]))
    domain = SectorDomain(rho_t_units[0] * params.rho_t, rho_t_units[1] * params.rho_t,
                          *map(math.radians, theta_deg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        samples = sample_fields(params, sol, fac, domain, (config["n_rho"], config["n_theta"]))
    lines = [line for line in out_file.read_text().splitlines() if not line.startswith("#")]
    assert lines[0].split(",") == list(FieldSample.CSV_COLUMNS)
    expected = [[_fmt(getattr(s, name)) for name in FieldSample.CSV_COLUMNS] for s in samples]
    assert [line.split(",") for line in lines[1:]] == expected
    warned = any(issubclass(w.category, UnivalenceWarning) for w in caught)
    assert json.loads((tmp_path / "f.csv.json").read_text())["summary"]["univalent"] is not warned


class TestTable:
    def test_cells_as_fmt(self):
        floats = [1.5, -0.0, 0.0, math.nan, math.inf, -math.inf, 0.1]
        ks = [0, 1, 2, 3, 4, 5, 16]  # an int column, as laguerre-enum's k
        regions = [RegionTag.ELLIPTIC, RegionTag.PARABOLIC, RegionTag.HYPERBOLIC] * 2 + [RegionTag.ELLIPTIC]
        names = ["elliptic", "x", "", "a b", "nan", "0", "-0.0"]
        lines = _table(("f", "k", "region", "name"), [floats, ks, regions, names])
        assert lines[0] == "f,k,region,name"
        assert lines[1:] == [",".join(map(_fmt, row)) for row in zip(floats, ks, regions, names)]
        assert [line.split(",")[0] for line in lines[1:]] == [
            "1.5", "0", "0", "nan", "inf", "-inf", "0.10000000000000001"
        ]
        assert lines[2] == "0,1,parabolic,x"

    def test_no_rows(self):
        assert _table(("a", "b"), zip(*[])) == ["a,b"]


@pytest.mark.parametrize("count", [1, 0, -3])
@pytest.mark.parametrize("command, flag", [
    ("solve-momentum", "--n-rho"), ("map-fields", "--n-theta"), ("psi-model", "--n-r"),
])
def test_grid_counts_below_two_rejected(tmp_path, capsys, command, flag, count):
    out_file = tmp_path / "x.csv"
    code, out, err = run_cli(capsys, command, flag, str(count), "--output", str(out_file))
    assert code == 1 and out == ""
    assert err.startswith("error: grid must be at least 2") and str(count) in err
    assert not out_file.exists()


#: Settings solve-momentum and map-fields no longer take (``sigma_v`` was also
#: a flag of classify and characteristics): the flag is a usage error and a
#: config-file key an error naming it.
REMOVED_SETTINGS = ("c1", "alpha", "beta", "sigma_v", "c0")


def _flag(key: str) -> str:
    """The flag a setting named ``key`` has, or had."""
    return "--" + key.replace("_", "-")


#: A flag value and a config-file value for a setting of each type, both
#: unlike every default; the strings are valid choices of radial and regime.
_SETTING_VALUES = {float: ("3.5", "2.5"), int: ("7", "5")}
_STRING_VALUES = {"radial": ("tricomi+", "kummer-"), "regime": ("critical", "single-zero")}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    """Each subcommand's parser, by name."""
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def _config_actions(command) -> list[argparse.Action]:
    """The actions of a config command's parser, help excepted."""
    return [action for action in _subparsers()[command]._actions if action.dest != "help"]


@pytest.mark.parametrize("command", sorted(_DEFAULTS))
def test_one_flag_per_setting(command):
    dests = [action.dest for action in _config_actions(command)]
    assert len(dests) == len(set(dests))
    assert set(dests) - {"config", "output", "require_univalent"} == set(_DEFAULTS[command])


@pytest.mark.parametrize("command, key", [(command, key) for command in sorted(_DEFAULTS)
                                          for key in _DEFAULTS[command]]
                         + [(command, key) for command in ("map-fields", "solve-momentum") for key in REMOVED_SETTINGS])
def test_every_setting_from_flag_and_file(command, key, tmp_path, capsys):
    # each setting reaches the config from its flag and from a config file; the flag wins
    if key in REMOVED_SETTINGS:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 2.5\n")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, _flag(key), "3.5", "--output", str(tmp_path / "x.csv")])
        assert exc.value.code == 1 and "unrecognized arguments" in capsys.readouterr().err
        with pytest.raises(ParameterError, match=f"unknown config key '{key}'"):
            _resolve(build_parser().parse_args([command, "--config", str(cfg), "--output", str(tmp_path / "x.csv")]))
        return
    flag = next(action.option_strings[0] for action in _config_actions(command) if action.dest == key)
    cast = type(_DEFAULTS[command][key])
    flag_value, file_value = _STRING_VALUES[key] if cast is str else _SETTING_VALUES[cast]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {file_value}\n")
    tail = ("--config", str(cfg), "--output", str(tmp_path / "x.csv"))
    from_file = _resolve(build_parser().parse_args([command, *tail]))[key]
    from_flag = _resolve(build_parser().parse_args([command, flag, flag_value, *tail]))[key]
    assert (from_file, from_flag) == (cast(file_value), cast(flag_value))
    assert cast(file_value) != _DEFAULTS[command][key] != cast(flag_value)


@pytest.mark.parametrize("command", sorted(_DEFAULTS))
def test_unknown_config_key_rejected(command, tmp_path, capsys):
    # a misspelt key would set nothing and leave its default: an error naming it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_rh0 = 50\nlamda = 7\n")
    out_file = tmp_path / "x.csv"
    code, out, err = run_cli(capsys, command, "--config", str(cfg), "--output", str(out_file))
    assert (code, out) == (1, "")
    assert err == f"error: unknown config key 'n_rh0' for {command}\n"
    assert not out_file.exists()


class TestClassify:
    def test_nan_radius_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--n", "2", "--ell", "4", "--rho", "nan,1.0")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "rho > 0" in err

    def test_overflowing_radius_exits_one(self, capsys):
        # (rho/rho_T)^n overflows at the second radius, where Delta and g were nan
        code, out, err = run_cli(capsys, "classify", "--n", "2", "--ell", "4", "--rho", "0.5,1e200")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "out of the float range" in err

    def test_three_regions(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--n", "2", "--ell", "2", "--rho", "0.5,1.0,2.0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rho_bar,Delta,g,region"
        regions = [line.split(",")[-1] for line in lines[1:]]
        assert regions == ["elliptic", "parabolic", "hyperbolic"]
        # Delta at rho_T is exactly zero and g = -Delta row-wise
        assert lines[2].split(",")[1] == "0"
        for line in lines[1:]:
            _, delta, g, _ = line.split(",")
            assert float(g) == -float(delta)


class TestCharacteristics:
    def test_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "characteristics", "--n", "2", "--ell", "2", "--rho", "0.5,1.0,1.5"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("rho_bar,region,")
        assert "inf" in lines[2]  # orthogonal crossing at the sonic circle

    def test_kappa_nan_in_the_parabolic_band(self, capsys):
        # kappa is singular on the sonic circle, on both sides of rho_T inside the band
        code, out, _ = run_cli(
            capsys, "characteristics", "--n", "2", "--ell", "2", "--rho", "0.9999999999999,1.0000000000001"
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [(row[1], row[4]) for row in rows] == [("parabolic", "nan")] * 2

    @pytest.mark.parametrize("theta0", ["nan", "inf", "-inf"])
    def test_non_finite_theta0_is_an_error(self, capsys, theta0):
        code, out, err = run_cli(
            capsys, "characteristics", "--n", "2", "--ell", "2", "--rho", "0.5", f"--theta0={theta0}"
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: chi requires a finite theta")


class TestLaguerreEnum:
    def test_catalog_rows(self, capsys):
        code, out, _ = run_cli(capsys, "laguerre-enum", "--n", "2", "--lambda", "2,3,4")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        ks = [int(r[2]) for r in rows]
        assert ks == [1, 1, 2, 3, 1, 2, 3, 4, 5, 6, 7]
        assert float(rows[-1][3]) == pytest.approx(-6.0 / 7.0)

    def test_ell_fixed_mode(self, capsys):
        code, out, _ = run_cli(capsys, "laguerre-enum", "--n", "2", "--ell-fixed", "2", "--k-max", "12")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        by_k = {int(r[2]): float(r[1]) for r in rows}
        assert by_k[0] == pytest.approx(1.0)
        assert by_k[5] == pytest.approx(16.0)
        assert by_k[12] == pytest.approx(33.0)

    def test_empty_below_one(self, capsys):
        code, out, _ = run_cli(capsys, "laguerre-enum", "--n", "2", "--lambda", "0.5,0.9")
        assert code == 0
        assert out.strip().splitlines()[1:] == []

    @pytest.mark.parametrize("flags, message", [
        (("--n=0", "--lambda=0.5,2"), "n must be finite and positive"),
        (("--n=nan", "--lambda=2"), "n must be finite and positive"),
        (("--n=-1", "--ell-fixed=0"), "n must be finite and positive"),
        (("--n=2", "--lambda=2,nan"), "lam must be finite"),
        (("--n=2", "--lambda=inf"), "lam must be finite"),
        (("--n=2", "--lambda=1e300"), "LAGUERRE_MAX_ORDER"),
        (("--n=1e-9", "--lambda=2.5"), "LAGUERRE_MAX_ORDER"),  # k would run to 5.7e9
        (("--n=2", "--ell-fixed=0", "--k-max=100000"), "LAGUERRE_MAX_ORDER"),
        (("--n=2", "--ell-fixed=-inf"), "ell must be finite"),
        (("--n=1e300", "--ell-fixed=2"), "beyond the float range"),
        (("--n=2",), "either --lambda or --ell-fixed is required"),
        (("--n=2", "--lambda=3", "--ell-max=nan"), "ell_max must not be NaN"),
    ])
    def test_bad_input_exits_one(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "laguerre-enum", *flags)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err


class TestMapFields:
    SECTOR = (
        "map-fields", "--n", "2", "--ell", "4", "--lambda", "3", "--radial", "kummer+",
        "--rho-min", "1.5", "--rho-max", "1.89", "--theta-min", "-15", "--theta-max", "15",
        "--n-rho", "6", "--n-theta", "5",
    )

    SMALL_RHO = (
        "--n", "2", "--ell", "4", "--lambda", "2.5", "--radial", "kummer-",
        "--rho-min", "1e-40", "--rho-max", "0.9", "--theta-min", "-15", "--theta-max", "15",
        "--n-rho", "4", "--n-theta", "4",
    )

    def test_row_below_float_range_flagged(self, tmp_path, capsys):
        # rho_bar^nu overflows on the first row: the sweep flags it, no traceback
        out_file = tmp_path / "f.csv"
        code, _, err = run_cli(capsys, "map-fields", *self.SMALL_RHO, "--output", str(out_file))
        assert code == 0 and err == ""
        summary = json.loads((tmp_path / "f.csv.json").read_text())["summary"]
        assert summary["rows"] == 16 and summary["flagged"] == 4
        first = [line for line in out_file.read_text().splitlines() if not line.startswith("#")][1]
        assert first.startswith("nan,nan,nan,")

    def test_normalize_overflow_prints_only_the_error(self, tmp_path, capsys):
        # at rho ~ 1e-20 rho_T the sector integral overflows: its documented
        # error is the one line on stderr, with no NumPy warning before it
        out_file = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            code, out, err = run_cli(
                capsys, "map-fields", "--n", "2", "--ell", "4", "--lambda", "2.5", "--radial", "kummer-",
                "--rho-min", "1e-20", "--rho-max", "2e-20", "--normalize", "1", "--output", str(out_file),
            )
        assert (code, out) == (1, "")
        assert err == "error: sector normalization integral did not produce a positive finite value\n"
        assert not out_file.exists()

    def test_solve_momentum_below_float_range_writes_nan_rows(self, tmp_path, capsys):
        # as map-fields flags the row, solve-momentum writes it with nan in u and radial
        out_file = tmp_path / "u.csv"
        code, _, err = run_cli(capsys, "solve-momentum", *self.SMALL_RHO, "--output", str(out_file))
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out_file.read_text().splitlines() if not line.startswith("#")][1:]
        assert len(rows) == 16
        for row in rows[:4]:
            assert row[2] == row[3] == "nan" and math.isfinite(float(row[4]))
        assert all(math.isfinite(float(v)) for row in rows[4:] for v in row[:5])
        assert json.loads((tmp_path / "u.csv.json").read_text())["summary"]["out_of_range_rows"] == 4

    def test_sector_csv_schema_and_speed_range(self, tmp_path, capsys):
        out_file = tmp_path / "fields.csv"
        code, _, _ = run_cli(capsys, *self.SECTOR, "--output", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        header = [line for line in lines if not line.startswith("#")][0]
        assert header == "x,y,phi,vx,vy,speed,density,q_pot,u_pot,jac_inv,region"
        sidecar = json.loads(out_file.with_suffix(".csv.json").read_text())
        assert sidecar["summary"]["speed_min"] == pytest.approx(1.5, rel=1e-12)
        assert sidecar["summary"]["speed_max"] == pytest.approx(1.89, rel=1e-12)
        assert sidecar["config"]["theta_max_deg"] == 15.0

    def test_degenerate_lambda_exit_code(self, tmp_path, capsys):
        out_file = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "map-fields", "--n", "2", "--ell", "2", "--lambda", "1", "--output", str(out_file)
        )
        assert code == 2
        assert "degenerate" in err.lower()

    @pytest.mark.parametrize("radial", [("--radial", "constant"), ("--radial", "kummer+", "--lambda", "0")])
    @pytest.mark.parametrize("normalize", ["0", "1"])
    def test_constant_u_exit_code(self, tmp_path, capsys, radial, normalize):
        # the default fc1 = 0 makes Theta constant, and R = 1 on both branches
        out_file = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "map-fields", "--n", "2", "--ell", "4", *radial, "--rho-min", "1.2", "--rho-max", "1.6",
            "--normalize", normalize, "--output", str(out_file),
        )
        assert code == 2
        assert "degenerate" in err.lower() and "constant" in err
        assert not out_file.exists()

    FOLDING = (
        "map-fields", "--n", "2", "--ell", "0", "--lambda", "2", "--fc1", "1", "--fc2", "0",
        "--rho-min", "1.8", "--rho-max", "2.4", "--theta-min", "-12", "--theta-max", "12",
    )

    def test_fold_exit_code_when_strict(self, tmp_path, capsys):
        out_file = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, *self.FOLDING, "--require-univalent", "--output", str(out_file))
        assert code == 3
        assert "fold" in err.lower()

    def test_fold_warns_by_default(self, tmp_path, capsys):
        # without the strict flag a multivalent grid still produces output,
        # with the sidecar marking the image as not univalent
        out_file = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, *self.FOLDING, "--output", str(out_file))
        assert code == 0
        assert "fold" in err.lower()
        sidecar = json.loads(out_file.with_suffix(".csv.json").read_text())
        assert sidecar["summary"]["univalent"] is False

    def test_omega_minimum_radius(self, tmp_path, capsys):
        out_file = tmp_path / "omega.csv"
        code, _, _ = run_cli(
            capsys, "map-fields", "--n", "2", "--ell", "0", "--radial", "omega",
            "--rho-min", "1.2", "--rho-max", "2.2", "--theta-min", "0", "--theta-max", "40",
            "--n-rho", "5", "--n-theta", "4", "--output", str(out_file),
        )
        assert code == 0
        floor = math.exp(0.5)  # e^((ell+1)/n)
        for line in out_file.read_text().splitlines():
            if line.startswith(("#", "x,")):
                continue
            x, y = map(float, line.split(",")[:2])
            assert math.hypot(x, y) >= floor - 1e-9

    def test_omega_normalize_scales_density(self, tmp_path, capsys):
        # --normalize 1 multiplies the unit-norm density by the sector's N
        omega = (
            "map-fields", "--n", "2", "--ell", "0", "--radial", "omega",
            "--rho-min", "1.2", "--rho-max", "2.2", "--theta-min", "0", "--theta-max", "40",
            "--n-rho", "5", "--n-theta", "4",
        )
        densities = {}
        for normalize in ("0", "1"):
            out_file = tmp_path / f"omega{normalize}.csv"
            code, _, _ = run_cli(capsys, *omega, "--normalize", normalize, "--output", str(out_file))
            assert code == 0
            lines = [line for line in out_file.read_text().splitlines() if not line.startswith("#")][1:]
            densities[normalize] = [float(line.split(",")[6]) for line in lines]
        p = ModelParams(n=2, ell=0)
        dom = SectorDomain(1.2 * p.rho_t, 2.2 * p.rho_t, 0.0, math.radians(40.0))
        norm = normalization_sector(*_omega_chart(p), dom)
        assert norm != pytest.approx(1.0, rel=1e-3)
        for d0, d1 in zip(densities["0"], densities["1"]):
            assert d1 == pytest.approx(d0 * norm, rel=1e-14)

    @pytest.mark.parametrize("radial, fc1", [("omega", "0"), ("constant", "1")])
    def test_lam_zero_solutions_echo_lam_zero(self, tmp_path, capsys, radial, fc1):
        # omega and constant are lam = 0 solutions whatever --lambda says
        out_file = tmp_path / "f.csv"
        code, _, _ = run_cli(
            capsys, "map-fields", "--n", "2", "--ell", "0", "--radial", radial, "--lambda", "3",
            "--fc1", fc1, "--n-rho", "3", "--n-theta", "3", "--output", str(out_file),
        )
        assert code == 0
        assert "# lam = 0" in out_file.read_text().splitlines()
        assert json.loads((tmp_path / "f.csv.json").read_text())["config"]["lam"] == 0.0

    def test_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, *self.SECTOR, "--output", str(a))
        run_cli(capsys, *self.SECTOR, "--output", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".csv.json").read_bytes() == b.with_suffix(".csv.json").read_bytes()

    def test_normalized_density_export(self, tmp_path, capsys):
        out_file = tmp_path / "norm.csv"
        code, _, _ = run_cli(
            capsys, "map-fields", "--n", "2", "--ell", "0", "--lambda", "2",
            "--rho-min", "1.9", "--rho-max", "2.3", "--theta-min", "-8", "--theta-max", "8",
            "--n-rho", "5", "--n-theta", "4", "--normalize", "1", "--output", str(out_file),
        )
        assert code == 0
        sidecar = json.loads(out_file.with_suffix(".csv.json").read_text())
        assert sidecar["config"]["normalize"] == 1
        # normalized densities over a small sector image are large numbers,
        # clearly distinct from the unit-norm profile values
        assert sidecar["summary"]["density_max"] > 1.0

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# sector run\nn = 2\nell = 4\nlam = 3\nradial = kummer+\n"
            "rho_min = 1.5\nrho_max = 1.89\ntheta_min_deg = -15\ntheta_max_deg = 15\n"
            "n_rho = 6\nn_theta = 5\n"
        )
        out_file = tmp_path / "cfg.csv"
        code, _, _ = run_cli(
            capsys, "map-fields", "--config", str(cfg), "--n-theta", "7", "--output", str(out_file)
        )
        assert code == 0
        sidecar = json.loads(out_file.with_suffix(".csv.json").read_text())
        assert sidecar["config"]["n_theta"] == 7  # flag wins
        assert sidecar["config"]["ell"] == 4.0  # file value kept
        # echo lines appear in the CSV header block
        text = out_file.read_text()
        assert "# n_theta = 7" in text

    def test_config_file_unknown_radial(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("radial = kumer+\n")
        out_file = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "map-fields", "--config", str(cfg), "--output", str(out_file))
        assert code == 1 and "unknown radial 'kumer+'" in err
        assert not out_file.exists()

    @pytest.mark.parametrize("command, line, kind", [
        ("map-fields", "n_rho = 2.5", "int"),
        ("psi-model", "ell = four", "float"),
        ("map-fields", "normalize = yes", "int"),
    ])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, command, line, kind):
        # a file value that does not parse as its key's type is a usage error, not a traceback
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out_file = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, command, "--config", str(cfg), "--output", str(out_file))
        key, value = (part.strip() for part in line.split("="))
        assert code == 1 and out == ""
        assert err == f"error: config value {key} = {value!r} is not a valid {kind}\n"
        assert not out_file.exists()

    @pytest.mark.parametrize("command, line", [
        ("map-fields", "rho_max = inf"),
        ("solve-momentum", "theta_min_deg = -inf"),
        ("psi-model", "r_max = nan"),
    ])
    def test_config_value_not_finite(self, tmp_path, capsys, command, line):
        # a non-finite float from a config file is rejected as a flag's is
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out_file = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, command, "--config", str(cfg), "--output", str(out_file))
        key, value = (part.strip() for part in line.split("="))
        assert code == 1 and out == ""
        assert err == f"error: {key} must be finite, got {value}\n"
        assert not out_file.exists()

    def test_config_line_without_equals_sign(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_rho 8\n")
        out_file = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "map-fields", "--config", str(cfg), "--output", str(out_file))
        assert code == 1 and out == ""
        assert err == "error: bad config line (expected 'key = value'): 'n_rho 8'\n"
        assert not out_file.exists()


class TestSolveMomentum:
    def test_grid_file(self, tmp_path, capsys):
        out_file = tmp_path / "u.csv"
        code, _, _ = run_cli(
            capsys, "solve-momentum", "--n", "2", "--ell", "4", "--lambda", "3",
            "--rho-min", "0.4", "--rho-max", "1.8", "--theta-min", "10", "--theta-max", "50",
            "--n-rho", "4", "--n-theta", "3", "--output", str(out_file),
        )
        assert code == 0
        lines = [line for line in out_file.read_text().splitlines() if not line.startswith("#")]
        assert lines[0] == "rho_bar,theta,u,radial,angular,region"
        assert len(lines) == 1 + 4 * 3
        regions = {line.split(",")[-1] for line in lines[1:]}
        assert regions == {"elliptic", "hyperbolic"}

    def test_regions_at_band_edges(self, tmp_path, capsys):
        # each row's region is classify's at rho_T (1 +- EPS_PARABOLIC) and one
        # ulp to either side; the first row of each grid is the given radius
        params = ModelParams(n=2.0, ell=4.0)
        out_file = tmp_path / "u.csv"
        for rho in band_edge_radii(params):
            code, _, _ = run_cli(capsys, "solve-momentum", "--n", "2", "--ell", "4", "--lambda", "3",
                                 "--rho-min", repr(rho / params.rho_t), "--rho-max", "1.5",
                                 "--n-rho", "3", "--n-theta", "2", "--output", str(out_file))
            assert code == 0
            rows = [line.split(",") for line in out_file.read_text().splitlines() if not line.startswith("#")][1:]
            assert float(rows[0][0]) * params.rho_t == rho
            for row in rows:
                assert RegionTag(row[-1]) is classify(params, float(row[0]) * params.rho_t)


    def test_rows_beyond_z_max_written_as_nan(self, tmp_path, capsys):
        # tau > KUMMER_Z_MAX = 50 from rho = 3.7 rho_T on: those rows carry nan, the rest values
        out_file = tmp_path / "u.csv"
        code, _, _ = run_cli(
            capsys, "solve-momentum", "--n", "2", "--ell", "4", "--lambda", "2.5",
            "--rho-min", "1", "--rho-max", "5", "--output", str(out_file),
        )
        assert code == 0
        lines = [line for line in out_file.read_text().splitlines() if not line.startswith("#")]
        assert lines[0] == "rho_bar,theta,u,radial,angular,region"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 16 * 16
        nan_rows = [row for row in rows if row[3] == "nan"]
        assert all(row[2] == "nan" for row in nan_rows)
        assert all(2.5 * float(row[0]) ** 2 > 50.0 for row in nan_rows)
        assert all(math.isfinite(float(row[3])) for row in rows if 2.5 * float(row[0]) ** 2 <= 50.0)
        summary = json.loads((tmp_path / "u.csv.json").read_text())["summary"]
        assert summary == {"rows": 256, "out_of_range_rows": len(nan_rows)} and len(nan_rows) > 0

    def test_omega_evaluates_the_mapped_flow(self, tmp_path, capsys):
        # the Omega that map-fields maps; rows inside rho_T are nan, not an error
        out_file = tmp_path / "u.csv"
        code, _, err = run_cli(
            capsys, "solve-momentum", "--n", "2", "--ell", "0", "--radial", "omega",
            "--n-rho", "9", "--n-theta", "2", "--output", str(out_file),
        )
        assert code == 0 and err == ""
        p = ModelParams(n=2, ell=0)
        sidecar = json.loads((tmp_path / "u.csv.json").read_text())
        assert "c1" not in sidecar["config"] and sidecar["config"]["lam"] == 0.0
        rows = [line.split(",") for line in out_file.read_text().splitlines() if not line.startswith("#")][1:]
        inside = [row for row in rows if float(row[0]) < 1.0]
        assert len(inside) == 8 and all(row[2] == row[3] == "nan" for row in inside)
        for row in rows:
            if float(row[0]) > 1.0:
                rho = float(row[0]) * p.rho_t
                assert float(row[3]) == pytest.approx(radial_row(p, RadialSolution.omega(), rho)[0], rel=1e-13)
        assert sidecar["summary"] == {"rows": 18, "out_of_range_rows": 8}


class TestPsiModel:
    def test_two_zero_regime(self, tmp_path, capsys):
        out_file = tmp_path / "psi.csv"
        code, out, _ = run_cli(
            capsys, "psi-model", "--n", "4", "--ell", "6", "--regime", "two-zeros",
            "--output", str(out_file),
        )
        assert code == 0
        sidecar = json.loads(out_file.with_suffix(".csv.json").read_text())
        zeros = sidecar["summary"]["potential_zeros_over_sigma_r"]
        assert len(zeros) == 2 and zeros[0] < zeros[1]
        header = [line for line in out_file.read_text().splitlines() if not line.startswith("#")][0]
        assert header == "r_bar,density,q_pot,u_pot,v_phi"

    def test_small_ell_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "psi-model", "--n", "4", "--ell", "2", "--output", str(tmp_path / "x.csv")
        )
        assert code == 1
        assert "ell > 2" in err

    @pytest.mark.parametrize("flag, message", [
        ("--n=inf", "must be finite"),
        ("--n=1e300", "beyond the float range"),  # Gamma at its pole 0
        ("--n=1e-300", "beyond the float range"),
        ("--n=1e-9", "beyond the float range"),
        ("--sigma-r=1e300", "beyond the float range"),
        ("--sigma-r=1e-300", "beyond the float range"),
    ])
    def test_normalization_beyond_float_range_exits_one(self, tmp_path, capsys, flag, message):
        out_file = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "psi-model", flag, "--output", str(out_file))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err
        assert not out_file.exists()

    @pytest.mark.parametrize("flags", [
        ("--n", "10", "--ell", "3", "--r-min", "1e-50"),  # r^n underflows to 0 before (sigma_r/r)^ell overflows
        ("--n", "1", "--ell", "3", "--r-max", "1e300"),  # r^2 overflows, r^n does not
        ("--n", "40", "--ell", "3", "--sigma-r", "1e10"),  # sigma_r^n overflows
    ])
    def test_power_of_r_beyond_float_range_exits_one(self, tmp_path, capsys, flags):
        out_file = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "psi-model", *flags, "--output", str(out_file))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "out of the float range" in err
        assert not out_file.exists()


class TestVerify:
    def test_specfun_suite_json(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "specfun", "--output", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["pass"] is True
        for report in payload["reports"]:
            assert {"name", "max_abs", "rms", "tol", "pass"} <= set(report)

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--n", "2"])  # missing required --ell and --rho
        assert exc.value.code == 1

    def test_failed_suite_exit_code(self, capsys, monkeypatch):
        from hodoflow import cli
        from hodoflow.verify import VerificationReport

        failing = VerificationReport("synthetic", "g", max_abs=1.0, rms=1.0, tol=1e-6, skipped_points=0,
                                     total_points=1)
        monkeypatch.setattr(cli.suites, "run_suite", lambda name: [failing])
        code, out, _ = run_cli(capsys, "verify", "specfun")
        assert code == 4
        assert json.loads(out)["pass"] is False


# ---------------------------------------------------------------------------
# every numeric flag of the model subcommands at boundary and non-finite values
# ---------------------------------------------------------------------------

#: 1e-50 is small enough that a 10th power underflows and large enough that a
#: 3rd power of its reciprocal stays finite.
GRID_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "1e-9", "1e-50")

_MODEL_FLAGS = ("--n", "--ell", "--c2", "--lambda", "--fc1", "--fc2", "--rho-min", "--rho-max", "--theta-min",
                "--theta-max", "--n-rho", "--n-theta", *map(_flag, REMOVED_SETTINGS))

#: Each subcommand's required arguments and the numeric flags varied on them,
#: the others left at their defaults; laguerre-enum runs in both of its modes.
GRID_BASES = {
    # --sigma-v is a removed setting: a usage error at every value
    "classify": (("classify", "--n", "2", "--ell", "0", "--rho", "0.5,1.0,2.0"),
                 ("--n", "--ell", "--sigma-v", "--rho")),
    "characteristics": (("characteristics", "--n", "2", "--ell", "0", "--rho", "0.5,1.0,2.0"),
                        ("--n", "--ell", "--sigma-v", "--rho", "--theta0")),
    "laguerre-enum-lambda": (("laguerre-enum", "--n", "2", "--lambda", "2.5"), ("--n", "--lambda", "--ell-max")),
    "laguerre-enum-ell-fixed": (("laguerre-enum", "--n", "2", "--ell-fixed", "2"), ("--n", "--ell-fixed", "--k-max")),
    "solve-momentum": (("solve-momentum",), _MODEL_FLAGS),
    "map-fields": (("map-fields",), _MODEL_FLAGS + ("--normalize",)),
    "psi-model": (("psi-model",), ("--n", "--ell", "--sigma-r", "--rho-t", "--r-min", "--r-max", "--n-r")),
    # n well above ell: r^n underflows before (sigma_r / r)^ell overflows
    "psi-model-n10-ell3": (("psi-model", "--n", "10", "--ell", "3"), ("--r-min", "--r-max", "--sigma-r", "--rho-t")),
}

#: The exit codes the README documents for each subcommand: 2 and 3 belong to the map.
DOCUMENTED_EXITS = {"classify": {0, 1}, "characteristics": {0, 1}, "laguerre-enum": {0, 1},
                    "solve-momentum": {0, 1}, "map-fields": {0, 1, 2, 3}, "psi-model": {0, 1}}

def _grid_cases():
    for name, (base, flags) in GRID_BASES.items():
        for flag in flags:
            for value in GRID_VALUES:
                yield pytest.param(base, f"{flag}={value}", id=f"{name} {flag}={value}")


@pytest.fixture(scope="module")
def grid_output(tmp_path_factory):
    return str(tmp_path_factory.mktemp("grid") / "out.csv")


@pytest.mark.filterwarnings("ignore::hodoflow.errors.SaturationWarning")  # a clamped radius, flagged as documented
@pytest.mark.parametrize("base, flag", _grid_cases())
def test_numeric_flag_grid(base, flag, grid_output, capsys):
    # no exception escapes and the exit code is a documented one; argparse
    # rejecting a value (an int flag given nan) is a usage error, exit 1
    writes = base[0] in ("solve-momentum", "map-fields", "psi-model")
    try:
        code = main([*base, flag, *(("--output", grid_output) if writes else ())])
    except SystemExit as exc:
        code = exc.code
    assert code in DOCUMENTED_EXITS[base[0]]
    if flag.split("=")[0] in map(_flag, REMOVED_SETTINGS):
        assert code == 1 and "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_grid_covers_every_numeric_flag(command):
    # a float or int flag added to a subcommand is varied by the grid above
    numeric = {action.option_strings[0] for action in _subparsers()[command]._actions
               if action.type in (float, int)}
    covered = {flag for base, flags in GRID_BASES.values() if base[0] == command for flag in flags}
    assert numeric <= covered
