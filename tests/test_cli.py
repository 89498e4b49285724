"""Command-line interface: tables, files, config handling, exit codes."""

import json
import math
import shlex
from pathlib import Path

import pytest

from hodoflow import (
    AngularFactor,
    ModelParams,
    RadialSolution,
    RegionTag,
    SectorDomain,
    normalization_sector,
    omega_matched_c1,
)
from hodoflow.cli import _fmt, _table, main
from hodoflow.momentum import radial_row

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


class TestClassify:
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
            capsys, "map-fields", "--n", "2", "--ell", "0", "--radial", "omega", "--c0", "1",
            "--rho-min", "1.2", "--rho-max", "2.2", "--theta-min", "0", "--theta-max", "40",
            "--n-rho", "5", "--n-theta", "4", "--output", str(out_file),
        )
        assert code == 0
        floor = math.exp(0.5)  # e^((ell+1)/n) for c0 = 1
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
        norm = normalization_sector(p.with_(c1=omega_matched_c1(p)), RadialSolution.omega(),
                                    AngularFactor(lam=0.0, c1=0.0, c2=1.0), dom)
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
        # the matched-c1 Omega that map-fields maps; rows inside rho_T are nan, not an error
        out_file = tmp_path / "u.csv"
        code, _, err = run_cli(
            capsys, "solve-momentum", "--n", "2", "--ell", "0", "--radial", "omega",
            "--n-rho", "9", "--n-theta", "2", "--output", str(out_file),
        )
        assert code == 0 and err == ""
        p = ModelParams(n=2, ell=0)
        matched = p.with_(c1=omega_matched_c1(p))
        sidecar = json.loads((tmp_path / "u.csv.json").read_text())
        assert sidecar["config"]["c1"] == matched.c1 and sidecar["config"]["lam"] == 0.0
        rows = [line.split(",") for line in out_file.read_text().splitlines() if not line.startswith("#")][1:]
        inside = [row for row in rows if float(row[0]) < 1.0]
        assert len(inside) == 8 and all(row[2] == row[3] == "nan" for row in inside)
        for row in rows:
            if float(row[0]) > 1.0:
                rho = float(row[0]) * p.rho_t
                assert float(row[3]) == pytest.approx(radial_row(matched, RadialSolution.omega(), rho)[0], rel=1e-13)
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

        failing = VerificationReport("synthetic", "g", max_abs=1.0, rms=1.0, rel_scale=1.0, tol=1e-6)
        monkeypatch.setattr(cli.suites, "run_suite", lambda name: [failing])
        code, out, _ = run_cli(capsys, "verify", "specfun")
        assert code == 4
        assert json.loads(out)["pass"] is False
