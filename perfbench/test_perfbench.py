"""The benchmark's own tests: quick runs and checks that reject bad output.

    python3 -m pytest perfbench -q        # from the repository root
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import cases  # noqa: E402
import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", cases.WORKLOADS)
def test_quick_run(workload):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0, proc.stderr
    assert report["attempted"] == len(cases.make_cases(workload, 1))
    assert {k: v["unit"] for k, v in report["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in report["metrics"].values())


def test_quick_traced_run_counts_ten_series_per_point_on_readme_case():
    proc = bench("--workload", "fields-laguerre", "--seed", "1", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert tuple(report["metrics"]) == run.PER_LAYER
    assert "series per point, readme-hyp-fold: 10\n" in proc.stderr


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(cases.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    proc = bench("--workload", "normalize", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_same_seed_same_inputs():
    for workload in cases.WORKLOADS:
        assert cases.make_cases(workload, 7) == cases.make_cases(workload, 7)
        assert cases.make_cases(workload, 7) != cases.make_cases(workload, 8)


@pytest.fixture(scope="module")
def laguerre_output():
    case = cases.make_cases("fields-laguerre", 1)[0]
    payload, _ = worker.fields_output(worker.fields_op(case)())
    return case, payload


@pytest.fixture(scope="module")
def kummer_output():
    case = cases.make_cases("fields-kummer", 1)[0]
    payload, _ = worker.fields_output(worker.fields_op(case)())
    return case, payload


@pytest.mark.parametrize("output", ["laguerre_output", "kummer_output"])
def test_fields_check_rejects_x_off_by_1e6_relative(output, request):
    case, payload = request.getfixturevalue(output)
    assert checks.fields_problems(case, checks.fields_table(payload["rows"]), payload["warned"]) == []
    rows = [list(r) for r in payload["rows"]]
    rows[len(rows) // 3][0] *= 1.0 + 1e-6
    assert checks.fields_problems(case, checks.fields_table(rows), payload["warned"])


@pytest.mark.parametrize("output", ["laguerre_output", "kummer_output"])
def test_fields_check_rejects_a_missing_row(output, request):
    case, payload = request.getfixturevalue(output)
    rows = payload["rows"][:-1]
    assert checks.fields_problems(case, checks.fields_table(rows), payload["warned"])


def test_fields_check_rejects_a_wrong_quantum_potential(laguerre_output):
    case, payload = laguerre_output
    rows = [list(r) for r in payload["rows"]]
    for r in rows:  # keep u_pot = alpha rho^2 / 4 - q_pot, so only the FD oracle can see it
        if r[11] == 0:
            r[7] *= 1.0 + 1e-3
            r[8] -= r[7] * 1e-3 / (1.0 + 1e-3)
    assert any("finite-difference" in p for p in checks.fields_problems(case, checks.fields_table(rows)))


def test_reference_inverts_near_theta_zero():
    # a symmetric linspace can put theta at -3e-17 instead of 0; a solver that
    # steps by a share of theta sees no change there and stalls
    case = next(c for c in cases.make_cases("fields-kummer", 348020259) if c["id"] == "tricomi--ell")
    sol = reference.Solution(case)
    rho, theta = 0.6330455954059102, -2.7755575615628914e-17
    f = reference.map_fields(sol, rho, theta)
    x, y = float(f["x"]), float(f["y"])
    target = (x, y + 1.25e-4 * abs(x))  # one of the finite-difference stencil's points
    r, t = reference.invert(sol, target, (rho, theta))
    g = reference.map_fields(sol, r, t)
    assert math.hypot(float(g["x"]) - target[0], float(g["y"]) - target[1]) <= 1e-12 * abs(x)
    assert math.isfinite(reference.bohm_potential_fd(sol, rho, theta))


def test_fields_check_rejects_a_missing_node_flag():
    case = next(c for c in cases.make_cases("fields-laguerre", 1) if c["id"] == "readme-ell-node")
    payload, _ = worker.fields_output(worker.fields_op(case)())
    assert any(r[11] for r in payload["rows"])
    rows = [r[:11] + [0] for r in payload["rows"]]
    assert any("flagged" in p for p in checks.fields_problems(case, checks.fields_table(rows)))


def test_fields_op_reads_only_the_fold_warning_as_one(monkeypatch):
    from hodoflow import mapping

    case = next(c for c in cases.make_cases("fields-laguerre", 1) if c["id"] == "readme-ell-node")
    real = mapping.sample_fields

    def noisy(*args):
        warnings.warn("invalid value", RuntimeWarning)
        return real(*args)

    monkeypatch.setattr(mapping, "sample_fields", noisy)
    payload, _ = worker.fields_output(worker.fields_op(case)())
    assert payload["warned"] is False
    assert checks.fields_problems(case, checks.fields_table(payload["rows"]), payload["warned"]) == []


def test_a_check_that_raises_fails_its_case(tmp_path):
    case_list = cases.make_cases("cli", 1)
    idx = next(i for i, c in enumerate(case_list) if c["id"] == "solve-momentum")
    result = {"ops": [{"case": idx, "error": None, "digest": "d"}],
              "first": {str(idx): {"returncode": 0, "stdout": "", "stderr": ""}}}
    problems, _ = run.check_outputs("cli", case_list, result, tmp_path)  # no u.csv was written
    assert "FileNotFoundError" in problems[idx][0]


def test_normalize_check_rejects_n_off_by_1e8():
    case = cases.make_cases("normalize", 1)[0]
    value = worker.normalize_op(case)()
    assert checks.normalize_problems(case, value) == []
    assert checks.normalize_problems(case, value * (1.0 + 1e-8))
    assert checks.normalize_problems(case, value * (1.0 - 1e-8))


def test_cli_check_rejects_a_nonzero_exit_code(tmp_path):
    case = next(c for c in cases.make_cases("cli", 1) if c["id"] == "verify-all")
    payload = {"returncode": 4, "stdout": '{"pass": false}', "stderr": ""}
    assert checks.cli_problems(case, payload, tmp_path)


def test_cli_check_rejects_a_wrong_classify_row(tmp_path):
    case = next(c for c in cases.make_cases("cli", 1) if c["id"] == "classify")
    lines = ["rho_bar,Delta,g,region"]
    for rb in case["rho_bars"]:
        delta = (case["ell"] + 1.0) * (rb ** case["n"] - 1.0)
        region = "elliptic" if rb < 1.0 else "hyperbolic"
        lines.append(f"{rb!r},{delta!r},{-delta!r},{region}")
    good = {"returncode": 0, "stdout": "\n".join(lines) + "\n", "stderr": ""}
    assert checks.cli_problems(case, good, tmp_path) == []
    lines[2] = lines[2].replace(lines[2].split(",")[1], repr(float(lines[2].split(",")[1]) * (1 + 1e-6)), 1)
    bad = dict(good, stdout="\n".join(lines) + "\n")
    assert checks.cli_problems(case, bad, tmp_path)


def test_reference_kernel_is_steady_work():
    assert worker.ref_kernel() == 768
