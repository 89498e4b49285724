"""The public surface of ``hodoflow`` and the demos that use it."""

import enum
import hashlib
import inspect
import os
import runpy
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hodoflow

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

#: Every public name ``import hodoflow`` binds, the seven submodules included.
PUBLIC_NAMES = (
    "AngularFactor", "CharacteristicKind", "DegenerateMapError", "DivergenceError",
    "DomainError", "FieldGrid", "FieldSample", "FoldError", "HodoflowError", "LaguerreCase", "MapPoint",
    "ModelParams", "MomentumPoint", "NoConvergenceError", "NodeError", "ParameterError", "PoleError",
    "PsiModelParams", "RadialKind", "RadialSolution", "RegionError", "RegionTag",
    "SaturationWarning", "SectorDomain", "SeriesOverflowError", "UnivalenceWarning",
    "VerificationReport", "bohr_sommerfeld", "canonical_kappa",
    "characteristic_chi", "circulation_quantum", "classical_potential",
    "classify", "coeff_g", "coeff_h", "density_F", "density_F_speed_integral",
    "discriminant", "errors", "factorized_u", "forward_map",
    "gamma", "hamilton_jacobi_residual", "hill_coefficient_G",
    "hill_substitution_zeta", "hyperbolic_omega", "invert_map", "kummer_ab",
    "kummer_m", "kummer_m_deriv", "laguerre", "laguerre_enumerate", "laguerre_enumerate_for_ell",
    "map_differential", "mapping", "maxwell", "momentum", "normalization_psi_model",
    "normalization_sector", "nu_roots", "pde_residual_momentum", "potential_zeros", "potentials",
    "psi_classical_potential", "psi_density", "psi_model_eval", "psi_quantum_potential", "psi_velocity",
    "quantum_potential", "radial_moments", "sample_fields",
    "schrodinger_residual_at",
    "sigma_r_closed_form", "sigma_r_from_moments", "slope_rho_theta", "specfun", "tricomi_psi",
    "verify", "zeta_bar",
)


def test_public_names():
    # a fresh interpreter: other tests import hodoflow.cli and hodoflow.suites,
    # which would add those submodules to the package namespace
    code = "import hodoflow; print(' '.join(sorted(n for n in dir(hodoflow) if not n.startswith('_'))))"
    src = str(Path(hodoflow.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout.split()
    assert out == sorted(PUBLIC_NAMES)
    assert len(out) == 79


#: Every public function and class that has settings (parameters with
#: defaults), and those settings by name.
SETTINGS = {
    "AngularFactor": ["c1", "c2"],
    "ModelParams": ["c2"],
    "PsiModelParams": ["sigma_r", "rho_t"],
    "RadialSolution": ["lam", "scale"],
}


def test_settings_count():
    # parameters with defaults over every public function and class; the enum
    # classes are left out, since their call signature is the enum module's
    # functional API (and differs between Python versions), not hodoflow's
    settings = {}
    for name in PUBLIC_NAMES:
        obj = getattr(hodoflow, name)
        if isinstance(obj, types.ModuleType) or (
                isinstance(obj, type) and issubclass(obj, (BaseException, enum.Enum))):
            continue
        params = inspect.signature(obj).parameters.values()
        defaults = [p.name for p in params if p.default is not inspect.Parameter.empty]
        if defaults:
            settings[name] = defaults
    assert settings == SETTINGS
    assert sum(map(len, settings.values())) == 7


#: sha256 of each demo's stdout.  Like the README pins in ``test_cli``, these
#: are facts of this platform (glibc libm, x86-64): another libm may round a
#: printed digit differently.
DEMO_STDOUT_SHA256 = {
    "01_speed_distributions_and_regions": "fc585767fa6a77cee6316b3982ecb36d72d8eec9f6b775e5fa182c72cf9e201b",
    "02_momentum_space_solutions": "4ca45c52ff6b19c974cc6269b52e95d7655c1718af6d6c44dea52a8de2203718",
    "03_mapped_flow_fields": "15a6d390b70c0baab870cdfc5c19de39afc2e8515cd5ab468eb6758f01c4eb76",
    "04_vortex_wavefunction": "43170c9779f80bf9694afa9d04f1191c20ece1558a4853ee3a3cc6dfd21637ba",
    "05_verification_suites": "e9a2bd9a4bb793113dfc379e0336d6b8146a58854de43f3fdb134462ad327fc1",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEMO_STDOUT_SHA256[demo.stem]
