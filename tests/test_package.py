"""The package namespace: `redlab` exports the same names as when it
imported every submodule eagerly, each resolved on first use to the object
its submodule defines."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import redlab

REPO = Path(__file__).resolve().parent.parent

# The exports of the eager `redlab/__init__.py`, by defining submodule, in
# its import order.
EXPORTS = {
    "denoisers": [
        "BernoulliMmseDenoiser", "Denoiser", "GmmMmseDenoiser", "LinearSymmetricDenoiser",
        "MedianFilterDenoiser", "NlmDenoiser", "TdtDenoiser",
    ],
    "diagnostics": [
        "JacobianEstimate", "RedProblem", "SliceSample", "analytic_hessian_linear",
        "central_differences", "cost_red", "cost_slice", "fp_residual", "grad_error",
        "grad_red_lh", "grad_red_romano", "grad_red_true", "hessian_rho_red", "js_error",
        "lh_error_1", "lh_error_2", "nonexpansiveness_probe", "numerical_gradient_rho",
        "numerical_jacobian", "rho_red",
    ],
    "equilibrium": [
        "EquilibriumPair", "consensus_residual", "denoising_equilibria", "g_red_inverse",
        "pnp_pair", "red_admm_pair", "red_pg_pair",
    ],
    "errors": [
        "ConfigError", "DegenerateInputError", "DivergenceError", "DomainError",
        "NonConvergenceError", "PgmParseError", "RedlabError", "ShapeError",
        "UnsupportedFormatError",
    ],
    "image": ["Image", "awgn", "extract_center_patch", "load_pgm", "psnr", "save_pgm"],
    "losses": ["QuadraticLoss", "make_uniform_blur"],
    "operators": [
        "CircularConvolution", "IdentityOperator", "LinearOperator", "NormalSolver",
        "operator_matrix",
    ],
    "scenes": [
        "diagnostic_patches", "evaluation_points", "rank_equalize", "solver_scene",
        "synthetic_scene",
    ],
    "smd": ["KdePrior", "TweedieRegularizer", "kde_map_residual", "score",
            "score_match_identity"],
    "solvers": [
        "SOLVERS", "SolverConfig", "Trajectory", "TrajectoryRecord",
        "default_initialization", "dpg_schedule", "red_admm", "red_admm_i1", "red_apg",
        "red_dpg", "red_fp", "red_pg", "red_sd",
    ],
}
NAMES = [name for names in EXPORTS.values() for name in names]
SUBMODULES = [*EXPORTS, "cli", "workers"]


def test_all_lists_the_eager_packages_exports():
    assert redlab.__all__ == NAMES
    assert redlab.__version__ == "0.1.0"


def test_each_name_is_the_object_its_submodule_defines():
    mismatched = []
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"redlab.{module}")
        for name in names:
            imported = {}
            exec(f"from redlab import {name}", imported)
            if not (getattr(redlab, name) is imported[name] is getattr(defining, name)):
                mismatched.append(name)
    assert mismatched == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from redlab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(NAMES)


def test_dir_lists_exports_and_submodules():
    assert set(NAMES) | set(SUBMODULES) <= set(dir(redlab))


def test_submodules_are_attributes():
    for module in SUBMODULES:
        assert getattr(redlab, module) is importlib.import_module(f"redlab.{module}")


def test_an_unknown_name_raises_an_attribute_error_naming_it():
    message = "module 'redlab' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=message):
        redlab.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from redlab import no_such_name", {})
    assert not hasattr(redlab, "format_csv")


def test_a_fresh_process_imports_a_submodule_on_first_use():
    """`redlab.Image` loads the image module and what it imports, nothing
    else; a submodule attribute loads that submodule."""
    code = ("import sys, redlab\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('redlab.'))\n"
            "redlab.Image\n"
            "print(loaded())\n"
            "redlab.scenes\n"
            "print(loaded())\n")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60, env=env)
    assert (result.returncode, result.stdout.splitlines(), result.stderr) == (0, [
        "['redlab.errors', 'redlab.image']",
        "['redlab.errors', 'redlab.image', 'redlab.scenes']",
    ], "")
