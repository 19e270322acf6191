"""Denoiser-driven image recovery laboratory.

The package splits into small, composable layers:

* image / operators - immutable grayscale images, PGM I/O and CSV text,
  and linear forward models (identity, circular convolution on the
  real-FFT half spectrum) with exact adjoints and their own regularized
  normal solves;
* denoisers         - the image-to-image maps under study;
* diagnostics       - Jacobian, gradient-expression, and homogeneity
  probes of those maps, plus the composite objective;
* losses            - the quadratic fidelity term, its exact prox and the
  data terms the solver logs reuse from the prox spectrum;
* solvers           - three iteration kernels (residual descent, proximal
  gradient, variable splitting) behind seven solver names, with
  trajectory logs;
* smd               - kernel-density priors, Tweedie regularization, and
  score matching;
* equilibrium       - consensus characterizations of the solver limits;
* scenes            - deterministic synthetic inputs;
* cli               - the `redlab` experiment runner.

Importing the package loads none of them.  A submodule is imported when
it, or a name this package exports from it (`_EXPORTS`), is first used
(PEP 562), so a process imports only what its work needs: a `redlab`
report never loads `solvers`, `smd` or `equilibrium`.
"""

import importlib

__version__ = "0.1.0"

# Exported name -> the submodule that defines it, in `__all__` order.
_EXPORTS = {
    name: module
    for module, names in {
        "denoisers": (
            "BernoulliMmseDenoiser", "Denoiser", "GmmMmseDenoiser",
            "LinearSymmetricDenoiser", "MedianFilterDenoiser", "NlmDenoiser",
            "TdtDenoiser",
        ),
        "diagnostics": (
            "JacobianEstimate", "RedProblem", "SliceSample",
            "analytic_hessian_linear", "central_differences", "cost_red",
            "cost_slice", "fp_residual", "grad_error", "grad_red_lh",
            "grad_red_romano", "grad_red_true", "hessian_rho_red", "js_error",
            "lh_error_1", "lh_error_2", "nonexpansiveness_probe",
            "numerical_gradient_rho", "numerical_jacobian", "rho_red",
        ),
        "equilibrium": (
            "EquilibriumPair", "consensus_residual", "denoising_equilibria",
            "g_red_inverse", "pnp_pair", "red_admm_pair", "red_pg_pair",
        ),
        "errors": (
            "ConfigError", "DegenerateInputError", "DivergenceError",
            "DomainError", "NonConvergenceError", "PgmParseError", "RedlabError",
            "ShapeError", "UnsupportedFormatError",
        ),
        "image": (
            "Image", "awgn", "extract_center_patch", "load_pgm", "psnr", "save_pgm",
        ),
        "losses": ("QuadraticLoss", "make_uniform_blur"),
        "operators": (
            "CircularConvolution", "IdentityOperator", "LinearOperator",
            "NormalSolver", "operator_matrix",
        ),
        "scenes": (
            "diagnostic_patches", "evaluation_points", "rank_equalize",
            "solver_scene", "synthetic_scene",
        ),
        "smd": (
            "KdePrior", "TweedieRegularizer", "kde_map_residual", "score",
            "score_match_identity",
        ),
        "solvers": (
            "SOLVERS", "SolverConfig", "Trajectory", "TrajectoryRecord",
            "default_initialization", "dpg_schedule", "red_admm", "red_admm_i1",
            "red_apg", "red_dpg", "red_fp", "red_pg", "red_sd",
        ),
    }.items()
    for name in names
}
_SUBMODULES = frozenset({*_EXPORTS.values(), "cli", "workers"})

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule `name`, or the one that defines the exported
    `name`, on first access; later lookups find the bound attribute."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
