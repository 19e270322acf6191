"""Denoiser-driven image recovery laboratory.

The package splits into small, composable layers:

* image / operators - immutable grayscale images, PGM I/O, and linear
  forward models (identity, circular convolution on the real-FFT half
  spectrum) with exact adjoints and their own regularized normal solves;
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
"""

from .denoisers import (
    BernoulliMmseDenoiser,
    Denoiser,
    GmmMmseDenoiser,
    LinearSymmetricDenoiser,
    MedianFilterDenoiser,
    NlmDenoiser,
    TdtDenoiser,
)
from .diagnostics import (
    JacobianEstimate,
    RedProblem,
    SliceSample,
    analytic_hessian_linear,
    central_differences,
    cost_red,
    cost_slice,
    fp_residual,
    grad_error,
    grad_red_lh,
    grad_red_romano,
    grad_red_true,
    hessian_rho_red,
    js_error,
    lh_error_1,
    lh_error_2,
    numerical_gradient_rho,
    numerical_jacobian,
    rho_red,
)
from .equilibrium import (
    EquilibriumPair,
    consensus_residual,
    denoising_equilibria,
    g_red_inverse,
    pnp_pair,
    red_admm_pair,
    red_pg_pair,
)
from .errors import (
    ConfigError,
    DegenerateInputError,
    DivergenceError,
    DomainError,
    NonConvergenceError,
    PgmParseError,
    RedlabError,
    ShapeError,
    UnsupportedFormatError,
)
from .image import Image, awgn, extract_center_patch, load_pgm, psnr, save_pgm
from .losses import QuadraticLoss, make_uniform_blur
from .operators import (
    CircularConvolution,
    IdentityOperator,
    LinearOperator,
    NormalSolver,
    operator_matrix,
)
from .scenes import (
    diagnostic_patches,
    evaluation_points,
    rank_equalize,
    solver_scene,
    synthetic_scene,
)
from .smd import (
    KdePrior,
    TweedieRegularizer,
    kde_map_residual,
    score,
    score_match_identity,
)
from .solvers import (
    SOLVERS,
    SolverConfig,
    Trajectory,
    TrajectoryRecord,
    default_initialization,
    dpg_schedule,
    nonexpansiveness_probe,
    red_admm,
    red_admm_i1,
    red_apg,
    red_dpg,
    red_fp,
    red_pg,
    red_sd,
)

__version__ = "0.1.0"
