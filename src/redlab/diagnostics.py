"""Numerical probes of denoiser structure and the induced objective.

The explicit regularizer studied here is
    rho(x) = (1/2) x^T (x - f(x)),
and the composite objective
    C(x) = ||A x - y||^2 / (2 sigma^2) + lambda * rho(x).

Three candidate gradient expressions for rho are provided:

* grad_red_romano: x - f(x), valid only when f has a symmetric Jacobian
  and is locally homogeneous;
* grad_red_lh:     x - J x / 2 - J^T x / 2, valid under local homogeneity;
* grad_red_true:   x - f(x)/2 - J^T x / 2, the product-rule gradient,
  valid whenever f is differentiable at x.

The error metrics quantify how far a given denoiser is from satisfying
each expression.  All probes share the chunks of one perturbation loop,
`central_differences`, which evaluates the perturbed images in chunks,
each chunk as one stack through Denoiser.apply_stack; numerical_jacobian
takes J and grad rho from the same 2 N denoised images, one task per
chunk that a caller may also run apart (the CLI reports do, in parallel),
and the Hessian differences grad rho once more.  The cost and residual take their data
terms from the problem's own QuadraticLoss.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from .denoisers import Denoiser
from .errors import DegenerateInputError, DomainError, ShapeError, _positive
from .image import Image
from .losses import QuadraticLoss
from .operators import LinearOperator

__all__ = [
    "JacobianEstimate",
    "RedProblem",
    "SliceSample",
    "analytic_hessian_linear",
    "central_differences",
    "cost_red",
    "cost_slice",
    "fp_residual",
    "grad_error",
    "grad_red_lh",
    "grad_red_romano",
    "grad_red_true",
    "hessian_rho_red",
    "js_error",
    "lh_error_1",
    "lh_error_2",
    "numerical_gradient_rho",
    "numerical_jacobian",
    "rho_red",
]

DEFAULT_EPSILON = 1e-3


@dataclass(frozen=True, eq=False)
class JacobianEstimate:
    """Central-difference Jacobian at one image; grad rho_red from the same calls."""

    matrix: np.ndarray
    epsilon: float
    rho_gradient: np.ndarray | None = None


# Largest perturbed stack, in bytes, that central_differences passes to fn
# in one call (at least one column's pair of rows): 16 columns at 16x16.
_STACK_BYTES = 64 * 1024


def _chunk_tasks(fn: Callable[[np.ndarray], np.ndarray], a: np.ndarray,
                 eps: float) -> list[Callable[[], np.ndarray]]:
    """central_differences(fn, a, eps) as one task per chunk, in column
    order; _assemble joins their results."""
    base = np.asarray(a, dtype=np.float64)
    n = base.size
    chunk = max(1, _STACK_BYTES // (2 * base.nbytes))
    return [functools.partial(_difference_chunk, fn, base, eps, j0, min(chunk, n - j0))
            for j0 in range(0, n, chunk)]


def _difference_chunk(fn: Callable[[np.ndarray], np.ndarray], base: np.ndarray,
                      eps: float, j0: int, count: int) -> np.ndarray:
    """[fn(a + eps e_j) - fn(a - eps e_j)] / (2 eps) for `count` columns j
    from j0, one row each, from one call of fn on the rows a + eps e_j,
    a - eps e_j."""
    flat = base.reshape(-1)
    pick = np.arange(count)
    cols = j0 + pick
    rows = np.repeat(flat[None], 2 * count, axis=0)
    rows[2 * pick, cols] = flat[cols] + eps
    rows[2 * pick + 1, cols] = flat[cols] - eps
    values = np.asarray(fn(rows.reshape((-1,) + base.shape)))
    return (values[0::2] - values[1::2]) / (2.0 * eps)


def _assemble(n: int, diffs: Iterable[np.ndarray]) -> np.ndarray:
    """The result of central_differences on n values from its chunk tasks'
    results, in order; each is copied in as it is drawn."""
    out = None
    j0 = 0
    for diff in diffs:
        if out is None:
            out = np.empty(diff.shape[1:] + (n,))
        out[..., j0 : j0 + len(diff)] = diff.T
        j0 += len(diff)
    return out


def central_differences(fn: Callable[[np.ndarray], np.ndarray],
                        a: np.ndarray, eps: float) -> np.ndarray:
    """Column j is [fn(a + eps e_j) - fn(a - eps e_j)] / (2 eps), j over a.flat.

    fn maps a stack of B perturbed copies of a, shape (B, *a.shape), to
    shape (B,) or (B, M).  Columns are evaluated in chunks: one call gets
    the rows a + eps e_j, a - eps e_j, in that order, for consecutive j,
    with as many columns as fit in _STACK_BYTES (at least one).  A scalar
    fn gives shape (a.size,), a length-M vector fn a C-ordered
    (M, a.size) array; 2 a.size rows are evaluated in all.
    """
    eps = _positive("step size", eps)
    return _assemble(np.size(a), (task() for task in _chunk_tasks(fn, a, eps)))


def _rho_rows(stack: np.ndarray, denoised: np.ndarray) -> np.ndarray:
    """rho_red of each image of a stack, each computed as rho_red does."""
    xs = stack.reshape(len(stack), -1)
    fxs = denoised.reshape(len(stack), -1)
    return np.array([0.5 * float(x @ (x - fx)) for x, fx in zip(xs, fxs)])


def _jacobian_rows(f: Denoiser, stack: np.ndarray) -> np.ndarray:
    """Each image of a stack denoised and flattened, then its rho_red."""
    fxs = f.apply_stack(stack)
    return np.column_stack([fxs.reshape(len(stack), -1), _rho_rows(stack, fxs)])


def _jacobian_chunks(f: Denoiser, x: Image, eps: float) -> list[Callable[[], np.ndarray]]:
    """numerical_jacobian(f, x, eps) as the chunk tasks of its central
    differences; _jacobian_from_chunks joins their results."""
    return _chunk_tasks(functools.partial(_jacobian_rows, f), x.pixels, eps)


def _jacobian_from_chunks(x: Image, diffs: Iterable[np.ndarray],
                          eps: float) -> JacobianEstimate:
    """The estimate from the results of _jacobian_chunks(f, x, eps), in order.

    One (N + 1, N) buffer: J is its C-contiguous top N rows, grad rho the
    last.
    """
    out = _assemble(x.size, diffs)
    return JacobianEstimate(out[:-1], eps, rho_gradient=out[-1])


def numerical_jacobian(f: Denoiser, x: Image, eps: float = DEFAULT_EPSILON) -> JacobianEstimate:
    """Central-difference Jacobian of f at x, plus the gradient of rho_red.

    Costs exactly 2 N denoised images for an N-pixel image, evaluated
    through f.apply_stack in the chunks of central_differences; rho_red is
    taken from the same outputs, so `rho_gradient` is bitwise equal to
    numerical_gradient_rho(f, x, eps) for a deterministic f.
    """
    eps = _positive("step size", eps)
    return _jacobian_from_chunks(x, (chunk() for chunk in _jacobian_chunks(f, x, eps)), eps)


def js_error(estimate: JacobianEstimate) -> float:
    """Relative Jacobian-asymmetry energy ||J - J^T||_F^2 / ||J||_F^2."""
    j = estimate.matrix
    denom = float(np.sum(j * j))
    if denom == 0.0:
        raise DegenerateInputError("Jacobian estimate is identically zero")
    return float(np.sum((j - j.T) ** 2)) / denom


def rho_red(f: Denoiser, x: Image) -> float:
    """Explicit regularizer value (1/2) x^T (x - f(x))."""
    fx = f.apply(x)
    return 0.5 * float(x.flat @ (x.flat - fx.flat))


def grad_red_romano(f: Denoiser, x: Image, fx: Image | None = None) -> np.ndarray:
    """The denoising-residual rule x - f(x); `fx` may carry f(x)."""
    if fx is None:
        fx = f.apply(x)
    return x.flat - fx.flat


def grad_red_true(f: Denoiser, x: Image, jacobian: JacobianEstimate,
                  fx: Image | None = None) -> np.ndarray:
    """Product-rule gradient x - f(x)/2 - J^T x / 2; `fx` may carry f(x)."""
    if fx is None:
        fx = f.apply(x)
    return x.flat - 0.5 * fx.flat - 0.5 * (jacobian.matrix.T @ x.flat)


def grad_red_lh(x: Image, jacobian: JacobianEstimate) -> np.ndarray:
    """Locally-homogeneous form x - J x / 2 - J^T x / 2."""
    j = jacobian.matrix
    return x.flat - 0.5 * (j @ x.flat) - 0.5 * (j.T @ x.flat)


def numerical_gradient_rho(f: Denoiser, x: Image, eps: float = DEFAULT_EPSILON) -> np.ndarray:
    """Central-difference gradient of rho_red at x: 2 N denoised images, O(N) memory.

    numerical_jacobian returns the same vector as `rho_gradient` alongside J.
    """
    return central_differences(
        lambda stack: _rho_rows(stack, f.apply_stack(stack)), x.pixels, eps
    )


def _relative_error(estimate: np.ndarray, reference: np.ndarray, name: str) -> float:
    """||estimate - reference||^2 / ||reference||^2; DegenerateInputError if reference is 0."""
    denom = float(reference @ reference)
    if denom == 0.0:
        raise DegenerateInputError(f"{name} is identically zero")
    diff = estimate - reference
    return float(diff @ diff) / denom


def grad_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Relative squared error ||analytic - numeric||^2 / ||numeric||^2."""
    return _relative_error(analytic, numeric, "numeric gradient")


def lh_error_1(f: Denoiser, x: Image, eps: float = DEFAULT_EPSILON,
               fx: Image | None = None) -> float:
    """Scale-equivariance defect ||f((1+e)x) - (1+e)f(x)||^2 / ||(1+e)f(x)||^2.

    `fx` may carry a precomputed f(x).
    """
    eps = _positive("step size", eps)
    scaled = f.apply(Image((1.0 + eps) * x.pixels)).flat
    if fx is None:
        fx = f.apply(x)
    return _relative_error(scaled, (1.0 + eps) * fx.flat, "denoiser output")


def lh_error_2(f: Denoiser, x: Image, eps: float = DEFAULT_EPSILON,
               jacobian: JacobianEstimate | None = None,
               fx: Image | None = None) -> float:
    """Jacobian-homogeneity defect ||J x - f(x)||^2 / ||f(x)||^2.

    Pass a precomputed estimate to avoid repeating the 2 N denoiser
    applications of the central-difference Jacobian, and `fx` for f(x).
    """
    if jacobian is None:
        jacobian = numerical_jacobian(f, x, eps)
    if fx is None:
        fx = f.apply(x)
    return _relative_error(jacobian.matrix @ x.flat, fx.flat, "denoiser output")


def hessian_rho_red(f: Denoiser, x: Image, eps: float = DEFAULT_EPSILON) -> np.ndarray:
    """(H + H^T) / 2, H the central differences of numerical_gradient_rho.

    Off the diagonal this is the four-point stencil of rho_red, on it a
    second difference of step 2 eps.  Costs 4 N^2 denoised images, so it
    is meant for small probe images.
    """
    rows = central_differences(
        lambda stack: np.stack([numerical_gradient_rho(f, Image(s), eps) for s in stack]),
        x.pixels, eps)
    return (rows + rows.T) / 2.0


def analytic_hessian_linear(w: np.ndarray) -> np.ndarray:
    """Hessian of rho_red for a linear denoiser f(x) = W x: I - W/2 - W^T/2."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {w.shape}")
    return np.eye(w.shape[0]) - 0.5 * w - 0.5 * w.T


@dataclass(frozen=True, eq=False)
class RedProblem:
    """Composite recovery problem: quadratic fidelity plus lambda * rho_red.

    Frozen: `loss`, built once from operator, y and noise_variance, holds y.
    """

    operator: LinearOperator
    y: Image
    noise_variance: float
    weight: float
    denoiser: Denoiser
    loss: QuadraticLoss = field(init=False, repr=False)

    def __post_init__(self):
        loss = QuadraticLoss(self.operator, self.y, self.noise_variance)
        object.__setattr__(self, "loss", loss)
        _positive("regularization weight", self.weight)


def fp_residual(p: RedProblem, x: Image, fx: Image | None = None, *,
                data_gradient: np.ndarray | None = None) -> np.ndarray:
    """First-order residual A^T (A x - y) / sigma^2 + lambda (x - f(x)).

    Zero exactly at fixed points of the iterative solvers.  `fx` may carry
    a precomputed f(x) to avoid a second denoiser application, and
    `data_gradient` the pixel array A^T (A x - y) / sigma^2; otherwise it
    comes from p.loss.data_terms(x).
    """
    if fx is None:
        fx = p.denoiser.apply(x)
    if data_gradient is None:
        data_gradient = p.loss.data_terms(x)[1]
    return data_gradient.reshape(-1) + p.weight * (x.flat - fx.flat)


def cost_red(p: RedProblem, x: Image, fx: Image | None = None, *,
             data_residual: np.ndarray | None = None) -> float:
    """Objective value ||A x - y||^2/(2 sigma^2) + lambda (1/2) x^T (x - f(x)).

    `fx` and `data_residual` (the pixel array A x - y) may be precomputed,
    as in fp_residual.
    """
    if fx is None:
        fx = p.denoiser.apply(x)
    if data_residual is None:
        data_residual = p.loss.data_terms(x)[0]
    fidelity = float(np.sum(data_residual**2)) / (2.0 * p.noise_variance)
    return fidelity + p.weight * 0.5 * float(x.flat @ (x.flat - fx.flat))


@dataclass(frozen=True)
class SliceSample:
    """One grid node of a 2-D objective slice."""

    alpha: float
    beta: float
    cost: float
    grad_e1: float
    grad_e2: float


def cost_slice(p: RedProblem, center: Image, e1: np.ndarray, e2: np.ndarray,
               alphas: np.ndarray, betas: np.ndarray) -> list[SliceSample]:
    """Sample C(center + alpha e1 + beta e2) on a grid.

    e1 and e2 must be unit vectors; each sample also records the residual
    projected onto the two directions, so slope information comes with the
    surface.
    """
    e1 = np.asarray(e1, dtype=np.float64).reshape(-1)
    e2 = np.asarray(e2, dtype=np.float64).reshape(-1)
    if e1.size != center.size or e2.size != center.size:
        raise ShapeError("direction vectors must match the image size")
    for name, e in (("e1", e1), ("e2", e2)):
        norm = float(np.linalg.norm(e))
        if abs(norm - 1.0) > 1e-8:
            raise DomainError(f"{name} must be unit-normalized, got norm {norm!r}")
    h, w = center.pixels.shape
    samples = []
    for alpha in np.asarray(alphas, dtype=np.float64):
        for beta in np.asarray(betas, dtype=np.float64):
            point = Image.from_flat(center.flat + alpha * e1 + beta * e2, h, w)
            fx = p.denoiser.apply(point)
            data_residual, data_gradient = p.loss.data_terms(point)
            g = fp_residual(p, point, fx, data_gradient=data_gradient)
            samples.append(
                SliceSample(
                    alpha=float(alpha),
                    beta=float(beta),
                    cost=cost_red(p, point, fx, data_residual=data_residual),
                    grad_e1=float(g @ e1),
                    grad_e2=float(g @ e2),
                )
            )
    return samples
