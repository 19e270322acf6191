"""Quadratic data-fidelity term and its exact proximal operator.

The loss is l(x) = ||A x - y||^2 / (2 sigma^2).  Its prox with weight tau,
    argmin_x l(x) + (tau/2) ||x - v||^2,
solves (A^T A / sigma^2 + tau I) x = A^T y / sigma^2 + tau v in closed
form through the operator's own normal solver: scalar division for the
identity, division on the half spectrum for circular convolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, _odd, _positive
from .image import Image
from .operators import CircularConvolution, LinearOperator, NormalSolver

__all__ = ["QuadraticLoss", "make_uniform_blur"]


def make_uniform_blur(width: int) -> CircularConvolution:
    """Uniform width x width blur with periodic boundaries."""
    width = _odd("blur width", width)
    kernel = np.full((width, width), 1.0 / (width * width))
    return CircularConvolution(kernel)


@dataclass(frozen=True, eq=False)
class QuadraticLoss:
    """Gaussian negative log-likelihood ||A x - y||^2 / (2 sigma^2).

    Every image passed to `value`, `data_terms`, `gradient` or `prox` must
    have the shape of y, or ShapeError names both shapes; nothing is
    broadcast.  Frozen: `_solver`, the operator's normal solver, holds
    terms of y.
    """

    operator: LinearOperator
    y: Image
    noise_variance: float
    _solver: NormalSolver = field(init=False, repr=False)

    def __post_init__(self):
        _positive("noise variance", self.noise_variance)
        solver = self.operator.normal_solver(self.y, self.noise_variance)
        object.__setattr__(self, "_solver", solver)

    def _check_shape(self, x: Image, role: str) -> None:
        if not x.same_shape(self.y):
            raise ShapeError(f"{role} shape {x.pixels.shape} != data shape {self.y.pixels.shape}")

    def value(self, x: Image) -> float:
        self._check_shape(x, "image")
        residual = self.operator.apply(x).pixels - self.y.pixels
        return float(np.sum(residual**2)) / (2.0 * self.noise_variance)

    def prox_spectrum(self, x: Image) -> np.ndarray | None:
        """The half spectrum the last prox kept, when x is the Image it
        returned and the operator's solve keeps one; otherwise None.  The
        next prox on this loss overwrites it."""
        return self._solver.spectrum(x)

    def data_terms(self, x: Image,
                   x_hat: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(A x - y, A^T (A x - y) / sigma^2) as pixel arrays.

        A circular solver forms both from x_hat when one is passed, the
        `prox_spectrum` of x; without it A and A^T are applied, so the
        terms depend only on x's pixels.
        """
        self._check_shape(x, "image")
        return self._solver.data_terms(x, x_hat)

    def gradient(self, x: Image) -> Image:
        """A^T (A x - y) / sigma^2, same shape as x."""
        return Image(self.data_terms(x)[1])

    def prox(self, v: Image, weight: float) -> Image:
        """Exact minimizer of l(x) + (weight/2) ||x - v||^2."""
        weight = _positive("prox weight", weight)
        self._check_shape(v, "anchor")
        return self._solver(v, weight)
