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

from .errors import ConfigError, ShapeError
from .image import Image
from .operators import CircularConvolution, LinearOperator, NormalSolver

__all__ = ["QuadraticLoss", "make_uniform_blur"]


def make_uniform_blur(width: int) -> CircularConvolution:
    """Uniform width x width blur with periodic boundaries."""
    if width % 2 == 0 or width < 1:
        raise ConfigError(f"blur width must be odd and positive, got {width}")
    kernel = np.full((width, width), 1.0 / (width * width))
    return CircularConvolution(kernel)


@dataclass(frozen=True)
class QuadraticLoss:
    """Gaussian negative log-likelihood ||A x - y||^2 / (2 sigma^2).

    Frozen: `_solver`, the operator's normal solver, holds terms of y.
    """

    operator: LinearOperator
    y: Image
    noise_variance: float
    _solver: NormalSolver = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.noise_variance <= 0:
            raise ConfigError(f"noise variance must be > 0, got {self.noise_variance}")
        solver = self.operator.normal_solver(self.y, self.noise_variance)
        object.__setattr__(self, "_solver", solver)

    def value(self, x: Image) -> float:
        residual = self.operator.apply(x).pixels - self.y.pixels
        return float(np.sum(residual**2)) / (2.0 * self.noise_variance)

    def data_terms(self, x: Image) -> tuple[np.ndarray, np.ndarray]:
        """(A x - y, A^T (A x - y) / sigma^2) as pixel arrays.

        When x is the Image the last prox returned, a circular solver forms
        both from the spectrum it kept; otherwise A and A^T are applied.
        """
        return self._solver.data_terms(x)

    def gradient(self, x: Image) -> Image:
        """A^T (A x - y) / sigma^2, same shape as x."""
        return Image(self.data_terms(x)[1])

    def prox(self, v: Image, weight: float) -> Image:
        """Exact minimizer of l(x) + (weight/2) ||x - v||^2."""
        if weight <= 0:
            raise ConfigError(f"prox weight must be > 0, got {weight}")
        if not v.same_shape(self.y):
            raise ShapeError(
                f"anchor shape {v.pixels.shape} != data shape {self.y.pixels.shape}"
            )
        return self._solver(v, weight)
