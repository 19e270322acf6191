"""Quadratic data-fidelity term and its exact proximal operator.

The loss is l(x) = ||A x - y||^2 / (2 sigma^2).  Its prox with weight tau,
    argmin_x l(x) + (tau/2) ||x - v||^2,
solves (A^T A / sigma^2 + tau I) x = A^T y / sigma^2 + tau v and is
evaluated in closed form per operator kind: scalar division for identity,
frequency-domain division for circular convolution, and a dense solve
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .image import Image
from .operators import (
    CircularConvolution,
    DenseOperator,
    IdentityOperator,
    LinearOperator,
)

__all__ = ["QuadraticLoss", "make_uniform_blur"]


def make_uniform_blur(width: int) -> CircularConvolution:
    """Uniform width x width blur with periodic boundaries."""
    if width % 2 == 0 or width < 1:
        raise ConfigError(f"blur width must be odd and positive, got {width}")
    kernel = np.full((width, width), 1.0 / (width * width))
    return CircularConvolution(kernel)


@dataclass
class QuadraticLoss:
    """Gaussian negative log-likelihood ||A x - y||^2 / (2 sigma^2)."""

    operator: LinearOperator
    y: Image
    noise_variance: float
    _dense_gram: np.ndarray | None = field(default=None, init=False, repr=False,
                                           compare=False)
    _dense_rhs: np.ndarray | None = field(default=None, init=False, repr=False,
                                          compare=False)
    # conj(H) fft2(y) / sigma^2 per image shape, for the circular prox.
    _circular_rhs: dict[tuple[int, int], np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.noise_variance <= 0:
            raise ConfigError(
                f"noise variance must be > 0, got {self.noise_variance}"
            )
        if isinstance(self.operator, DenseOperator):
            if self.operator.out_shape != self.y.pixels.shape:
                raise ShapeError(
                    f"operator output shape {self.operator.out_shape} != "
                    f"data shape {self.y.pixels.shape}"
                )
            m = self.operator.matrix
            self._dense_gram = m.T @ m
            self._dense_rhs = m.T @ self.y.flat

    def value(self, x: Image) -> float:
        residual = self.operator.apply(x).pixels - self.y.pixels
        return float(np.sum(residual**2)) / (2.0 * self.noise_variance)

    def gradient(self, x: Image) -> Image:
        """A^T (A x - y) / sigma^2, same shape as x."""
        residual = Image(self.operator.apply(x).pixels - self.y.pixels)
        return Image(self.operator.adjoint(residual).pixels / self.noise_variance)

    def prox(self, v: Image, weight: float) -> Image:
        """Exact minimizer of l(x) + (weight/2) ||x - v||^2."""
        if weight <= 0:
            raise ConfigError(f"prox weight must be > 0, got {weight}")
        sigma2 = self.noise_variance
        op = self.operator
        if isinstance(op, IdentityOperator):
            if not v.same_shape(self.y):
                raise ShapeError(
                    f"anchor shape {v.pixels.shape} != data shape {self.y.pixels.shape}"
                )
            out = (self.y.pixels / sigma2 + weight * v.pixels) / (1.0 / sigma2 + weight)
            return Image(out)
        if isinstance(op, CircularConvolution):
            if not v.same_shape(self.y):
                raise ShapeError(
                    f"anchor shape {v.pixels.shape} != data shape {self.y.pixels.shape}"
                )
            shape = v.pixels.shape
            tf = op.transfer_function(shape)
            data = self._circular_rhs.get(shape)
            if data is None:
                data = np.conj(tf) * np.fft.fft2(self.y.pixels) / sigma2
                self._circular_rhs[shape] = data
            numer = data + weight * np.fft.fft2(v.pixels)
            denom = np.abs(tf) ** 2 / sigma2 + weight
            return Image(np.fft.ifft2(numer / denom).real)
        if isinstance(op, DenseOperator):
            if v.pixels.shape != op.in_shape:
                raise ShapeError(
                    f"anchor shape {v.pixels.shape} != operator input {op.in_shape}"
                )
            n = self._dense_gram.shape[0]
            system = self._dense_gram / sigma2 + weight * np.eye(n)
            rhs = self._dense_rhs / sigma2 + weight * v.flat
            return Image.from_flat(np.linalg.solve(system, rhs), *op.in_shape)
        raise ConfigError(f"no prox rule for operator type {type(op).__name__}")
