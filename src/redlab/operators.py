"""Linear forward operators with exact adjoints and closed-form normal solves.

Two concrete operators cover the measurement models used here: identity
(denoising) and circular convolution (deblurring with periodic boundaries,
applied by real-input FFTs on the half spectrum).  Adjoints are exact up
to floating-point rounding, not approximations.  Each operator supplies
the closed-form NormalSolver behind the quadratic loss's prox.  The data
terms A x - y and A^T (A x - y) / sigma^2 come from a half spectrum only
when the caller passes one (the solver log passes the prox spectrum of its
iterate); otherwise A and A^T are applied, so equal images give equal terms.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError, _finite
from .image import Image

__all__ = [
    "CircularConvolution",
    "IdentityOperator",
    "LinearOperator",
    "NormalSolver",
    "operator_matrix",
]


def _rfft2(a: np.ndarray) -> np.ndarray:
    """np.fft.rfft2 over the last two axes, as its two 1-D passes.

    numpy's rfftn runs rfft along the last axis, then fft along the one
    before it; calling them directly skips its argument handling and gives
    the same bits.
    """
    return np.fft.fft(np.fft.rfft(a, axis=-1), axis=-2)


def _irfft2(a: np.ndarray, width: int) -> np.ndarray:
    """np.fft.irfft2(a, s=(h, width)) over the last two axes, as its two passes."""
    return np.fft.irfft(np.fft.ifft(a, axis=-2), n=width, axis=-1)


class LinearOperator:
    """Base class: apply / adjoint on images, and the normal solve if any."""

    def apply(self, x: Image) -> Image:
        raise NotImplementedError

    def adjoint(self, y: Image) -> Image:
        raise NotImplementedError

    def normal_solver(self, y: Image, noise_variance: float) -> NormalSolver:
        """The regularized normal solve for data y (by default, none)."""
        return NormalSolver(self, y, noise_variance)


class NormalSolver:
    """(v, w) -> (A^T A / sigma^2 + w I)^{-1} (A^T y / sigma^2 + w v) for one A, y.

    The anchor v has the shape of y.  This base class has no solve and keeps
    no spectrum, and its `data_terms(x)`, the pair (A x - y,
    A^T (A x - y) / sigma^2), applies A and A^T.  Operators with a closed
    form subclass it.
    """

    def __init__(self, operator: LinearOperator, y: Image, noise_variance: float):
        self.operator, self.y, self.noise_variance = operator, y, noise_variance

    def __call__(self, v: Image, weight: float) -> Image:
        raise ConfigError(f"no prox rule for operator type {type(self.operator).__name__}")

    def spectrum(self, x: Image) -> np.ndarray | None:
        """The half spectrum the last solve kept, when x is the Image it
        returned; the next solve overwrites it."""
        return None

    def data_terms(self, x: Image,
                   x_hat: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        residual = self.operator.apply(x).pixels - self.y.pixels
        return residual, self.operator.adjoint(Image(residual)).pixels / self.noise_variance


class _IdentitySolver(NormalSolver):
    def __call__(self, v: Image, weight: float) -> Image:
        sigma2 = self.noise_variance
        return Image._adopt((self.y.pixels / sigma2 + weight * v.pixels) / (1.0 / sigma2 + weight))


class IdentityOperator(LinearOperator):
    def apply(self, x: Image) -> Image:
        return x

    def adjoint(self, y: Image) -> Image:
        return y

    def transfer_function(self, shape: tuple[int, int]) -> np.ndarray:
        """The DFT of the identity: ones on the image grid."""
        return np.ones(shape)

    def normal_solver(self, y: Image, noise_variance: float) -> NormalSolver:
        return _IdentitySolver(self, y, noise_variance)


class _SpectralSolver(NormalSolver):
    """Pointwise division on the half spectrum H of a circulant A.

    A solve forms X^ = (rhs + w V^) / (gain + w) in a half-spectrum buffer
    it keeps, with gain + w kept for the last weight w, and `spectrum` hands
    X^ out for the Image it returned until the next solve.  Concurrent
    solves would share the buffers, so a loss proxes in one thread at a
    time.  The data terms at an x passed with its X^ cost one inverse
    transform of the stack [R^, conj(H) R^], with R^ = H X^ - Y^, and no
    forward one; without an X^ they apply A and A^T, whatever x was
    returned by.
    """

    def __init__(self, operator: CircularConvolution, y: Image, noise_variance: float):
        super().__init__(operator, y, noise_variance)
        self.h = operator.half_transfer_function(y.pixels.shape)
        self.h_conj = np.conj(self.h)
        self.y_hat = _rfft2(y.pixels)
        self.rhs = self.h_conj * self.y_hat / noise_variance
        self.gain = np.abs(self.h) ** 2 / noise_variance
        self._rows, self._x_hat = np.empty((2,) + self.h.shape, dtype=self.h.dtype)
        self._denominator = (0.0, self.gain)
        self._last: tuple[Image, np.ndarray] | None = None

    def __call__(self, v: Image, weight: float) -> Image:
        x_hat = self._x_hat
        np.fft.fft(np.fft.rfft(v.pixels, axis=-1, out=self._rows), axis=-2, out=x_hat)
        x_hat *= weight
        x_hat += self.rhs
        if self._denominator[0] != weight:
            self._denominator = (weight, self.gain + weight)
        x_hat /= self._denominator[1]
        rows = np.fft.ifft(x_hat, axis=-2, out=self._rows)
        x = Image._adopt(np.fft.irfft(rows, n=v.width, axis=-1))
        self._last = (x, x_hat)
        return x

    def spectrum(self, x: Image) -> np.ndarray | None:
        return self._last[1] if self._last is not None and x is self._last[0] else None

    def data_terms(self, x: Image,
                   x_hat: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        if x_hat is None:
            return super().data_terms(x)
        spectra = np.empty((2,) + self.h.shape, dtype=self.h.dtype)
        r_hat, g_hat = spectra
        np.multiply(self.h, x_hat, out=r_hat)
        r_hat -= self.y_hat
        np.multiply(self.h_conj, r_hat, out=g_hat)
        residual, gradient = _irfft2(spectra, x.width)
        return residual, gradient / self.noise_variance


class CircularConvolution(LinearOperator):
    """2-D convolution with periodic boundary handling.

    The kernel must have odd extents; its center tap aligns with the
    output pixel.  Applications run on the half spectrum of real-input
    FFTs, caching one half transfer function per image shape.
    """

    def __init__(self, kernel: np.ndarray):
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.ndim != 2:
            raise ConfigError(f"kernel must be 2-D, got ndim={kernel.ndim}")
        if kernel.shape[0] % 2 == 0 or kernel.shape[1] % 2 == 0:
            raise ConfigError(f"kernel extents must be odd, got {kernel.shape}")
        _finite("kernel", kernel, ConfigError)
        self.kernel = kernel
        self._half_transfer: dict[tuple[int, int], np.ndarray] = {}

    def _centered(self, shape: tuple[int, int]) -> np.ndarray:
        """The kernel embedded in an image of `shape`, center at the origin."""
        h, w = shape
        kh, kw = self.kernel.shape
        if kh > h or kw > w:
            raise ShapeError(f"kernel {self.kernel.shape} larger than image {shape}")
        padded = np.zeros(shape)
        padded[:kh, :kw] = self.kernel
        return np.roll(padded, (-(kh // 2), -(kw // 2)), axis=(0, 1))

    def transfer_function(self, shape: tuple[int, int]) -> np.ndarray:
        """Full DFT of the kernel embedded with its center at the origin."""
        return np.fft.fft2(self._centered(shape))

    def half_transfer_function(self, shape: tuple[int, int]) -> np.ndarray:
        """The rfft2 of the centered kernel: columns 0..w//2 of the DFT."""
        cached = self._half_transfer.get(shape)
        if cached is None:
            cached = self._half_transfer[shape] = _rfft2(self._centered(shape))
        return cached

    @staticmethod
    def _filter(x: Image, tf: np.ndarray) -> Image:
        return Image(_irfft2(_rfft2(x.pixels) * tf, x.width))

    def apply(self, x: Image) -> Image:
        return self._filter(x, self.half_transfer_function(x.pixels.shape))

    def adjoint(self, y: Image) -> Image:
        return self._filter(y, np.conj(self.half_transfer_function(y.pixels.shape)))

    def normal_solver(self, y: Image, noise_variance: float) -> NormalSolver:
        return _SpectralSolver(self, y, noise_variance)


def operator_matrix(op: LinearOperator, shape: tuple[int, int]) -> np.ndarray:
    """Materialize an operator as a dense matrix by applying it to a basis."""
    h, w = shape
    n = h * w
    basis = np.zeros(n)
    cols = np.empty((n, n))
    for j in range(n):
        basis[j] = 1.0
        cols[:, j] = op.apply(Image.from_flat(basis, h, w)).flat
        basis[j] = 0.0
    return cols
