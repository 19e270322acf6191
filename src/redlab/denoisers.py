"""Image denoisers used as regularization engines.

Each denoiser is a deterministic map f: image -> image of the same shape.
The collection spans the structural properties the diagnostics probe:

* TdtDenoiser      - wavelet soft thresholding; symmetric Jacobian but not
                     locally homogeneous.
* MedianFilterDenoiser - exactly locally homogeneous (positively scale
                     equivariant) but non-symmetric Jacobian.
* NlmDenoiser      - neither property exactly; pixel weights are
                     row-stochastic.
* LinearSymmetricDenoiser - periodic convolution with an even kernel:
                     a symmetric circulant matrix with spectral radius
                     <= 1; every classical identity holds for it.
* GmmMmseDenoiser  - posterior mean under a Gaussian-mixture prior.
* BernoulliMmseDenoiser - per-pixel posterior mean under an equiprobable
                     {0, 1} prior.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, ShapeError
from .image import Image
from .operators import CircularConvolution

__all__ = [
    "BernoulliMmseDenoiser",
    "Denoiser",
    "GmmMmseDenoiser",
    "LinearSymmetricDenoiser",
    "MedianFilterDenoiser",
    "NlmDenoiser",
    "TdtDenoiser",
    "haar_forward",
    "haar_inverse",
]


class Denoiser:
    """Base class: a shape-preserving deterministic image map."""

    def apply(self, x: Image) -> Image:
        raise NotImplementedError

    def __call__(self, x: Image) -> Image:
        return self.apply(x)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


_SQRT2 = np.sqrt(2.0)


def haar_forward(a: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D Haar analysis at maximum decomposition depth.

    Both extents must be powers of two (1 is allowed, giving a 1-D
    transform along the other axis).  Coefficients are packed in the
    usual recursive quadrant layout; the transform is orthonormal, so
    energy is preserved exactly.
    """
    h, w = a.shape
    if not (_is_power_of_two(h) and _is_power_of_two(w)):
        raise ShapeError(f"Haar transform requires power-of-two extents, got {a.shape}")
    out = a.astype(np.float64).copy()
    while h > 1 or w > 1:
        block = out[:h, :w]
        if w > 1:
            lo = (block[:, 0::2] + block[:, 1::2]) / _SQRT2
            hi = (block[:, 0::2] - block[:, 1::2]) / _SQRT2
            block[:, : w // 2] = lo
            block[:, w // 2 : w] = hi
        if h > 1:
            lo = (block[0::2, :] + block[1::2, :]) / _SQRT2
            hi = (block[0::2, :] - block[1::2, :]) / _SQRT2
            block[: h // 2, :] = lo
            block[h // 2 : h, :] = hi
        h = max(h // 2, 1)
        w = max(w // 2, 1)
    return out


def haar_inverse(c: np.ndarray) -> np.ndarray:
    """Inverse of haar_forward."""
    h, w = c.shape
    if not (_is_power_of_two(h) and _is_power_of_two(w)):
        raise ShapeError(f"Haar transform requires power-of-two extents, got {c.shape}")
    out = c.astype(np.float64).copy()
    # Replay the forward level sizes in reverse order.
    sizes = []
    th, tw = h, w
    while th > 1 or tw > 1:
        sizes.append((th, tw))
        th = max(th // 2, 1)
        tw = max(tw // 2, 1)
    for lh, lw in reversed(sizes):
        block = out[:lh, :lw]
        if lh > 1:
            lo = block[: lh // 2, :]
            hi = block[lh // 2 : lh, :]
            rec = np.empty((lh, lw))
            rec[0::2, :] = (lo + hi) / _SQRT2
            rec[1::2, :] = (lo - hi) / _SQRT2
            block[:, :] = rec
        if lw > 1:
            lo = block[:, : lw // 2]
            hi = block[:, lw // 2 : lw]
            rec = np.empty((lh, lw))
            rec[:, 0::2] = (lo + hi) / _SQRT2
            rec[:, 1::2] = (lo - hi) / _SQRT2
            block[:, :] = rec
    return out


def _soft_threshold(c: np.ndarray, tau: float) -> np.ndarray:
    return np.sign(c) * np.maximum(np.abs(c) - tau, 0.0)


class TdtDenoiser(Denoiser):
    """Transform-domain soft thresholding in an orthonormal Haar basis.

    All coefficients are thresholded, the coarsest scaling coefficient
    included.  With threshold 0 the map is the identity.  Because the
    transform is orthogonal and the shrinkage acts componentwise, the
    Jacobian (where defined) is symmetric, and the map is non-expansive.
    """

    def __init__(self, threshold: float):
        if threshold < 0:
            raise ConfigError(f"threshold must be >= 0, got {threshold}")
        self.threshold = float(threshold)

    def apply(self, x: Image) -> Image:
        coeffs = haar_forward(x.pixels)
        return Image(haar_inverse(_soft_threshold(coeffs, self.threshold)))


class MedianFilterDenoiser(Denoiser):
    """Moving-window median with replicate (edge) padding."""

    def __init__(self, window: int = 3):
        if window % 2 == 0 or window < 1:
            raise ConfigError(f"window must be odd and positive, got {window}")
        self.window = window

    def apply(self, x: Image) -> Image:
        if self.window > min(x.height, x.width):
            raise ShapeError(
                f"window {self.window} exceeds image extent {x.height}x{x.width}"
            )
        r = self.window // 2
        padded = np.pad(x.pixels, r, mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, (self.window, self.window)
        )
        return Image(np.median(windows, axis=(2, 3)))


class NlmDenoiser(Denoiser):
    """Non-local means with Gaussian patch-distance weights.

    Every output pixel is a convex combination of input pixels inside its
    search window (the weight matrix is row-stochastic and includes the
    self weight), so outputs stay within the local input range.  Patches
    near the border are completed by replicate padding; search windows are
    clipped to the image.
    """

    def __init__(self, patch_radius: int = 1, search_radius: int = 5,
                 bandwidth: float | None = None, noise_variance: float | None = None):
        if patch_radius < 0 or search_radius < 0:
            raise ConfigError("radii must be >= 0")
        if bandwidth is None:
            if noise_variance is None:
                raise ConfigError("provide either bandwidth or noise_variance")
            # Conventional scaling: h^2 = 2 * variance * (patch pixel count).
            bandwidth = float(
                np.sqrt(2.0 * noise_variance * (2 * patch_radius + 1) ** 2)
            )
        if bandwidth <= 0:
            raise ConfigError(f"bandwidth must be > 0, got {bandwidth}")
        self.patch_radius = patch_radius
        self.search_radius = search_radius
        self.bandwidth = float(bandwidth)

    def apply(self, x: Image) -> Image:
        h, w = x.pixels.shape
        p = self.patch_radius
        s = self.search_radius
        padded = np.pad(x.pixels, p, mode="edge")
        k = 2 * p + 1
        patches = np.lib.stride_tricks.sliding_window_view(padded, (k, k))
        h2 = self.bandwidth**2
        numer = np.zeros((h, w))
        denom = np.zeros((h, w))
        for dy in range(-s, s + 1):
            r_lo, r_hi = max(0, -dy), min(h, h - dy)
            if r_lo >= r_hi:
                continue
            for dx in range(-s, s + 1):
                c_lo, c_hi = max(0, -dx), min(w, w - dx)
                if c_lo >= c_hi:
                    continue
                here = patches[r_lo:r_hi, c_lo:c_hi]
                there = patches[r_lo + dy : r_hi + dy, c_lo + dx : c_hi + dx]
                dist = np.sum((here - there) ** 2, axis=(2, 3))
                weight = np.exp(-dist / h2)
                vals = x.pixels[r_lo + dy : r_hi + dy, c_lo + dx : c_hi + dx]
                numer[r_lo:r_hi, c_lo:c_hi] += weight * vals
                denom[r_lo:r_hi, c_lo:c_hi] += weight
        return Image(numer / denom)


class LinearSymmetricDenoiser(Denoiser):
    """Periodic convolution W with an even kernel and spectral radius <= 1.

    W is the circulant matrix of `kernel` on images of `shape`, acting on
    row-major flattened images.  The DFT diagonalises it: its eigenvalues
    are the kernel's transfer-function values on the image grid.
    Construction checks that the kernel is even (equal to itself reversed
    along both axes, bitwise), so W is symmetric, and that the largest
    transfer-function magnitude is at most 1 + 1e-10, so W has spectral
    radius <= 1.  `apply` runs in the frequency domain; the dense `matrix`
    is built only when first read, for small-image diagnostics.
    """

    def __init__(self, kernel: np.ndarray, shape: tuple[int, int]):
        self._convolution = CircularConvolution(kernel)
        kernel = self._convolution.kernel
        if not np.array_equal(kernel, kernel[::-1, ::-1]):
            raise ConfigError("kernel is not even-symmetric, so W is not symmetric")
        self.kernel = kernel
        self.shape = tuple(shape)
        radius = float(np.max(np.abs(self.transfer_function())))
        if radius > 1.0 + 1e-10:
            raise ConfigError(f"spectral radius {radius:.6f} exceeds 1")

    @classmethod
    def local_average(cls, shape: tuple[int, int]) -> "LinearSymmetricDenoiser":
        """Periodic 3x3 binomial averaging filter.

        The kernel [1,2,1]x[1,2,1]/16 is even-symmetric, so its circulant
        matrix is symmetric with eigenvalues
        ((1+cos w1)/2)((1+cos w2)/2) in [0, 1].
        """
        return cls(np.outer([1.0, 2.0, 1.0], [1.0, 2.0, 1.0]) / 16.0, shape)

    def transfer_function(self) -> np.ndarray:
        """Eigenvalues of W: the kernel's DFT on the image grid."""
        return self._convolution.transfer_function(self.shape)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """Dense W, built by index arithmetic independently of `apply`."""
        return _circulant_matrix(self.kernel, self.shape)

    def apply(self, x: Image) -> Image:
        if x.pixels.shape != self.shape:
            raise ShapeError(f"expected shape {self.shape}, got {x.pixels.shape}")
        return self._convolution.apply(x)


def _circulant_matrix(kernel: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Dense matrix of periodic convolution, built by index arithmetic."""
    h, w = shape
    n = h * w
    kh, kw = kernel.shape
    rows = np.arange(n)
    r, c = rows // w, rows % w
    matrix = np.zeros((n, n))
    for i in range(kh):
        dy = i - kh // 2
        for j in range(kw):
            dx = j - kw // 2
            cols = ((r - dy) % h) * w + (c - dx) % w
            matrix[rows, cols] += kernel[i, j]
    return matrix


class GmmMmseDenoiser(Denoiser):
    """Posterior-mean denoiser for a Gaussian mixture over flat images.

    The prior places equal weight on T centers with isotropic covariance
    nu*I; the observation model is additive Gaussian noise of the same
    variance nu.  Responsibilities are computed with max-subtracted
    exponentials, so the output is a numerically stable convex combination
    of the centers.
    """

    def __init__(self, centers: np.ndarray, noise_variance: float):
        centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
        if centers.shape[0] < 1:
            raise ConfigError("at least one center is required")
        if noise_variance <= 0:
            raise ConfigError(f"noise variance must be > 0, got {noise_variance}")
        self.centers = centers
        self.noise_variance = float(noise_variance)

    def posterior_mean(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64).reshape(-1)
        if r.size != self.centers.shape[1]:
            raise ShapeError(
                f"input dimension {r.size} != center dimension {self.centers.shape[1]}"
            )
        log_w = -np.sum((r[None, :] - self.centers) ** 2, axis=1) / (
            2.0 * self.noise_variance
        )
        log_w -= log_w.max()
        weights = np.exp(log_w)
        weights /= weights.sum()
        return weights @ self.centers

    def apply(self, x: Image) -> Image:
        return Image.from_flat(self.posterior_mean(x.flat), x.height, x.width)


class BernoulliMmseDenoiser(Denoiser):
    """Exact posterior mean for i.i.d. equiprobable {0, 1} pixels.

    Under r_n = x_n + N(0, nu), Bayes' rule gives
    E[x_n | r_n] = N(r_n; 1, nu) / (N(r_n; 1, nu) + N(r_n; 0, nu)),
    evaluated here in the numerically stable logistic form
    1 / (1 + exp((1 - 2 r_n) / (2 nu))).
    """

    def __init__(self, noise_variance: float):
        if noise_variance <= 0:
            raise ConfigError(f"noise variance must be > 0, got {noise_variance}")
        self.noise_variance = float(noise_variance)

    def posterior_mean(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=np.float64)
        z = (2.0 * r - 1.0) / (2.0 * self.noise_variance)
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    def apply(self, x: Image) -> Image:
        return Image(self.posterior_mean(x.pixels))
