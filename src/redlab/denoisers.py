"""Image denoisers used as regularization engines.

Each denoiser is a deterministic map f: image -> image of the same shape.
`apply` maps one Image; `apply_stack` maps a (B, h, w) stack, row by row
bitwise equal to `apply`.  TdtDenoiser, MedianFilterDenoiser and
NlmDenoiser are each one array kernel over a leading batch axis, which both
methods run; the others loop over `apply`.  The collection spans the
structural properties the diagnostics probe:

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
import math

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

    def apply_stack(self, xs: np.ndarray) -> np.ndarray:
        """f on each image of a float64 (B, h, w) stack, as a (B, h, w) array.

        Row b is bitwise apply(Image(xs[b])).pixels.  This default loops
        over apply; array-kernel denoisers evaluate the stack in one call.
        """
        return np.stack([self.apply(Image(x)).pixels for x in xs])

    def __call__(self, x: Image) -> Image:
        return self.apply(x)


class _StackKernelDenoiser(Denoiser):
    """A denoiser defined by one array kernel on (B, h, w) stacks.

    `apply` runs the kernel on a stack of one, so single images and stacks
    share one code path.
    """

    def _kernel(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply(self, x: Image) -> Image:
        return Image(self._kernel(x.pixels[None])[0])

    def apply_stack(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 3:
            raise ShapeError(f"expected a (B, h, w) stack, got shape {xs.shape}")
        return self._kernel(xs)


def _finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


def _positive(name: str, value: float) -> float:
    value = _finite(name, value)
    if value <= 0:
        raise ConfigError(f"{name} must be > 0, got {value}")
    return value


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


_SQRT2 = np.sqrt(2.0)


def _check_haar_shape(a: np.ndarray) -> tuple[int, int]:
    h, w = a.shape[-2:]
    if not (_is_power_of_two(h) and _is_power_of_two(w)):
        raise ShapeError(
            f"Haar transform requires power-of-two extents, got {a.shape[-2:]}"
        )
    return h, w


def haar_forward(a: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D Haar analysis at maximum decomposition depth.

    Transforms the last two axes, so a (B, h, w) stack is B independent
    images.  Both extents must be powers of two (1 is allowed, giving a
    1-D transform along the other axis).  Coefficients are packed in the
    usual recursive quadrant layout; the transform is orthonormal, so
    energy is preserved exactly.
    """
    h, w = _check_haar_shape(a)
    out = a.astype(np.float64).copy()
    while h > 1 or w > 1:
        block = out[..., :h, :w]
        if w > 1:
            lo = (block[..., :, 0::2] + block[..., :, 1::2]) / _SQRT2
            hi = (block[..., :, 0::2] - block[..., :, 1::2]) / _SQRT2
            block[..., :, : w // 2] = lo
            block[..., :, w // 2 : w] = hi
        if h > 1:
            lo = (block[..., 0::2, :] + block[..., 1::2, :]) / _SQRT2
            hi = (block[..., 0::2, :] - block[..., 1::2, :]) / _SQRT2
            block[..., : h // 2, :] = lo
            block[..., h // 2 : h, :] = hi
        h = max(h // 2, 1)
        w = max(w // 2, 1)
    return out


def haar_inverse(c: np.ndarray) -> np.ndarray:
    """Inverse of haar_forward, also over the last two axes."""
    h, w = _check_haar_shape(c)
    out = c.astype(np.float64).copy()
    # Replay the forward level sizes in reverse order.
    sizes = []
    th, tw = h, w
    while th > 1 or tw > 1:
        sizes.append((th, tw))
        th = max(th // 2, 1)
        tw = max(tw // 2, 1)
    for lh, lw in reversed(sizes):
        block = out[..., :lh, :lw]
        if lh > 1:
            lo = block[..., : lh // 2, :]
            hi = block[..., lh // 2 : lh, :]
            rec = np.empty(block.shape)
            rec[..., 0::2, :] = (lo + hi) / _SQRT2
            rec[..., 1::2, :] = (lo - hi) / _SQRT2
            block[...] = rec
        if lw > 1:
            lo = block[..., :, : lw // 2]
            hi = block[..., :, lw // 2 : lw]
            rec = np.empty(block.shape)
            rec[..., :, 0::2] = (lo + hi) / _SQRT2
            rec[..., :, 1::2] = (lo - hi) / _SQRT2
            block[...] = rec
    return out


def _soft_threshold(c: np.ndarray, tau: float) -> np.ndarray:
    return np.sign(c) * np.maximum(np.abs(c) - tau, 0.0)


class TdtDenoiser(_StackKernelDenoiser):
    """Transform-domain soft thresholding in an orthonormal Haar basis.

    All coefficients are thresholded, the coarsest scaling coefficient
    included.  With threshold 0 the map is the identity.  Because the
    transform is orthogonal and the shrinkage acts componentwise, the
    Jacobian (where defined) is symmetric, and the map is non-expansive.
    """

    def __init__(self, threshold: float):
        threshold = _finite("threshold", threshold)
        if threshold < 0:
            raise ConfigError(f"threshold must be >= 0, got {threshold}")
        self.threshold = threshold

    def _kernel(self, xs: np.ndarray) -> np.ndarray:
        return haar_inverse(_soft_threshold(haar_forward(xs), self.threshold))


class MedianFilterDenoiser(_StackKernelDenoiser):
    """Moving-window median with replicate (edge) padding."""

    def __init__(self, window: int = 3):
        if window % 2 == 0 or window < 1:
            raise ConfigError(f"window must be odd and positive, got {window}")
        self.window = window

    def _kernel(self, xs: np.ndarray) -> np.ndarray:
        _, h, w = xs.shape
        if self.window > min(h, w):
            raise ShapeError(f"window {self.window} exceeds image extent {h}x{w}")
        r = self.window // 2
        padded = np.pad(xs, ((0, 0), (r, r), (r, r)), mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, (self.window, self.window), axis=(1, 2)
        )
        return np.median(windows, axis=(3, 4))


def _box_sum(sq: np.ndarray, k: int) -> np.ndarray:
    """Sums of a C-ordered (B, rows, cols) array over every k x k window.

    The additions run in the order numpy's np.sum(..., axis=(2, 3)) uses on
    an array of k x k patches, so the result is bitwise that sum: row sums
    over k columns, added down the k rows in order.  With one window per
    row numpy sums each patch's k * k values as one vector instead, which
    here are k * k consecutive values of sq.
    """
    b, rows, cols = sq.shape
    out_rows, out_cols = rows - k + 1, cols - k + 1
    sb, sr, sc = sq.strides
    as_strided = np.lib.stride_tricks.as_strided
    if out_cols == 1:
        patches = as_strided(sq, (b, out_rows, k * k), (sb, sr, sc), writeable=False)
        return np.add.reduce(patches, axis=2)[:, :, None]
    windows = as_strided(sq, (b, rows, out_cols, k), (sb, sr, sc, sc), writeable=False)
    row_sums = np.add.reduce(windows, axis=3)
    out = row_sums[:, :out_rows].copy()
    for i in range(1, k):
        out += row_sums[:, i : i + out_rows]
    return out


class NlmDenoiser(_StackKernelDenoiser):
    """Non-local means with Gaussian patch-distance weights.

    Every output pixel is a convex combination of input pixels inside its
    search window (the weight matrix is row-stochastic and includes the
    self weight), so outputs stay within the local input range.  Patches
    near the border are completed by replicate padding; search windows are
    clipped to the image.

    For each search offset the squared pixel differences are formed once
    per padded pixel and box-summed over the patches (Darbon et al., ISBI
    2008), in an order that is bitwise the per-patch sum over (k, k).
    """

    def __init__(self, patch_radius: int = 1, search_radius: int = 5,
                 bandwidth: float | None = None, noise_variance: float | None = None):
        if patch_radius < 0 or search_radius < 0:
            raise ConfigError("radii must be >= 0")
        if noise_variance is not None:
            noise_variance = _positive("noise variance", noise_variance)
        if bandwidth is None:
            if noise_variance is None:
                raise ConfigError("provide either bandwidth or noise_variance")
            # Conventional scaling: h^2 = 2 * variance * (patch pixel count).
            bandwidth = float(
                np.sqrt(2.0 * noise_variance * (2 * patch_radius + 1) ** 2)
            )
        self.bandwidth = _positive("bandwidth", bandwidth)
        self.patch_radius = patch_radius
        self.search_radius = search_radius

    def _kernel(self, xs: np.ndarray) -> np.ndarray:
        _, h, w = xs.shape
        p = self.patch_radius
        s = self.search_radius
        k = 2 * p + 1
        padded = np.pad(xs, ((0, 0), (p, p), (p, p)), mode="edge")
        h2 = self.bandwidth**2
        numer = np.zeros(xs.shape)
        denom = np.zeros(xs.shape)
        for dy in range(-s, s + 1):
            r_lo, r_hi = max(0, -dy), min(h, h - dy)
            if r_lo >= r_hi:
                continue
            for dx in range(-s, s + 1):
                c_lo, c_hi = max(0, -dx), min(w, w - dx)
                if c_lo >= c_hi:
                    continue
                # Padded pixels under the patches centred at rows r_lo:r_hi
                # and columns c_lo:c_hi, and under their shifted partners.
                here = padded[:, r_lo : r_hi + 2 * p, c_lo : c_hi + 2 * p]
                there = padded[:, r_lo + dy : r_hi + dy + 2 * p,
                               c_lo + dx : c_hi + dx + 2 * p]
                sq = (here - there) ** 2
                dist = _box_sum(sq, k)
                weight = np.exp(-dist / h2)
                vals = xs[:, r_lo + dy : r_hi + dy, c_lo + dx : c_hi + dx]
                numer[:, r_lo:r_hi, c_lo:c_hi] += weight * vals
                denom[:, r_lo:r_hi, c_lo:c_hi] += weight
        return numer / denom


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
        if not np.all(np.isfinite(centers)):
            raise ConfigError("centers must be finite")
        self.centers = centers
        self.noise_variance = _positive("noise variance", noise_variance)

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
        self.noise_variance = _positive("noise variance", noise_variance)

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
