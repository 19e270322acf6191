"""Image denoisers used as regularization engines.

Each denoiser is a deterministic map f: image -> image of the same shape,
defined by one array kernel over a leading batch axis.  `apply` maps one
Image and `apply_stack` a (B, h, w) stack; both run the kernel, so row b of
a stack is bitwise `apply` of image b.  The collection spans the structural
properties the diagnostics probe:

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

import collections
import contextlib
import functools
import math

import numpy as np

from .errors import ConfigError, DomainError, ShapeError, _count, _positive, _shape
from .image import Image
from .operators import CircularConvolution, _irfft2, _rfft2

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
    """Base class: a shape-preserving deterministic image map.

    A subclass defines only `_kernel`, f on a float64 (B, h, w) stack of
    finite pixels.  `apply` runs the kernel on a stack of one, so single
    images and stacks share one code path.  `apply_stack` rejects
    non-finite pixels as Image does, so a stack raises DomainError where
    `apply` would, and kernels may assume finite input.
    """

    def _kernel(self, xs: np.ndarray) -> np.ndarray:
        """f of each image of xs, as a (B, h, w) float64 array that the
        kernel never writes again: `apply` wraps row 0 without a copy."""
        raise NotImplementedError

    def apply(self, x: Image) -> Image:
        return Image._adopt(self._kernel(x.pixels[None])[0])

    def apply_stack(self, xs: np.ndarray) -> np.ndarray:
        """f on each image of a float64 (B, h, w) stack, as a (B, h, w) array."""
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 3:
            raise ShapeError(f"expected a (B, h, w) stack, got shape {xs.shape}")
        if not np.isfinite(xs).all():
            raise DomainError("image pixels must be finite")
        return self._kernel(xs)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


_SQRT2 = np.sqrt(2.0)


def _check_haar_shape(a: np.ndarray) -> None:
    h, w = a.shape[-2:]
    if not (_is_power_of_two(h) and _is_power_of_two(w)):
        raise ShapeError(
            f"Haar transform requires power-of-two extents, got {a.shape[-2:]}"
        )


class _HaarPlan:
    """Buffers and pass views of both Haar transforms for one array shape.

    A transform runs in place in `out`.  Each pass is a view tuple
    (x, y, sums, diffs, t, block) and three ufunc calls: the pair sums and
    differences x + y and x - y go into the two parts of `t`, a prefix of
    one scratch buffer shaped like the block, and one division by sqrt(2)
    writes `t` back into the block of `out`.  The forward passes pair the
    even and odd columns, then rows, of each level from the finest; the
    inverse passes pair the low and high halves of the rows, then columns,
    from the coarsest, and interleave their sums and differences.  Between
    the two, TDT's shrinkage keeps the signs of `out` in `sign`, all of the
    scratch buffer.
    """

    def __init__(self, shape: tuple[int, ...]):
        self.out = out = np.empty(shape)
        scratch = np.empty(out.size)
        self.sign = scratch.reshape(shape)
        self.forward = []
        self.inverse = []
        # Block sizes of the forward levels, finest first.
        levels = []
        h, w = shape[-2:]
        while h > 1 or w > 1:
            levels.append((h, w))
            h, w = max(h // 2, 1), max(w // 2, 1)
        for h, w in levels:
            block = out[..., :h, :w]
            t = scratch[: block.size].reshape(block.shape)
            if w > 1:
                self.forward.append((block[..., :, 0::2], block[..., :, 1::2],
                                     t[..., :, : w // 2], t[..., :, w // 2 :], t, block))
            if h > 1:
                self.forward.append((block[..., 0::2, :], block[..., 1::2, :],
                                     t[..., : h // 2, :], t[..., h // 2 :, :], t, block))
        for h, w in reversed(levels):
            block = out[..., :h, :w]
            t = scratch[: block.size].reshape(block.shape)
            if h > 1:
                self.inverse.append((block[..., : h // 2, :], block[..., h // 2 :, :],
                                     t[..., 0::2, :], t[..., 1::2, :], t, block))
            if w > 1:
                self.inverse.append((block[..., :, : w // 2], block[..., :, w // 2 :],
                                     t[..., :, 0::2], t[..., :, 1::2], t, block))


# Plans by array shape, least recently used first.  A call takes its plan
# out of the cache while it runs, so a concurrent or re-entrant call on the
# same shape builds its own and no two calls share a buffer.
_HAAR_PLANS: collections.OrderedDict[tuple[int, ...], _HaarPlan] = collections.OrderedDict()
_HAAR_PLAN_LIMIT = 8


def _passes(passes: list[tuple[np.ndarray, ...]]) -> None:
    for x, y, sums, diffs, t, block in passes:
        np.add(x, y, out=sums)
        np.subtract(x, y, out=diffs)
        np.divide(t, _SQRT2, out=block)


def _haar(a: np.ndarray, forward: bool = False, inverse: bool = False,
          threshold: float = 0.0) -> np.ndarray:
    """`a` through the plan for its shape: its forward passes, its inverse
    passes, or both with soft thresholding at `threshold` in between, into
    a fresh copy of the plan's output buffer."""
    a = np.asarray(a, dtype=np.float64)
    _check_haar_shape(a)
    plan = _HAAR_PLANS.pop(a.shape, None)
    if plan is None:
        plan = _HaarPlan(a.shape)
    out = plan.out
    np.copyto(out, a)
    if forward:
        _passes(plan.forward)
    if forward and inverse:
        _soft_threshold(out, threshold, plan.sign)
    if inverse:
        _passes(plan.inverse)
    result = out.copy()
    _HAAR_PLANS[a.shape] = plan
    while len(_HAAR_PLANS) > _HAAR_PLAN_LIMIT:
        # Other threads may check plans out between the test and the pop.
        with contextlib.suppress(KeyError):
            _HAAR_PLANS.popitem(last=False)
    return result


def haar_forward(a: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D Haar analysis at maximum decomposition depth.

    Transforms the last two axes, so a (B, h, w) stack is B independent
    images.  Both extents must be powers of two (1 is allowed, giving a
    1-D transform along the other axis).  Coefficients are packed in the
    usual recursive quadrant layout; the transform is orthonormal, so
    energy is preserved exactly.  It replays the forward passes of a
    _HaarPlan cached for the shape and returns a fresh array.
    """
    return _haar(a, forward=True)


def haar_inverse(c: np.ndarray) -> np.ndarray:
    """Inverse of haar_forward, also over the last two axes: the inverse
    passes of the shape's plan, into a fresh array."""
    return _haar(c, inverse=True)


def _soft_threshold(c: np.ndarray, tau: float, sign: np.ndarray) -> None:
    """c <- sign(c) * max(|c| - tau, 0) in place, sign(c) written to `sign`."""
    np.sign(c, out=sign)
    np.abs(c, out=c)
    np.subtract(c, tau, out=c)
    np.maximum(c, 0.0, out=c)
    np.multiply(sign, c, out=c)


class TdtDenoiser(Denoiser):
    """Transform-domain soft thresholding in an orthonormal Haar basis.

    All coefficients are thresholded, the coarsest scaling coefficient
    included.  With threshold 0 the map is the identity.  Because the
    transform is orthogonal and the shrinkage acts componentwise, the
    Jacobian (where defined) is symmetric, and the map is non-expansive.
    """

    def __init__(self, threshold: float):
        threshold = float(threshold)
        if not 0 <= threshold < math.inf:
            raise ConfigError(f"threshold must be finite and >= 0, got {threshold}")
        self.threshold = threshold

    def _kernel(self, xs: np.ndarray) -> np.ndarray:
        return _haar(xs, forward=True, inverse=True, threshold=self.threshold)


class MedianFilterDenoiser(Denoiser):
    """Moving-window median with replicate (edge) padding.

    Each window's middle value is selected by one in-place partition,
    bitwise np.median over the window on finite input, which apply_stack
    enforces: NaN would not propagate through the partition.
    """

    def __init__(self, window: int = 3):
        self.window = _count("window", window)
        if self.window % 2 == 0:
            raise ConfigError(f"window must be odd and positive, got {window}")

    def _kernel(self, xs: np.ndarray) -> np.ndarray:
        b, h, w = xs.shape
        if self.window > min(h, w):
            raise ShapeError(f"window {self.window} exceeds image extent {h}x{w}")
        r = self.window // 2
        padded = np.pad(xs, ((0, 0), (r, r), (r, r)), mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, (self.window, self.window), axis=(1, 2)
        ).reshape(b, h, w, self.window**2)
        mid = self.window**2 // 2
        # Window 1 reshapes to a read-only view, already partitioned.
        if mid:
            windows.partition(mid, axis=-1)
        # np.median adds its one selected value to 0.0, which turns -0.0
        # into 0.0 and leaves every other finite value as it is.
        return windows[..., mid] + 0.0


def _box_sum(sq: np.ndarray, k: int, row_buffer: np.ndarray,
             out_buffer: np.ndarray) -> np.ndarray:
    """Sums of a C-ordered batch-last (rows, cols, B) array over every k x k window.

    The row sums and the result are written into C-ordered prefixes of the
    flat buffers `row_buffer` and `out_buffer`, which must hold at least
    rows * (cols - k + 1) * B and (rows - k + 1) * (cols - k + 1) * B
    values; the result is a view of `out_buffer`.  With the batch last, a
    row of a slice of sq is one run of (cols - k + 1) * B values, so the
    adds over a stack of small images run long inner loops.

    The additions run in the order numpy's np.sum(..., axis=(2, 3)) uses on
    an array of k x k patches of one image, so the result is bitwise that
    sum: row sums over k columns, then added down the k rows in order by
    k - 1 shifted in-place adds of row slices.  numpy adds fewer than 8
    values one after another, so for k <= 7 the row sums are likewise the
    first column slice plus k - 1 shifted in-place adds of the next ones.
    From 8 values on numpy sums pairwise, which shifted adds do not
    reproduce, so for k >= 9 the row sums are one np.add.reduce over
    strided (..., k) windows.  With one window per row numpy sums each
    patch's k * k values as one vector instead, again by one np.add.reduce.
    Both reductions read a (B, rows, cols) copy of sq (for B = 1 the same
    memory): over batch-last windows numpy would loop over the batch
    innermost and add the k values in sequence.
    """
    rows, cols, b = sq.shape
    out_rows, out_cols = rows - k + 1, cols - k + 1
    as_strided = np.lib.stride_tricks.as_strided
    out = out_buffer[: out_rows * out_cols * b].reshape(out_rows, out_cols, b)
    if out_cols == 1 or k >= 9:
        images = np.ascontiguousarray(sq.transpose(2, 0, 1))
        sb, sr, sc = images.strides
    if out_cols == 1:
        patches = as_strided(images, (b, out_rows, k * k), (sb, sr, sc), writeable=False)
        np.add.reduce(patches, axis=2, out=out[:, 0].T)
        return out
    row_sums = row_buffer[: rows * out_cols * b].reshape(rows, out_cols, b)
    if k <= 7:
        np.copyto(row_sums, sq[:, :out_cols])
        for j in range(1, k):
            row_sums += sq[:, j : j + out_cols]
    else:
        windows = as_strided(images, (b, rows, out_cols, k), (sb, sr, sc, sc), writeable=False)
        np.add.reduce(windows, axis=3, out=row_sums.transpose(2, 0, 1))
    np.copyto(out, row_sums[:out_rows])
    for i in range(1, k):
        out += row_sums[i : i + out_rows]
    return out


# Bytes of weight arrays an NLM call keeps for the mirrored offsets; beyond
# it a mirror recomputes its weights (one 256 x 256 apply would keep 31 MB).
_MIRROR_BYTES = 4 << 20


class NlmDenoiser(Denoiser):
    """Non-local means with Gaussian patch-distance weights.

    Every output pixel is a convex combination of input pixels inside its
    search window (the weight matrix is row-stochastic and includes the
    self weight), so outputs stay within the local input range.  Patches
    near the border are completed by replicate padding; search windows are
    clipped to the image.

    For each search offset the squared pixel differences are formed once
    per padded pixel and box-summed over the patches (Darbon et al., ISBI
    2008), bitwise the per-patch sum over (k, k) (see _box_sum).  The
    weight exp(-d / h^2) is formed in place as exp(d / -h^2), which is
    bitwise the same because IEEE division is sign-symmetric.  Offsets are
    visited in a fixed order and each adds its terms to the numerator and
    denominator before the next, so the result does not depend on the
    batch size.  All of this runs on a batch-last (h, w, B) copy of the
    stack, so each row of a clipped window is one run of w_d * B values,
    not B runs of w_d: every pass over a stack of small images runs long
    inner loops.  For B = 1 the copy is the same memory.

    The patch distance from q to q + d is the one from q + d to q, summed
    in the same order over a region of the same shape, so the weight array
    of offset -d is bitwise that of offset d.  The first offset of each
    pair keeps its weights for the mirror while the kept arrays fit in
    _MIRROR_BYTES; a mirror past that budget recomputes them, with the same
    bits.  The squared differences and numerator terms of every offset are
    formed in one scratch buffer, its box sums and weights in two more and
    the kept weights in a fourth, all allocated once per call.
    """

    def __init__(self, patch_radius: int = 1, search_radius: int = 5,
                 bandwidth: float | None = None, noise_variance: float | None = None):
        self.patch_radius = _count("patch radius", patch_radius, 0)
        self.search_radius = _count("search radius", search_radius, 0)
        if noise_variance is not None:
            noise_variance = _positive("noise variance", noise_variance)
        if bandwidth is None:
            if noise_variance is None:
                raise ConfigError("provide either bandwidth or noise_variance")
            # Conventional scaling: h^2 = 2 * variance * (patch pixel count).
            bandwidth = float(
                np.sqrt(2.0 * noise_variance * (2 * self.patch_radius + 1) ** 2)
            )
        self.bandwidth = _positive("bandwidth", bandwidth)

    def _kernel(self, xs: np.ndarray) -> np.ndarray:
        b, h, w = xs.shape
        p = self.patch_radius
        s = self.search_radius
        k = 2 * p + 1
        x = np.ascontiguousarray(xs.transpose(1, 2, 0))
        padded = np.pad(x, ((p, p), (p, p), (0, 0)), mode="edge")
        h2 = self.bandwidth**2
        numer = np.zeros(x.shape)
        denom = np.zeros(x.shape)
        # One buffer for the squared differences and the numerator terms of
        # every offset; prefixes of it are C-ordered, as _box_sum needs.
        scratch = np.empty(padded.size)
        # The box sums' row sums and results, then the weights, of every
        # offset that keeps none for its mirror.
        row_buffer = np.empty(padded.shape[0] * w * b)
        dist_buffer = np.empty(x.size)
        # Weights of offsets d that come before -d in the loop, kept for
        # their mirror in consecutive slices of one buffer while they fit
        # in the byte budget; at most half of the other offsets keep any.
        kept: dict[tuple[int, int], np.ndarray] = {}
        kept_buffer = np.empty(min(_MIRROR_BYTES // 8, x.size * ((2 * s + 1) ** 2 // 2)))
        used = 0
        for dy in range(-s, s + 1):
            r_lo, r_hi = max(0, -dy), min(h, h - dy)
            if r_lo >= r_hi:
                continue
            for dx in range(-s, s + 1):
                c_lo, c_hi = max(0, -dx), min(w, w - dx)
                if c_lo >= c_hi:
                    continue
                weight = kept.pop((dy, dx), None)
                if weight is None:
                    # Padded pixels under the patches centred at rows
                    # r_lo:r_hi and columns c_lo:c_hi, and under their
                    # shifted partners.
                    here = padded[r_lo : r_hi + 2 * p, c_lo : c_hi + 2 * p]
                    there = padded[r_lo + dy : r_hi + dy + 2 * p,
                                   c_lo + dx : c_hi + dx + 2 * p]
                    sq = scratch[: here.size].reshape(here.shape)
                    np.subtract(here, there, out=sq)
                    size = (r_hi - r_lo) * (c_hi - c_lo) * b
                    keep = (dy, dx) < (0, 0) and used + size <= kept_buffer.size
                    dist = _box_sum(np.square(sq, out=sq), k, row_buffer,
                                    kept_buffer[used:] if keep else dist_buffer)
                    # exp(-dist / h^2); IEEE division is sign-symmetric.
                    weight = np.exp(np.divide(dist, -h2, out=dist), out=dist)
                    if keep:
                        kept[(-dy, -dx)] = weight
                        used += size
                vals = x[r_lo + dy : r_hi + dy, c_lo + dx : c_hi + dx]
                terms = scratch[: weight.size].reshape(weight.shape)
                numer[r_lo:r_hi, c_lo:c_hi] += np.multiply(weight, vals, out=terms)
                denom[r_lo:r_hi, c_lo:c_hi] += weight
        return np.ascontiguousarray((numer / denom).transpose(2, 0, 1))


class LinearSymmetricDenoiser(Denoiser):
    """Periodic convolution W with an even kernel and spectral radius <= 1.

    W is the circulant matrix of `kernel` on images of `shape`, acting on
    row-major flattened images.  The DFT diagonalises it: its eigenvalues
    are the kernel's transfer-function values on the image grid.
    Construction checks that the kernel is even (equal to itself reversed
    along both axes, bitwise), so W is symmetric, and that the largest
    transfer-function magnitude is at most 1 + 1e-10, so W has spectral
    radius <= 1.  `apply` and `apply_stack` run in the frequency domain, a
    whole stack through one pair of half-spectrum transforms; the dense
    `matrix` is built only when first read, for small-image diagnostics.
    """

    def __init__(self, kernel: np.ndarray, shape: tuple[int, int]):
        self._convolution = CircularConvolution(kernel)
        kernel = self._convolution.kernel
        if not np.array_equal(kernel, kernel[::-1, ::-1]):
            raise ConfigError("kernel is not even-symmetric, so W is not symmetric")
        self.kernel = kernel
        self.shape = _shape(shape)
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

    def _kernel(self, xs: np.ndarray) -> np.ndarray:
        if xs.shape[1:] != self.shape:
            raise ShapeError(f"expected shape {self.shape}, got {xs.shape[1:]}")
        tf = self._convolution.half_transfer_function(self.shape)
        return _irfft2(_rfft2(xs) * tf, self.shape[1])


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

    def log_kernels(self, r: np.ndarray) -> np.ndarray:
        """-||r - c_t||^2 / (2 nu) for each center c_t, r a flat vector."""
        return self._log_kernels(np.asarray(r, dtype=np.float64).reshape(1, -1))[0]

    def posterior_mean(self, r: np.ndarray) -> np.ndarray:
        return self._posterior_means(np.asarray(r, dtype=np.float64).reshape(1, -1))[0]

    def _log_kernels(self, rs: np.ndarray) -> np.ndarray:
        """log_kernels of each row of a (B, N) array, as a (B, T) array."""
        n = self.centers.shape[1]
        if rs.shape[1] != n:
            raise ShapeError(f"input dimension {rs.shape[1]} != center dimension {n}")
        sq = (rs[:, None, :] - self.centers) ** 2
        return -np.sum(sq, axis=2) / (2.0 * self.noise_variance)

    def _posterior_means(self, rs: np.ndarray) -> np.ndarray:
        """posterior_mean of each row of a (B, N) array, as a (B, N) array.

        The weights of all rows are formed and normalized as one array; the
        weighted sum of the centers stays one product per row, because a
        (B, T) @ (T, N) matmul does not add in the per-row product's order.
        """
        log_w = self._log_kernels(rs)
        log_w -= log_w.max(axis=1, keepdims=True)
        weights = np.exp(log_w)
        weights /= weights.sum(axis=1, keepdims=True)
        return np.stack([w @ self.centers for w in weights])

    def _kernel(self, xs: np.ndarray) -> np.ndarray:
        b, h, w = xs.shape
        return self._posterior_means(xs.reshape(b, h * w)).reshape(xs.shape)


class BernoulliMmseDenoiser(Denoiser):
    """Exact posterior mean for i.i.d. equiprobable {0, 1} pixels.

    Under r_n = x_n + N(0, nu), Bayes' rule gives
    E[x_n | r_n] = N(r_n; 1, nu) / (N(r_n; 1, nu) + N(r_n; 0, nu)),
    evaluated here in the numerically stable logistic form
    1 / (1 + exp((1 - 2 r_n) / (2 nu))).  The map is elementwise, so its
    stack kernel is the posterior mean of the whole stack.
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

    def _kernel(self, xs: np.ndarray) -> np.ndarray:
        return self.posterior_mean(xs)
