"""Deterministic synthetic grayscale scenes for experiments and tests.

Natural photographs cannot be shipped here, so these recipes compose the
ingredients that drive the diagnostics the same way photographs do:
smooth shading, occlusion edges, repetitive texture, and band-limited
noise.  Every scene is a pure function of its index, so experiment inputs
are reproducible without bundled binary data.

Diagnostic patches are additionally rank-equalized to a permutation of
0..255.  That keeps the spatial structure (any monotone remap does) while
guaranteeing two properties the finite-difference probes rely on:

* all pixel values are distinct integers, so median selections never tie
  and central differences of order statistics stay exact;
* every Haar coefficient is an integer multiple of a power of 1/2, far
  from any soft-threshold kink relative to the probe step.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, _count, _extent
from .image import Image, awgn, extract_center_patch

__all__ = [
    "diagnostic_patches",
    "evaluation_points",
    "rank_equalize",
    "solver_scene",
    "synthetic_scene",
]


def _coords(size: int) -> tuple[np.ndarray, np.ndarray]:
    axis = np.linspace(-1.0, 1.0, size)
    return np.meshgrid(axis, axis, indexing="ij")


def synthetic_scene(index: int, size: int = 64) -> Image:
    """Integer-valued scene in [0, 255], deterministic in (index, size)."""
    size = _count("scene size", size, 4)
    rng = np.random.default_rng(1000 + _count("scene index", index, 0))
    yy, xx = _coords(size)
    img = np.zeros((size, size))

    # Oriented shading ramp.
    theta = rng.uniform(0.0, 2.0 * np.pi)
    img += rng.uniform(0.5, 1.5) * (np.cos(theta) * xx + np.sin(theta) * yy)

    # A few soft blobs of either sign.
    for _ in range(rng.integers(2, 5)):
        cy, cx = rng.uniform(-0.7, 0.7, size=2)
        width = rng.uniform(0.15, 0.5)
        amp = rng.uniform(0.4, 1.2) * rng.choice([-1.0, 1.0])
        img += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * width**2))

    # Repetitive texture.
    fy, fx = rng.uniform(1.5, 4.5, size=2)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    img += rng.uniform(0.15, 0.45) * np.sin(np.pi * (fy * yy + fx * xx) + phase)

    # One or two occlusion edges (half-plane steps).
    for _ in range(rng.integers(1, 3)):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        offset = rng.uniform(-0.5, 0.5)
        mask = (np.cos(theta) * xx + np.sin(theta) * yy) > offset
        img += rng.uniform(0.3, 0.9) * rng.choice([-1.0, 1.0]) * mask

    # Band-limited noise: white noise shaped by a Gaussian in frequency.
    white = rng.standard_normal((size, size))
    freq = np.fft.fftfreq(size)
    wy, wx = np.meshgrid(freq, freq, indexing="ij")
    lowpass = np.exp(-(wy**2 + wx**2) / (2.0 * 0.08**2))
    img += 0.25 * np.fft.ifft2(np.fft.fft2(white) * lowpass).real

    lo, hi = img.min(), img.max()
    if hi - lo < 1e-12:
        return Image(np.full((size, size), 128.0))
    scaled = (img - lo) / (hi - lo) * 245.0 + 5.0
    return Image(np.floor(scaled + 0.5))


def rank_equalize(img: Image) -> Image:
    """Monotone remap of pixels onto the permutation 0..N-1 (N <= 256)."""
    n = img.size
    if n > 256:
        raise ShapeError(f"rank equalization targets <= 256 pixels, got {n}")
    order = np.argsort(img.flat, kind="stable")
    values = np.empty(n)
    values[order] = np.round(np.linspace(0.0, 255.0, n))
    return Image.from_flat(values, img.height, img.width)


def diagnostic_patches(count: int = 12, size: int = 16) -> list[Image]:
    """Center patches of successive scenes, rank-equalized per patch."""
    size = _extent("patch size", size)
    patches = []
    for index in range(_count("count", count)):
        scene = synthetic_scene(index, size=4 * size)
        patches.append(rank_equalize(extract_center_patch(scene, size)))
    return patches


def evaluation_points(count: int = 10, size: int = 16,
                      noise_variance: float = 625.0, seed0: int = 100) -> list[Image]:
    """Noisy diagnostic patches: the denoisers' operating condition.

    Each clean patch gets seeded white noise at the variance the
    denoisers under study assume.  Noise makes all pixel values distinct
    almost surely (good for order-statistic probes) and spreads transform
    coefficients away from shrinkage kinks; the frozen seeds are checked
    for the latter in the test suite.
    """
    patches = diagnostic_patches(count=count, size=size)
    return [awgn(p, noise_variance, seed=seed0 + i) for i, p in enumerate(patches)]


def solver_scene(size: int = 64, index: int = 0) -> Image:
    """Default ground-truth image for recovery experiments."""
    return synthetic_scene(index, size=size)
