"""Grayscale image container, PGM I/O, and pixel-domain utilities.

Images are immutable float64 grids in row-major order.  Pixel values are
unconstrained reals; nothing in the pipeline clips implicitly, so values
only meet the [0, 255] range where an operation states that precondition
(PGM export does, arithmetic does not).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PgmParseError, ShapeError, UnsupportedFormatError

__all__ = [
    "Image",
    "awgn",
    "extract_center_patch",
    "load_pgm",
    "psnr",
    "save_pgm",
]


@dataclass(frozen=True)
class Image:
    """A height x width grid of float64 samples with value semantics.

    The wrapped array is copied on construction and marked read-only, so
    instances can be shared freely between operations.
    """

    pixels: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.pixels, dtype=np.float64)
        if a.ndim != 2:
            raise ShapeError(f"image requires a 2-D array, got ndim={a.ndim}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ShapeError(f"image dimensions must be positive, got {a.shape}")
        if not np.isfinite(a).all():
            raise DomainError("image pixels must be finite")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "pixels", a)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def size(self) -> int:
        return self.pixels.size

    @property
    def flat(self) -> np.ndarray:
        """Row-major 1-D read-only view of the pixels."""
        return self.pixels.reshape(-1)

    @classmethod
    def from_flat(cls, values: np.ndarray, height: int, width: int) -> "Image":
        values = np.asarray(values, dtype=np.float64)
        if values.size != height * width:
            raise ShapeError(
                f"cannot reshape {values.size} values to {height}x{width}"
            )
        return cls(values.reshape(height, width))

    def same_shape(self, other: "Image") -> bool:
        return self.pixels.shape == other.pixels.shape


def psnr(x: Image, reference: Image) -> float:
    """Peak signal-to-noise ratio in dB with a fixed peak of 256.

    Computed as -10*log10(||x - ref||^2 / (N * 256^2)).  Identical images
    return +inf.  The metric is symmetric in its arguments.
    """
    if not x.same_shape(reference):
        raise ShapeError(
            f"psnr requires equal shapes, got {x.pixels.shape} and "
            f"{reference.pixels.shape}"
        )
    err = float(np.sum((x.pixels - reference.pixels) ** 2))
    if err == 0.0:
        return math.inf
    return -10.0 * math.log10(err / (x.size * 256.0**2))


def extract_center_patch(img: Image, size: int) -> Image:
    """Extract the centered size x size patch.

    When the margin is odd the patch is biased toward the top-left of the
    two candidate centers (floor division).
    """
    if size < 1:
        raise ShapeError(f"patch size must be positive, got {size}")
    if size > img.height or size > img.width:
        raise ShapeError(
            f"patch size {size} exceeds image extent {img.height}x{img.width}"
        )
    r0 = (img.height - size) // 2
    c0 = (img.width - size) // 2
    return Image(img.pixels[r0 : r0 + size, c0 : c0 + size])


def awgn(x: Image, variance: float, seed: int) -> Image:
    """Add white Gaussian noise of the given variance.

    The noise stream is drawn from numpy's PCG64 generator seeded with
    `seed`, so a given (image, variance, seed) triple always produces the
    same output.
    """
    if variance < 0:
        raise DomainError(f"noise variance must be >= 0, got {variance}")
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(x.pixels.shape)
    return Image(x.pixels + math.sqrt(variance) * noise)


def _round_half_away(a: np.ndarray) -> np.ndarray:
    return np.sign(a) * np.floor(np.abs(a) + 0.5)


class _PgmScanner:
    """Token scanner for PGM headers that tracks byte offsets."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip_whitespace(self):
        while self.pos < len(self.data) and self.data[self.pos : self.pos + 1].isspace():
            self.pos += 1

    def skip_comment_line(self) -> bool:
        """Consume one '#' comment line if present; returns True if consumed."""
        self.skip_whitespace()
        if self.pos < len(self.data) and self.data[self.pos] == ord("#"):
            nl = self.data.find(b"\n", self.pos)
            self.pos = len(self.data) if nl < 0 else nl + 1
            return True
        return False

    def token(self, what: str) -> bytes:
        self.skip_whitespace()
        if self.pos >= len(self.data):
            raise PgmParseError(f"unexpected end of data while reading {what}", self.pos)
        start = self.pos
        while self.pos < len(self.data) and not self.data[self.pos : self.pos + 1].isspace():
            self.pos += 1
        return self.data[start : self.pos]

    def integer(self, what: str) -> int:
        self.skip_whitespace()
        start = self.pos
        tok = self.token(what)
        try:
            return int(tok)
        except ValueError:
            raise PgmParseError(
                f"expected integer for {what}, got {tok!r}", start
            ) from None


def load_pgm(path: str) -> Image:
    """Load a binary (P5) or ASCII (P2) PGM file with maxval <= 255.

    A single comment line immediately after the magic number is tolerated.
    Malformed files, samples above maxval included, raise PgmParseError
    naming the byte offset; maxval above 255 raises UnsupportedFormatError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    sc = _PgmScanner(data)
    magic = sc.token("magic number")
    if magic not in (b"P2", b"P5"):
        raise PgmParseError(f"unsupported magic number {magic!r}", 0)
    sc.skip_comment_line()
    # Header errors name the first byte of the offending token.
    sc.skip_whitespace()
    width_at = sc.pos
    width = sc.integer("width")
    height = sc.integer("height")
    sc.skip_whitespace()
    maxval_at = sc.pos
    maxval = sc.integer("maxval")
    if width < 1 or height < 1:
        raise PgmParseError(f"invalid dimensions {width}x{height}", width_at)
    if maxval > 255:
        raise UnsupportedFormatError(
            f"maxval {maxval} exceeds 255; only 8-bit PGM is supported"
        )
    if maxval < 1:
        raise PgmParseError(f"invalid maxval {maxval}", maxval_at)

    count = width * height
    if magic == b"P5":
        if sc.pos >= len(data) or not data[sc.pos : sc.pos + 1].isspace():
            raise PgmParseError("expected single whitespace before raster", sc.pos)
        sc.pos += 1
        raster = data[sc.pos : sc.pos + count]
        if len(raster) < count:
            raise PgmParseError(
                f"raster truncated: expected {count} bytes, got {len(raster)}",
                sc.pos + len(raster),
            )
        values = np.frombuffer(raster, dtype=np.uint8, count=count).astype(np.float64)
        above = np.flatnonzero(values > maxval)
        if above.size:
            at = int(above[0])
            raise PgmParseError(f"pixel value {values[at]:g} outside [0, {maxval}]", sc.pos + at)
    else:
        values = np.empty(count, dtype=np.float64)
        for i in range(count):
            sc.skip_whitespace()
            at = sc.pos
            v = sc.integer("pixel value")
            if v < 0 or v > maxval:
                raise PgmParseError(
                    f"pixel value {v} outside [0, {maxval}]", at
                )
            values[i] = v
    return Image.from_flat(values, height, width)


def save_pgm(img: Image, path: str) -> None:
    """Write a binary (P5) PGM file.

    Pixels are rounded half away from zero and must land in [0, 255];
    values outside that range raise DomainError, since clipping is the
    caller's explicit responsibility.
    """
    rounded = _round_half_away(img.pixels)
    if rounded.min() < 0 or rounded.max() > 255:
        raise DomainError(
            "pixels outside [0, 255] after rounding; clip explicitly before saving"
        )
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(rounded.astype(np.uint8).tobytes())
