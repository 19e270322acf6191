"""Grayscale image container, PGM I/O, CSV text, and pixel-domain utilities.

Images are immutable float64 grids in row-major order.  Pixel values are
unconstrained reals; nothing in the pipeline clips implicitly, so values
only meet the [0, 255] range where an operation states that precondition
(PGM export does, arithmetic does not).
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, PgmParseError, ShapeError, UnsupportedFormatError,
                     _count, _extent, _finite, _nonnegative)

__all__ = [
    "Image",
    "awgn",
    "extract_center_patch",
    "format_csv",
    "load_pgm",
    "psnr",
    "save_pgm",
]


@dataclass(frozen=True, eq=False)
class Image:
    """An immutable height x width grid of float64 samples.

    The wrapped array is copied on construction and marked read-only, so
    instances can be shared freely between operations.  Inside the package,
    `_adopt` wraps a freshly computed array that its caller never writes
    again: the same checks and read-only flag, without the copy.
    """

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", _frozen(np.array(self.pixels, np.float64, order="C")))

    @classmethod
    def _adopt(cls, a: np.ndarray) -> Image:
        image = object.__new__(cls)
        object.__setattr__(image, "pixels", _frozen(np.asarray(a, np.float64)))
        return image

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
        height, width = _extent("height", height), _extent("width", width)
        if values.size != height * width:
            raise ShapeError(
                f"cannot reshape {values.size} values to {height}x{width}"
            )
        return cls(values.reshape(height, width))

    def same_shape(self, other: "Image") -> bool:
        return self.pixels.shape == other.pixels.shape


def _frozen(a: np.ndarray) -> np.ndarray:
    """`a`, a 2-D array of positive extents and finite values, made read-only."""
    if a.ndim != 2:
        raise ShapeError(f"image requires a 2-D array, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"image dimensions must be positive, got {a.shape}")
    _finite("image pixels", a, DomainError)
    a.flags.writeable = False
    return a


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
    size = _extent("patch size", size)
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
    variance = _nonnegative("noise variance", variance, DomainError)
    rng = np.random.default_rng(_count("seed", seed, 0))
    noise = rng.standard_normal(x.pixels.shape)
    return Image(x.pixels + math.sqrt(variance) * noise)


def _round_half_away(a: np.ndarray) -> np.ndarray:
    return np.sign(a) * np.floor(np.abs(a) + 0.5)


# A token is a run of the bytes that bytes.isspace() rejects; the one comment
# line allowed follows the magic number.
_TOKEN = re.compile(rb"[^ \t\n\r\x0b\x0c]+")
_COMMENT = re.compile(rb"[ \t\n\r\x0b\x0c]*#[^\n]*")


def _integer(tokens: Iterator[re.Match], what: str, end: int) -> tuple[int, re.Match]:
    """The next token's value and match; running out of tokens is the end of
    data at `end`.  A PGM integer is ASCII decimal digits, so a sign or an
    underscore, which int() would accept, makes the token no integer."""
    token = next(tokens, None)
    if token is None:
        raise PgmParseError(f"unexpected end of data while reading {what}", end)
    if token[0].isdigit():
        try:
            return int(token[0]), token
        except ValueError:  # more digits than int() converts
            pass
    raise PgmParseError(f"expected integer for {what}, got {token[0]!r}", token.start())


def load_pgm(path: str) -> Image:
    """Load a binary (P5) or ASCII (P2) PGM file with maxval <= 255.

    A single comment line immediately after the magic number is tolerated.
    Every header value and P2 sample is a run of ASCII decimal digits.
    Malformed files, samples above maxval included, raise PgmParseError
    naming a byte offset: the first byte of the offending token or P5
    byte, or the end of the data where it runs out.  Maxval above 255
    raises UnsupportedFormatError.  No array is allocated from the declared
    size, so a header that declares more than the file holds fails this
    way at any size.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic = _TOKEN.search(data)
    if magic is None:
        raise PgmParseError("unexpected end of data while reading magic number", len(data))
    if magic[0] not in (b"P2", b"P5"):
        raise PgmParseError(f"unsupported magic number {magic[0]!r}", 0)
    comment = _COMMENT.match(data, magic.end())
    tokens = _TOKEN.finditer(data, (comment or magic).end())
    width, width_token = _integer(tokens, "width", len(data))
    height, _ = _integer(tokens, "height", len(data))
    maxval, maxval_token = _integer(tokens, "maxval", len(data))
    if width < 1 or height < 1:
        raise PgmParseError(f"invalid dimensions {width}x{height}", width_token.start())
    if maxval > 255:
        raise UnsupportedFormatError(
            f"maxval {maxval} exceeds 255; only 8-bit PGM is supported"
        )
    if maxval < 1:
        raise PgmParseError(f"invalid maxval {maxval}", maxval_token.start())

    count = width * height
    if magic[0] == b"P5":
        pos = maxval_token.end()
        if not data[pos : pos + 1].isspace():
            raise PgmParseError("expected single whitespace before raster", pos)
        pos += 1
        raster = data[pos : pos + count]
        if len(raster) < count:
            raise PgmParseError(
                f"raster truncated: expected {count} bytes, got {len(raster)}",
                pos + len(raster),
            )
        values = np.frombuffer(raster, dtype=np.uint8, count=count).astype(np.float64)
        above = np.flatnonzero(values > maxval)
        if above.size:
            at = int(above[0])
            raise PgmParseError(f"pixel value {values[at]:g} outside [0, {maxval}]", pos + at)
    else:
        def samples():
            for _ in range(count):
                v, token = _integer(tokens, "pixel value", len(data))
                if v > maxval:
                    raise PgmParseError(
                        f"pixel value {v} outside [0, {maxval}]", token.start()
                    )
                yield v

        values = np.fromiter(samples(), dtype=np.float64)
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


def format_csv(header: list[str], rows: list[list[str]]) -> str:
    """CSV text with a header row and "\\n" line endings."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()
