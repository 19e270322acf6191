"""Exception types shared across the package, and its parameter rules."""

import math

import numpy as np


class RedlabError(Exception):
    """Base class for all errors raised by this package.

    Errors pickle, so a worker process can send one back: subclasses format
    their message in ``__init__``, so unpickling restores `args` and the
    attributes without calling it again.
    """

    def __reduce__(self):
        return _restore, (type(self), self.args, self.__dict__)


def _restore(cls: type, args: tuple, state: dict) -> RedlabError:
    exc = cls.__new__(cls)
    exc.args = args
    exc.__dict__.update(state)
    return exc


class ShapeError(RedlabError):
    """Operands have incompatible or unsupported shapes."""


class DomainError(RedlabError):
    """A value lies outside the domain an operation requires."""


class ConfigError(RedlabError):
    """A parameter or configuration value is invalid."""


def _positive(name: str, value: float) -> float:
    """`value` as a float when it is finite and > 0; otherwise ConfigError."""
    value = float(value)
    if not 0 < value < math.inf:
        raise ConfigError(f"{name} must be finite and > 0, got {value}")
    return value


def _nonnegative(name: str, value: float, error: type[RedlabError] = ConfigError) -> float:
    """`value` as a float when it is finite and >= 0; otherwise `error`."""
    value = float(value)
    if not 0 <= value < math.inf:
        raise error(f"{name} must be finite and >= 0, got {value}")
    return value


def _finite(name: str, a: np.ndarray, error: type[RedlabError]) -> None:
    """Raise `error` unless every value of `a` is finite."""
    if not np.isfinite(a).all():
        raise error(f"{name} must be finite")


def _count(name: str, value: int, minimum: int = 1) -> int:
    """`value` as an int when it is an integer, not a bool, >= minimum; else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value}")
    return int(value)


def _odd(name: str, value: int) -> int:
    """`value` as an int when it is an odd integer >= 1, not a bool; else ConfigError."""
    value = _count(name, value)
    if value % 2 == 0:
        raise ConfigError(f"{name} must be odd and positive, got {value}")
    return value


def _extent(name: str, value: int) -> int:
    """`value` as an int when it is an integer >= 1; else ShapeError naming the extent."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ShapeError(f"{name} must be an integer, got {value}")
    if value < 1:
        raise ShapeError(f"{name} must be positive, got {value}")
    return int(value)


def _shape(shape: tuple[int, int]) -> tuple[int, int]:
    """`shape` as two ints when it is two extents; else ShapeError."""
    try:
        height, width = shape
        return _extent("height", height), _extent("width", width)
    except (TypeError, ValueError, ShapeError):
        raise ShapeError(f"shape must be two positive integers, got {shape}") from None


class PgmParseError(RedlabError):
    """A PGM stream is malformed.

    The byte offset at which parsing failed is recorded so the message
    points at the offending location in the file.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnsupportedFormatError(RedlabError):
    """The file is recognizable but uses an unsupported variant."""


class DegenerateInputError(RedlabError):
    """A denominator or normalizer is zero, so the metric is undefined."""


class DivergenceError(RedlabError):
    """An iterate norm exceeded the divergence guard's bound."""

    def __init__(self, iteration: int, norm: float, bound: float):
        super().__init__(
            f"iterate norm {norm:.3e} exceeded the divergence bound {bound:.3e} "
            f"(1e4 x max(||x0||, ||y||)) at iteration {iteration}"
        )
        self.iteration = iteration
        self.norm = norm
        self.bound = bound


class NonConvergenceError(RedlabError):
    """A fixed-point evaluation failed to reach its tolerance."""

    def __init__(self, residual: float, maxiter: int):
        super().__init__(
            f"fixed-point residual {residual:.3e} after {maxiter} iterations"
        )
        self.residual = residual
        self.maxiter = maxiter
