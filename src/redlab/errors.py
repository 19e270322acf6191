"""Exception types shared across the package."""


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
