"""Kernel-density priors, Tweedie regularization, and score matching.

A kernel-density estimate built from T sample vectors x_t,
    p(x) = (1/T) sum_t N(x; x_t, nu I),
doubles as the marginal density of r = x + N(0, nu I) when x is drawn
uniformly from the samples.  Tweedie's identity then links the smoothed
negative log prior
    rho(r) = -nu * ln p(r)
to the posterior-mean denoiser: grad rho(r) = r - E[x | r], where the
conditional mean is exactly the Gaussian-mixture MMSE denoiser with the
same centers and variance.  That link is what the operations here expose
and what the tests verify by finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .denoisers import Denoiser, GmmMmseDenoiser
from .errors import ShapeError, _positive
from .image import Image
from .losses import QuadraticLoss
from .operators import LinearOperator

__all__ = [
    "KdePrior",
    "TweedieRegularizer",
    "kde_map_residual",
    "score",
    "score_match_identity",
]


@dataclass(frozen=True, eq=False)
class KdePrior:
    """Equal-weight isotropic Gaussian mixture; its matched denoiser is built once."""

    centers: np.ndarray
    bandwidth: float
    _denoiser: GmmMmseDenoiser = field(init=False, repr=False)

    def __post_init__(self):
        _positive("bandwidth", self.bandwidth)
        denoiser = GmmMmseDenoiser(self.centers, self.bandwidth)
        object.__setattr__(self, "centers", denoiser.centers)
        object.__setattr__(self, "_denoiser", denoiser)

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]

    @property
    def count(self) -> int:
        return self.centers.shape[0]

    def denoiser(self) -> GmmMmseDenoiser:
        """Posterior-mean denoiser matched to this prior."""
        return self._denoiser

    def log_density(self, r: np.ndarray) -> float:
        """ln p(r) evaluated with max-subtracted exponentials."""
        log_kernels = self._denoiser.log_kernels(_flat(r, self.dimension))
        peak = log_kernels.max()
        lse = peak + math.log(np.exp(log_kernels - peak).sum())
        nu = self.bandwidth
        return float(
            lse - math.log(self.count) - 0.5 * self.dimension * math.log(2.0 * math.pi * nu)
        )


def _flat(r, dimension: int) -> np.ndarray:
    r = np.asarray(r, dtype=np.float64).reshape(-1)
    if r.size != dimension:
        raise ShapeError(f"vector dimension {r.size} != prior dimension {dimension}")
    return r


def score(prior: KdePrior, r: np.ndarray) -> np.ndarray:
    """grad ln p(r), computed through the posterior-mean identity.

    For a Gaussian mixture, grad ln p(r) = (E[x | r] - r) / nu; routing
    through the mixture mean inherits its log-sum-exp stability instead
    of differentiating the density directly.
    """
    r = _flat(r, prior.dimension)
    return (prior.denoiser().posterior_mean(r) - r) / prior.bandwidth


@dataclass(frozen=True, eq=False)
class TweedieRegularizer:
    """rho(r) = -nu * ln p(r) for a KDE prior: gradient r - E[x | r]."""

    prior: KdePrior

    def value(self, r: np.ndarray) -> float:
        return -self.prior.bandwidth * self.prior.log_density(r)

    def gradient(self, r: np.ndarray) -> np.ndarray:
        r = _flat(r, self.prior.dimension)
        return r - self.prior.denoiser().posterior_mean(r)


def score_match_identity(f: Denoiser, prior: KdePrior, x: Image) -> tuple[float, float]:
    """Both sides of the denoiser / score-estimator equivalence.

    Returns (||f(x) - E[x|.]||^2, nu^2 ||psi - grad ln p||^2) where
    psi = (f(x) - x) / nu is the score estimator induced by f.  The two
    are equal for any f; evaluating both sides keeps the calculation an
    actual cross-check rather than a definition.
    """
    if x.size != prior.dimension:
        raise ShapeError(f"image size {x.size} != prior dimension {prior.dimension}")
    nu = prior.bandwidth
    fx = f.apply(x).flat
    mmse = prior.denoiser().posterior_mean(x.flat)
    lhs = float(np.sum((fx - mmse) ** 2))
    psi = (fx - x.flat) / nu
    # score(prior, x) is (E[x|.] - x) / nu, formed from the mean above.
    rhs = nu**2 * float(np.sum((psi - (mmse - x.flat) / nu) ** 2))
    return lhs, rhs


def kde_map_residual(prior: KdePrior, operator: LinearOperator, y: Image,
                     noise_variance: float, x: Image) -> np.ndarray:
    """Stationarity residual of min ||A x - y||^2/(2 sigma^2) - ln-prior.

    Equals A^T (A x - y) / sigma^2 - grad ln p(x), which coincides with
    the solvers' fixed-point residual at weight lambda = 1 / nu and the
    mixture-matched posterior-mean denoiser.
    """
    data = QuadraticLoss(operator, y, noise_variance).gradient(x).flat
    return data - score(prior, x.flat)
