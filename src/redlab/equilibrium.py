"""Consensus-equilibrium view of the fixed points.

Both the splitting and proximal-gradient solvers can be summarized by a
pair of maps (F, G) whose equilibrium
    x = F(x + u),    x = G(x - u)
characterizes their limit points.  F is always the fidelity prox; the
denoiser enters either directly (plug-and-play style, G = f) or through
the resolvent-like inverse
    G(v) = ((1 + c) I - c f)^{-1}(v),
which this module evaluates by the contraction
    x_{j+1} = (v + c f(x_j)) / (1 + c),
convergent for non-expansive f since c/(1+c) < 1.  The splitting solver
corresponds to c = lambda/beta and the proximal-gradient one to c = 1/L;
both route through the same implementation, so equal c gives bitwise
equal results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .denoisers import Denoiser
from .errors import NonConvergenceError, _count, _positive
from .image import Image
from .losses import QuadraticLoss

__all__ = [
    "EquilibriumPair",
    "consensus_residual",
    "denoising_equilibria",
    "g_red_inverse",
    "pnp_pair",
    "red_admm_pair",
    "red_pg_pair",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAXITER = 10_000


def g_red_inverse(f: Denoiser, c: float, v: Image, tol: float = DEFAULT_TOL,
                  maxiter: int = DEFAULT_MAXITER) -> Image:
    """Evaluate ((1 + c) I - c f)^{-1} at v by fixed-point iteration.

    Stops when ||(1 + c) x - c f(x) - v|| <= tol; raises
    NonConvergenceError with the final residual if maxiter is exhausted.
    A c or tol that is not finite and positive, or a maxiter that is not an
    integer >= 0, raises ConfigError before f is called.
    """
    c = _positive("coupling constant", c)
    tol = _positive("tolerance", tol)
    maxiter = _count("maxiter", maxiter, 0)
    x = v
    for step in range(maxiter + 1):
        if step:
            x = Image((v.pixels + c * fx.pixels) / (1.0 + c))
        fx = f.apply(x)
        residual = float(np.linalg.norm((1.0 + c) * x.flat - c * fx.flat - v.flat))
        if residual <= tol:
            return x
    raise NonConvergenceError(residual, maxiter)


@dataclass
class EquilibriumPair:
    """A consensus pair (F, G) with the parameters that produced it."""

    F: Callable[[Image], Image]
    G: Callable[[Image], Image]
    params: dict = field(default_factory=dict)


def pnp_pair(loss: QuadraticLoss, f: Denoiser, beta: float) -> EquilibriumPair:
    """Plug-and-play pair: fidelity prox against the raw denoiser."""
    return EquilibriumPair(
        F=lambda v: loss.prox(v, beta),
        G=f.apply,
        params={"beta": beta},
    )


def red_admm_pair(loss: QuadraticLoss, f: Denoiser, weight: float, beta: float,
                  tol: float = DEFAULT_TOL, maxiter: int = DEFAULT_MAXITER) -> EquilibriumPair:
    """Splitting-solver pair: prox at beta against the c = lambda/beta inverse."""
    c = weight / beta
    return EquilibriumPair(
        F=lambda v: loss.prox(v, beta),
        G=lambda v: g_red_inverse(f, c, v, tol, maxiter),
        params={"weight": weight, "beta": beta, "c": c},
    )


def red_pg_pair(loss: QuadraticLoss, f: Denoiser, weight: float, l_scale: float,
                tol: float = DEFAULT_TOL, maxiter: int = DEFAULT_MAXITER) -> EquilibriumPair:
    """Proximal-gradient pair: prox at lambda L against the c = 1/L inverse."""
    c = 1.0 / l_scale
    return EquilibriumPair(
        F=lambda v: loss.prox(v, weight * l_scale),
        G=lambda v: g_red_inverse(f, c, v, tol, maxiter),
        params={"weight": weight, "l_scale": l_scale, "c": c},
    )


def consensus_residual(pair: EquilibriumPair, x: Image, u: Image) -> tuple[float, float]:
    """(||x - F(x + u)||, ||x - G(x - u)||) for a candidate equilibrium."""
    rf = float(np.linalg.norm(x.flat - pair.F(Image(x.pixels + u.pixels)).flat))
    rg = float(np.linalg.norm(x.flat - pair.G(Image(x.pixels - u.pixels)).flat))
    return rf, rg


def denoising_equilibria(f: Denoiser, y: Image, tol: float = DEFAULT_TOL,
                         maxiter: int = DEFAULT_MAXITER) -> tuple[Image, Image]:
    """Equilibria of the pure denoising problem (A = I, lambda = 1/sigma^2).

    Returns (x_pnp, x_red): the plug-and-play equilibrium is literally
    f(y), while the regularized one solves (2 I - f)(x) = y, i.e. sits at
    the point whose denoising residual mirrors its distance from the
    data: y - x = x - f(x).
    """
    x_pnp = f.apply(y)
    x_red = g_red_inverse(f, 1.0, y, tol, maxiter)
    return x_pnp, x_red
