"""Iterative solvers driving a denoiser toward the first-order fixed point.

All schemes target the same stationarity condition
    A^T (A x - y) / sigma^2 + lambda (x - f(x)) = 0
and differ only in how they get there.  Three kernels carry the seven
solver names:

* red_sd - explicit residual descent x <- x - mu g(x);
* proximal gradient with inverse step L_k and optional Nesterov momentum:
  red_fp (L = 1), red_pg (constant L), red_dpg (decaying 1/L_k), red_apg;
* variable splitting with I inner denoising steps: red_admm, red_admm_i1.

Solvers run exactly `iterations` steps unless an explicit residual
tolerance is configured; a divergence guard aborts when ||x_k|| passes
1e4 max(||x_0||, ||y||), a bound that follows the problem's size and
intensity scale.  Each iterate is logged to a Trajectory whose CSV form
is byte-stable for fixed inputs (wall-clock timing is off by default for
that reason).
"""

from __future__ import annotations

import csv
import io
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .denoisers import Denoiser
from .diagnostics import RedProblem, cost_red, fp_residual
from .errors import ConfigError, DivergenceError
from .image import Image, psnr
from .losses import QuadraticLoss

__all__ = [
    "SOLVERS",
    "SolverConfig",
    "Trajectory",
    "TrajectoryRecord",
    "default_initialization",
    "dpg_schedule",
    "format_csv",
    "nonexpansiveness_probe",
    "red_admm",
    "red_admm_i1",
    "red_apg",
    "red_dpg",
    "red_fp",
    "red_pg",
    "red_sd",
]

Observer = Callable[[int, "Image"], None]
Result = tuple[Image, "Trajectory"]

# The divergence guard fires when ||x_k|| > DIVERGENCE_FACTOR * max(||x_0||, ||y||).
DIVERGENCE_FACTOR = 1e4


@dataclass
class SolverConfig:
    """Algorithm parameters shared by the solver family.

    Fields not used by a given solver are ignored by it.  `sd_step` of
    None selects the default steepest-descent step
    sigma^2 / (1 + lambda sigma^2).  `stop_fp_residual` enables optional
    early stopping on the logged residual (||g||^2 / N); by default every
    solver runs exactly `iterations` steps.
    """

    iterations: int = 100
    beta: float = 0.001
    step_scale: float = 1.0
    l_initial: float = 0.2
    l_final: float = 2.0
    inner_iterations: int = 1
    sd_step: float | None = None
    stop_fp_residual: float | None = None
    record_timing: bool = False

    def __post_init__(self):
        for name in ("iterations", "inner_iterations"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("beta", "step_scale", "l_initial", "l_final", "sd_step"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigError(f"{name} must be > 0, got {value}")


def format_csv(header: list[str], rows: list[list[str]]) -> str:
    """CSV text with a header row and "\\n" line endings."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


@dataclass(frozen=True)
class TrajectoryRecord:
    iteration: int
    psnr_db: float | None
    cost_red: float
    fp_residual: float
    update_dist: float
    time_s: float


@dataclass
class Trajectory:
    """Per-iteration log: objective, residual, and movement diagnostics.

    `fp_residual` is ||g(x_k)||^2 / N and `update_dist` is
    ||x_k - x_{k-1}||^2 / N, both per-pixel squared norms.
    """

    records: list[TrajectoryRecord] = field(default_factory=list)

    CSV_HEADER = ["iter", "psnr_db", "cost_red", "fp_residual", "update_dist", "time_s"]

    def append(self, record: TrajectoryRecord):
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.records]

    def csv_rows(self) -> list[list[str]]:
        return [
            [str(r.iteration), "" if r.psnr_db is None else repr(r.psnr_db),
             repr(r.cost_red), repr(r.fp_residual), repr(r.update_dist), repr(r.time_s)]
            for r in self.records
        ]

    def csv_text(self) -> str:
        return format_csv(self.CSV_HEADER, self.csv_rows())

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.csv_text())


class _Run:
    """Shared solver plumbing: loss, instrumentation, guards, stopping."""

    def __init__(self, p: RedProblem, cfg: SolverConfig, x0: Image | None,
                 truth: Image | None, observer: Observer | None):
        self.p, self.cfg, self.truth, self.observer = p, cfg, truth, observer
        self.loss = QuadraticLoss(p.operator, p.y, p.noise_variance)
        self.trajectory = Trajectory()
        self.start = time.perf_counter()
        self.x0 = default_initialization(p) if x0 is None else x0
        # An all-zero start and data carry no scale; fall back to unit scale.
        scale = max(float(np.linalg.norm(self.x0.flat)), float(np.linalg.norm(p.y.flat)))
        self.guard = DIVERGENCE_FACTOR * (scale if scale > 0.0 else 1.0)

    def record(self, k: int, x: Image, fx: Image, x_prev: Image) -> bool:
        """Log iterate k; returns True when the run should stop early."""
        norm = float(np.linalg.norm(x.flat))
        if norm > self.guard:
            raise DivergenceError(k, norm, self.guard)
        n = x.size
        data_residual = self.p.operator.apply(x).pixels - self.p.y.pixels
        g = fp_residual(self.p, x, fx, data_residual=data_residual)
        residual = float(g @ g) / n
        delta = x.flat - x_prev.flat
        update = float(delta @ delta) / n
        cost = cost_red(self.p, x, fx, data_residual=data_residual)
        elapsed = time.perf_counter() - self.start if self.cfg.record_timing else 0.0
        quality = None if self.truth is None else psnr(x, self.truth)
        self.trajectory.append(TrajectoryRecord(k, quality, cost, residual, update, elapsed))
        if self.observer is not None:
            self.observer(k, x)
        tol = self.cfg.stop_fp_residual
        return tol is not None and residual <= tol


def default_initialization(p: RedProblem) -> Image:
    """Backprojection A^T y rescaled so flat images keep their level.

    The rescaling divides by the mean of A^T A applied to the all-ones
    image (the DC gain of the normal operator), which keeps the starting
    point on the right intensity scale for blurs that are not
    mean-preserving.
    """
    x0 = p.operator.adjoint(p.y)
    ones = Image(np.ones_like(x0.pixels))
    gain = float(np.mean(p.operator.adjoint(p.operator.apply(ones)).pixels))
    if abs(gain) > 1e-12:
        x0 = Image(x0.pixels / gain)
    return x0


def red_sd(p: RedProblem, cfg: SolverConfig, x0: Image | None = None,
           truth: Image | None = None,
           observer: Observer | None = None) -> tuple[Image, Trajectory]:
    """Steepest descent on the fixed-point residual.

    The default step sigma^2 / (1 + lambda sigma^2) normalizes the
    residual's identity-operator part.
    """
    sigma2 = p.noise_variance
    mu = sigma2 / (1.0 + p.weight * sigma2) if cfg.sd_step is None else cfg.sd_step
    run = _Run(p, cfg, x0, truth, observer)
    x = run.x0
    fx = p.denoiser.apply(x)
    h, w = x.pixels.shape
    for k in range(1, cfg.iterations + 1):
        g = run.loss.gradient(x).flat + p.weight * (x.flat - fx.flat)
        x_prev, x = x, Image.from_flat(x.flat - mu * g, h, w)
        fx = p.denoiser.apply(x)
        if run.record(k, x, fx, x_prev):
            break
    return x, run.trajectory


def _pg_direction(fx: Image, x: Image, l_scale: float) -> Image:
    """v = (1/L) f(x) - ((1-L)/L) x, the proximal-gradient anchor."""
    return Image((1.0 / l_scale) * fx.pixels - ((1.0 - l_scale) / l_scale) * x.pixels)


def _proximal_gradient(p: RedProblem, cfg: SolverConfig, x0: Image | None,
                       truth: Image | None, observer: Observer | None,
                       schedule: Callable[[int], float],
                       momentum: bool = False) -> Result:
    """x_k = prox(v_{k-1}; lambda L_{k-1}), v_k the anchor at L_k = schedule(k).

    The anchor point is x_k, or with momentum the extrapolation
    z_k = x_k + ((t_{k-1} - 1) / t_k) (x_k - x_{k-1}), which costs a second
    denoiser call per step.
    """
    run = _Run(p, cfg, x0, truth, observer)
    x = run.x0
    l_scale = schedule(0)
    v = _pg_direction(p.denoiser.apply(x), x, l_scale)
    t_prev = 1.0
    h, w = x.pixels.shape
    for k in range(1, cfg.iterations + 1):
        x_prev, x = x, run.loss.prox(v, p.weight * l_scale)
        l_scale = schedule(k)
        if momentum:
            t_k = (1.0 + math.sqrt(1.0 + 4.0 * t_prev**2)) / 2.0
            push = (t_prev - 1.0) / t_k
            z = Image.from_flat(x.flat + push * (x.flat - x_prev.flat), h, w)
            v = _pg_direction(p.denoiser.apply(z), z, l_scale)
            fx = p.denoiser.apply(x)
            t_prev = t_k
        else:
            fx = p.denoiser.apply(x)
            v = _pg_direction(fx, x, l_scale)
        if run.record(k, x, fx, x_prev):
            break
    return x, run.trajectory


def red_fp(p: RedProblem, cfg: SolverConfig, x0: Image | None = None,
           truth: Image | None = None, observer: Observer | None = None) -> Result:
    """Fixed-point iteration x_k = prox_fidelity(f(x_{k-1}); lambda).

    This is proximal gradient at L = 1; cfg.step_scale is ignored.
    """
    return _proximal_gradient(p, cfg, x0, truth, observer, lambda k: 1.0)


def red_pg(p: RedProblem, cfg: SolverConfig, x0: Image | None = None,
           truth: Image | None = None, observer: Observer | None = None) -> Result:
    """Proximal gradient with constant inverse step L = cfg.step_scale.

    L > 1 trades per-step progress for an averaged, provably convergent
    map when f is non-expansive; L exactly 1 reproduces red_fp iterate
    for iterate.
    """
    return _proximal_gradient(p, cfg, x0, truth, observer, lambda k: cfg.step_scale)


def dpg_schedule(k: int, l_initial: float, l_final: float) -> float:
    """Inverse step at iteration k: interpolates 1/L from 1/L0 to 1/Linf."""
    return 1.0 / (1.0 / l_final + (1.0 / l_initial - 1.0 / l_final) / math.sqrt(k + 1.0))


def red_dpg(p: RedProblem, cfg: SolverConfig, x0: Image | None = None,
            truth: Image | None = None, observer: Observer | None = None) -> Result:
    """Proximal gradient with the decaying step schedule L_k.

    L_0 = cfg.l_initial, L_k -> cfg.l_final; with l_initial == l_final the
    schedule is constant and the iteration matches red_pg.
    """
    l0, l_inf = cfg.l_initial, cfg.l_final
    # dpg_schedule(0, ...) only approximates l_initial, so L_0 is taken as is.
    return _proximal_gradient(p, cfg, x0, truth, observer,
                              lambda k: dpg_schedule(k, l0, l_inf) if k else l0)


def red_apg(p: RedProblem, cfg: SolverConfig, x0: Image | None = None,
            truth: Image | None = None, observer: Observer | None = None) -> Result:
    """Nesterov-accelerated proximal gradient.

    Momentum weights follow t_k = (1 + sqrt(1 + 4 t_{k-1}^2)) / 2 with
    t_0 = 1, so the first iteration has zero momentum and coincides with
    red_pg at the same L.
    """
    return _proximal_gradient(p, cfg, x0, truth, observer, lambda k: cfg.step_scale,
                              momentum=True)


def _admm(p: RedProblem, cfg: SolverConfig, x0: Image | None, truth: Image | None,
          observer: Observer | None, inner: int) -> Result:
    lam, beta = p.weight, cfg.beta
    c_f, c_x = lam / (lam + beta), beta / (lam + beta)
    run = _Run(p, cfg, x0, truth, observer)
    x = v = run.x0
    u = Image(np.zeros_like(x.pixels))
    h, w = x.pixels.shape
    for k in range(1, cfg.iterations + 1):
        x_prev, x = x, run.loss.prox(Image(v.pixels - u.pixels), beta)
        anchor = x.flat + u.flat
        for _ in range(inner):
            v = Image.from_flat(c_f * p.denoiser.apply(v).flat + c_x * anchor, h, w)
        u = Image(u.pixels + x.pixels - v.pixels)
        if run.record(k, x, p.denoiser.apply(x), x_prev):
            break
    return x, run.trajectory


def red_admm(p: RedProblem, cfg: SolverConfig, x0: Image | None = None,
             truth: Image | None = None, observer: Observer | None = None) -> Result:
    """Variable splitting with I = cfg.inner_iterations inner denoising steps.

    Inner loop: z_0 = v_{k-1};
    z_i = (lambda f(z_{i-1}) + beta (x_k + u_{k-1})) / (lambda + beta).
    The dual update is u_k = u_{k-1} + x_k - v_k.  The stationary point
    does not depend on I; only the approach path does.
    """
    return _admm(p, cfg, x0, truth, observer, cfg.inner_iterations)


def red_admm_i1(p: RedProblem, cfg: SolverConfig, x0: Image | None = None,
                truth: Image | None = None, observer: Observer | None = None) -> Result:
    """The single-inner-step splitting; cfg.inner_iterations is ignored."""
    return _admm(p, cfg, x0, truth, observer, inner=1)


# Name -> solver map; the key set doubles as the CLI's `method` vocabulary.
SOLVERS = {
    "sd": red_sd,
    "admm": red_admm,
    "admm_i1": red_admm_i1,
    "fp": red_fp,
    "pg": red_pg,
    "dpg": red_dpg,
    "apg": red_apg,
}


def nonexpansiveness_probe(f: Denoiser, trials: int, seed: int,
                           shape: tuple[int, int] = (16, 16),
                           scale: float = 255.0) -> float:
    """Largest observed ||f(a) - f(b)|| / ||a - b|| over random pairs.

    Pairs are drawn uniformly from [0, scale]^N with numpy's PCG64
    generator.  A value <= 1 + tol supports (never proves) that f is
    non-expansive on its working range.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        a = Image(rng.uniform(0.0, scale, shape))
        b = Image(rng.uniform(0.0, scale, shape))
        gap = float(np.linalg.norm(a.flat - b.flat))
        if gap == 0.0:
            continue
        out = float(np.linalg.norm(f.apply(a).flat - f.apply(b).flat))
        worst = max(worst, out / gap)
    return worst
