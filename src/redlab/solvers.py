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
that reason).  Every solver proxes through the problem's own loss,
RedProblem.loss, and the log takes A x - y and A^T (A x - y) / sigma^2
from its data_terms, passing the spectrum that the last circular prox kept
for its output, so A and A^T are not applied again.  When a CPU is spare,
a logger that `redlab.workers` forks computes a long run's log beside the
iterations, with the records, errors and warnings of logging inline; the
run's `_Run` keeps the log's state in whichever process logs.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .denoisers import Denoiser
from .diagnostics import _STACK_BYTES, RedProblem, cost_red, fp_residual
from .errors import (ConfigError, DivergenceError, DomainError, _count, _finite, _nonnegative,
                     _positive, _shape)
from .image import Image, psnr
from .workers import _spare_cpu, _Stream

__all__ = [
    "SOLVERS",
    "SolverConfig",
    "Trajectory",
    "TrajectoryRecord",
    "default_initialization",
    "dpg_schedule",
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
            setattr(self, name, _count(name, getattr(self, name)))
        if not isinstance(self.record_timing, (bool, np.bool_)):
            raise ConfigError(f"record_timing must be a bool, got {self.record_timing!r}")
        for name in ("beta", "step_scale", "l_initial", "l_final", "sd_step",
                     "stop_fp_residual"):
            if getattr(self, name) is not None:
                _positive(name, getattr(self, name))


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

    def csv_rows(self) -> list[list[str]]:
        return [
            [str(r.iteration), "" if r.psnr_db is None else repr(r.psnr_db),
             repr(r.cost_red), repr(r.fp_residual), repr(r.update_dist), repr(r.time_s)]
            for r in self.records
        ]


def _log_entry(p: RedProblem, truth: Image | None, k: int, x: Image, fx: Image,
               x_prev: Image, x_hat: np.ndarray | None,
               elapsed: float) -> tuple[TrajectoryRecord, np.ndarray]:
    """The record of iterate k and g(x_k), flat.  x_hat is x's prox spectrum,
    from which a circular loss forms its data terms, or None."""
    n = x.size
    data_residual, data_gradient = p.loss.data_terms(x, x_hat)
    g = fp_residual(p, x, fx, data_gradient=data_gradient)
    residual = float(g @ g) / n
    delta = x.flat - x_prev.flat
    update = float(delta @ delta) / n
    cost = cost_red(p, x, fx, data_residual=data_residual)
    quality = None if truth is None else psnr(x, truth)
    return TrajectoryRecord(k, quality, cost, residual, update, elapsed), g


# Starting and ending a logger costs about 4 ms, which logging inline
# takes about this many iterations to spend at 16x16 (half as many at 64x64).
_FORK_ITERATIONS = 100


class _Run:
    """Shared solver plumbing: instrumentation, guards, stopping.

    A kernel iterates inside `with _Run(...) as run`.  When a CPU is spare,
    a forked `workers._Stream` whose task is `_log_slot` computes the log.
    `record` computes it inline instead for a kernel that steps along the
    logged residual, when early stopping needs the residual at once, for
    runs of fewer than _FORK_ITERATIONS iterations, and when no CPU is
    spare.  Either way `_log` runs `_log_entry` on the same arrays, in
    iteration order, so the log is bitwise the same.
    """

    def __init__(self, p: RedProblem, cfg: SolverConfig, x0: Image | None,
                 truth: Image | None, observer: Observer | None,
                 steps_on_residual: bool = False):
        self.p, self.cfg, self.truth, self.observer = p, cfg, truth, observer
        self.trajectory = Trajectory()
        self.start = time.perf_counter()
        self.x0 = default_initialization(p) if x0 is None else x0
        # An all-zero start and data carry no scale; fall back to unit scale.
        scale = max(float(np.linalg.norm(self.x0.flat)), float(np.linalg.norm(p.y.flat)))
        self.guard = DIVERGENCE_FACTOR * (scale if scale > 0.0 else 1.0)
        # The iterate logged last (x_0 at first) and its g, flat, in the
        # process that logs.
        self.x_prev = self.x0
        self.residual: np.ndarray | None = None
        self.inline = (steps_on_residual or cfg.stop_fp_residual is not None
                       or cfg.iterations < _FORK_ITERATIONS)
        self.logger: _Stream | None = None

    def __enter__(self) -> _Run:
        if not self.inline and _spare_cpu():
            # A slot holds the header k, elapsed and whether x_k has a prox
            # spectrum, then x_k, f(x_k) and the prox half spectrum.
            h, w = self.x0.pixels.shape
            slot = np.dtype([("k", np.int64), ("elapsed", np.float64),
                             ("has_hat", np.bool_), ("x", np.float64, (h, w)),
                             ("fx", np.float64, (h, w)),
                             ("x_hat", np.complex128, (h, w // 2 + 1))], align=True)
            self.logger = _Stream.start(self._log_slot, slot, _RING_BYTES)
        return self

    def __exit__(self, kind, error, traceback) -> None:
        if self.logger is not None:
            self.trajectory.records += self.logger.finish(error)

    def check(self, k: int, flat: np.ndarray) -> None:
        """Raise DivergenceError when iterate k, flat, has a norm past the
        guard or one that is not a number.  A norm that overflows is inf,
        which the guard reports, so numpy's overflow warning is silenced."""
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(flat))
        if not norm <= self.guard:
            raise DivergenceError(k, norm, self.guard)

    def record(self, k: int, x: Image, fx: Image) -> bool:
        """Log iterate k; returns True when the run should stop early."""
        self.check(k, x.flat)
        elapsed = time.perf_counter() - self.start if self.cfg.record_timing else 0.0
        x_hat = self.p.loss.prox_spectrum(x)
        if self.logger is not None:
            self.logger.send(k, elapsed, x_hat is not None, x.pixels, fx.pixels, x_hat)
        else:
            self.trajectory.append(self._log(k, x, fx, x_hat, elapsed))
        if self.observer is not None:
            self.observer(k, x)
        tol = self.cfg.stop_fp_residual
        return tol is not None and self.trajectory.records[-1].fp_residual <= tol

    def _log(self, k: int, x: Image, fx: Image, x_hat: np.ndarray | None,
             elapsed: float) -> TrajectoryRecord:
        """The record of iterate k, logged after the one logged before."""
        entry, self.residual = _log_entry(self.p, self.truth, k, x, fx, self.x_prev,
                                          x_hat, elapsed)
        self.x_prev = x
        return entry

    def _log_slot(self, k: np.int64, elapsed: np.float64, has_hat: np.bool_,
                  x: np.ndarray, fx: np.ndarray, x_hat: np.ndarray) -> TrajectoryRecord:
        """The forked logger's task: `_log` on the copies of one slot."""
        return self._log(int(k), Image._adopt(x), Image._adopt(fx), x_hat if has_hat else None,
                         float(elapsed))


# The shared ring through which iterates reach the logger: about 1 MB, ten
# slots of a 64x64 run.
_RING_BYTES = 1 << 20


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
    residual's identity-operator part.  Each step follows the residual
    g(x_k) that the log has just formed, so A and A^T are applied once per
    iterate, plus once at x_0.  The divergence guard checks each step before
    it becomes an Image or reaches the denoiser, so a step that overflows
    raises DivergenceError, without numpy's overflow warning.
    """
    sigma2 = p.noise_variance
    mu = sigma2 / (1.0 + p.weight * sigma2) if cfg.sd_step is None else cfg.sd_step
    with _Run(p, cfg, x0, truth, observer, steps_on_residual=True) as run:
        x = run.x0
        fx = p.denoiser.apply(x)
        g = fp_residual(p, x, fx)
        for k in range(1, cfg.iterations + 1):
            with np.errstate(over="ignore"):
                flat = x.flat - mu * g
            run.check(k, flat)
            x = Image._adopt(flat.reshape(x.pixels.shape))
            fx = p.denoiser.apply(x)
            if run.record(k, x, fx):
                break
            g = run.residual
    return x, run.trajectory


def _pg_direction(fx: Image, x: Image, l_scale: float, scratch: np.ndarray) -> Image:
    """v = (1/L) f(x) - ((1-L)/L) x, the proximal-gradient anchor, with the
    second term formed in `scratch`, an array of x's shape."""
    v = np.multiply(fx.pixels, 1.0 / l_scale)
    v -= np.multiply(x.pixels, (1.0 - l_scale) / l_scale, out=scratch)
    return Image._adopt(v)


def _proximal_gradient(p: RedProblem, cfg: SolverConfig, x0: Image | None,
                       truth: Image | None, observer: Observer | None,
                       schedule: Callable[[int], float],
                       momentum: bool = False) -> Result:
    """x_k = prox(v_{k-1}; lambda L_{k-1}), v_k the anchor at L_k = schedule(k).

    The anchor point is x_k, or with momentum the extrapolation
    z_k = x_k + ((t_{k-1} - 1) / t_k) (x_k - x_{k-1}), which costs a second
    denoiser call per step.
    """
    with _Run(p, cfg, x0, truth, observer) as run:
        x = run.x0
        scratch = np.empty_like(x.pixels)
        l_scale = schedule(0)
        v = _pg_direction(p.denoiser.apply(x), x, l_scale, scratch)
        t_prev = 1.0
        for k in range(1, cfg.iterations + 1):
            x_prev, x = x, p.loss.prox(v, p.weight * l_scale)
            l_scale = schedule(k)
            if momentum:
                t_k = (1.0 + math.sqrt(1.0 + 4.0 * t_prev**2)) / 2.0
                step = np.subtract(x.pixels, x_prev.pixels)
                step *= (t_prev - 1.0) / t_k
                z = Image._adopt(np.add(step, x.pixels, out=step))
                v = _pg_direction(p.denoiser.apply(z), z, l_scale, scratch)
                fx = p.denoiser.apply(x)
                t_prev = t_k
            else:
                fx = p.denoiser.apply(x)
                v = _pg_direction(fx, x, l_scale, scratch)
            if run.record(k, x, fx):
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
    with _Run(p, cfg, x0, truth, observer) as run:
        x = v = run.x0
        u = Image(np.zeros_like(x.pixels))
        pull = np.empty_like(x.pixels)
        for k in range(1, cfg.iterations + 1):
            x = p.loss.prox(Image._adopt(v.pixels - u.pixels), beta)
            np.multiply(np.add(x.pixels, u.pixels, out=pull), c_x, out=pull)
            for _ in range(inner):
                step = np.multiply(p.denoiser.apply(v).pixels, c_f)
                v = Image._adopt(np.add(step, pull, out=step))
            dual = np.add(u.pixels, x.pixels)
            u = Image._adopt(np.subtract(dual, v.pixels, out=dual))
            if run.record(k, x, p.denoiser.apply(x)):
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
    generator, a before b, and denoised through f.apply_stack in chunks of
    as many pairs as fit in the probes' stack budget.  A value <= 1 + tol
    supports (never proves) that f is non-expansive on its working range.
    """
    h, w = _shape(shape)
    trials = _count("trials", trials)
    scale = _nonnegative("scale", scale)
    rng = np.random.default_rng(_count("seed", seed, 0))
    chunk = max(1, _STACK_BYTES // (2 * h * w * 8))
    worst = 0.0
    for t0 in range(0, trials, chunk):
        pairs = rng.uniform(0.0, scale, (min(chunk, trials - t0), 2, h, w))
        outs = f.apply_stack(pairs.reshape(-1, h, w)).reshape(pairs.shape)
        _finite("denoiser output", outs, DomainError)
        for (a, b), (fa, fb) in zip(pairs, outs):
            gap = float(np.linalg.norm(a - b))
            if gap == 0.0:
                continue
            worst = max(worst, float(np.linalg.norm(fa - fb)) / gap)
    return worst
