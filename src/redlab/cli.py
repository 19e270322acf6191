"""Batch experiment runner behind the `redlab` console command.

Subcommands:

* ``redlab run <config>``       - validate, execute, write CSVs + summary;
* ``redlab validate <config>``  - validate only, touch nothing;
* ``redlab list-experiments``   - print the experiment registry.

Configs are flat key-value text with ``[section]`` headers (INI syntax,
no interpolation, full-line ``#``/``;`` comments).  Unknown sections or
keys are rejected so typos fail loudly.  Every experiment requires an
integer ``seed``; all randomness flows through it, so a fixed config
reproduces byte-identical outputs.  Wall-clock timing is off by default
for the same reason.

Exit codes: 0 success, 2 validation or input error (nothing is written),
3 numerical divergence.  The ``REDLAB_OUT`` environment variable
overrides the configured output directory.  Independent parts of an
experiment (the seven `deblur` solvers; the probe chunks of a report's
Jacobians, whose metrics this process computes cell by cell) run in
forked worker processes, one per usable CPU; ``REDLAB_WORKERS`` lowers
that count.  When a CPU is spare, a solver run's per-iteration log is
computed in a second forked process while it iterates.  Outputs do not
depend on either.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import itertools
import math
import os
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .denoisers import (
    BernoulliMmseDenoiser,
    Denoiser,
    GmmMmseDenoiser,
    LinearSymmetricDenoiser,
    MedianFilterDenoiser,
    NlmDenoiser,
    TdtDenoiser,
    _is_power_of_two,
)
from .diagnostics import (
    DEFAULT_EPSILON,
    JacobianEstimate,
    RedProblem,
    _jacobian_chunks,
    _jacobian_from_chunks,
    central_differences,
    cost_red,
    cost_slice,
    grad_error,
    grad_red_lh,
    grad_red_romano,
    grad_red_true,
    js_error,
    lh_error_1,
    lh_error_2,
    # Neither probe is called here; bench/traced.py wraps both on this module.
    numerical_gradient_rho,  # noqa: F401
    numerical_jacobian,  # noqa: F401
)
from .equilibrium import consensus_residual, denoising_equilibria, red_pg_pair
from .errors import (
    ConfigError,
    DivergenceError,
    NonConvergenceError,
    RedlabError,
)
from .image import Image, awgn, extract_center_patch, load_pgm
from .losses import make_uniform_blur
# operator_matrix is not called here; bench/traced.py wraps it on this module.
from .operators import IdentityOperator, operator_matrix  # noqa: F401
from .scenes import diagnostic_patches, solver_scene
from .smd import KdePrior, TweedieRegularizer
from .solvers import SOLVERS, SolverConfig, Trajectory, format_csv, red_pg
from .workers import _run_tasks, _worker_limit

__all__ = ["EXPERIMENTS", "main"]

_REPORT_HEADER = [
    "image",
    "denoiser",
    "e_J",
    "e_grad_romano",
    "e_grad_lh",
    "e_grad_true",
    "e_LH1",
    "e_LH2",
]
_LABEL_RE = re.compile(r"^[a-z0-9][a-z0-9_-]*$")


class _ConfigReader:
    """Typed access to parsed sections with consumption tracking.

    Every key actually read is marked; `finish` rejects whatever is left
    over, so a misspelled or misplaced key can never be silently ignored.
    """

    def __init__(self, sections: dict[str, dict[str, str]]):
        self._sections = sections
        self._seen_sections: set[str] = set()
        self._seen_keys: dict[str, set[str]] = {name: set() for name in sections}

    def has_section(self, name: str) -> bool:
        if name in self._sections:
            self._seen_sections.add(name)
            return True
        return False

    def _raw(self, section: str, key: str, required: bool) -> str | None:
        data = self._sections.get(section)
        if data is None:
            if required:
                raise ConfigError(f"missing section [{section}] (required key {key!r})")
            return None
        self._seen_sections.add(section)
        if key in data:
            self._seen_keys[section].add(key)
            return data[key]
        if required:
            raise ConfigError(f"[{section}] is missing required key {key!r}")
        return None

    def get_str(self, section: str, key: str, default: str | None = None,
                required: bool = False) -> str | None:
        raw = self._raw(section, key, required)
        return default if raw is None else raw.strip()

    def _number(self, section: str, key: str, required: bool,
                convert: type, expected: str) -> int | float | None:
        raw = self._raw(section, key, required)
        try:
            return None if raw is None else convert(raw)
        except ValueError:
            raise ConfigError(
                f"[{section}] {key}: expected {expected}, got {raw!r}"
            ) from None

    def get_int(self, section: str, key: str, default: int | None = None,
                minimum: int | None = None, required: bool = False) -> int | None:
        value = self._number(section, key, required, int, "an integer")
        if value is None:
            return default
        if minimum is not None and value < minimum:
            raise ConfigError(f"[{section}] {key}: must be >= {minimum}, got {value}")
        return value

    def get_float(self, section: str, key: str,
                  default: float | None = None) -> float | None:
        """Every float key is a finite number > 0."""
        value = self._number(section, key, False, float, "a number")
        if value is None:
            return default
        if not math.isfinite(value):
            raise ConfigError(f"[{section}] {key}: must be finite, got {value}")
        if value <= 0:
            raise ConfigError(f"[{section}] {key}: must be > 0, got {value}")
        return value

    def get_bool(self, section: str, key: str, default: bool = False) -> bool:
        raw = self._raw(section, key, required=False)
        if raw is None:
            return default
        lowered = raw.strip().lower()
        if lowered in ("on", "true", "yes", "1"):
            return True
        if lowered in ("off", "false", "no", "0"):
            return False
        raise ConfigError(f"[{section}] {key}: expected on/off, got {raw!r}")

    def get_list(self, section: str, key: str,
                 default: list[str] | None = None) -> list[str] | None:
        raw = self._raw(section, key, required=False)
        if raw is None:
            return default
        items = [item.strip() for item in raw.split(",") if item.strip()]
        if not items:
            raise ConfigError(f"[{section}] {key}: expected a comma-separated list")
        return items

    def finish(self, experiment: str) -> None:
        for name in self._sections:
            if name not in self._seen_sections:
                raise ConfigError(
                    f"section [{name}] is not used by experiment {experiment!r}"
                )
            leftover = sorted(set(self._sections[name]) - self._seen_keys[name])
            if leftover:
                raise ConfigError(
                    f"unknown key(s) in [{name}]: {', '.join(leftover)}"
                )


# ---------------------------------------------------------------------------
# Denoiser and problem construction

_DenoiserBuild = Callable[[tuple[int, int]], Denoiser]


@dataclass(frozen=True)
class _Key:
    """A denoiser-section key: a float, or an int >= `minimum` (odd if `odd`)."""

    name: str
    type: type
    default: float | None
    minimum: int = 0
    odd: bool = False

    def read(self, reader: _ConfigReader, section: str) -> int | float | None:
        if self.type is float:
            return reader.get_float(section, self.name, default=self.default)
        value = reader.get_int(section, self.name, default=self.default,
                               minimum=self.minimum)
        if self.odd and value % 2 == 0:
            raise ConfigError(f"[{section}] {self.name}: must be odd, got {value}")
        return value


def _build_tdt(shape: tuple[int, int], **values) -> Denoiser:
    # Config sizes are checked at plan time; a PGM's sides are known only now.
    if not (_is_power_of_two(shape[0]) and _is_power_of_two(shape[1])):
        raise ConfigError(f"denoiser 'tdt' needs power-of-two image sides, got {shape}")
    return TdtDenoiser(**values)


def _build_gmm(shape: tuple[int, int], components: int, center_scale: float,
               center_seed: int, noise_variance: float) -> Denoiser:
    rng = np.random.default_rng(center_seed)
    centers = rng.normal(0.0, center_scale, size=(components, shape[0] * shape[1]))
    return GmmMmseDenoiser(centers, noise_variance)


# Assumed denoiser input noise variance, also for the reports' noisy patches.
_NOISE_VARIANCE = _Key("noise_variance", float, 3.25**2)
# Each kind: its keys in read order, and a constructor taking the image
# shape and the key values by name.
_DENOISER_KINDS: dict[str, tuple[tuple[_Key, ...], Callable[..., Denoiser]]] = {
    "tdt": ((_Key("threshold", float, 0.001),), _build_tdt),
    "median": (
        (_Key("window", int, 3, minimum=1, odd=True),),
        lambda shape, **values: MedianFilterDenoiser(**values),
    ),
    # NlmDenoiser prefers the bandwidth over the noise variance when set.
    "nlm": (
        (_Key("patch_radius", int, 1), _Key("search_radius", int, 5),
         _NOISE_VARIANCE, _Key("bandwidth", float, None)),
        lambda shape, **values: NlmDenoiser(**values),
    ),
    # Looked up per call, so a wrapper installed on the class is seen.
    "linear": ((), lambda shape: LinearSymmetricDenoiser.local_average(shape)),
    "gmm": (
        (_Key("components", int, 5, minimum=1), _Key("center_scale", float, 2.0),
         _Key("center_seed", int, 1), _NOISE_VARIANCE),
        _build_gmm,
    ),
    "bernoulli": (
        (_NOISE_VARIANCE,), lambda shape, **values: BernoulliMmseDenoiser(**values)
    ),
}


def _read_denoiser(reader: _ConfigReader, section: str,
                   default_kind: str | None = None) -> tuple[str, _DenoiserBuild]:
    """Read one denoiser section: its kind and a builder for an image shape."""
    kind = reader.get_str(section, "kind", default=default_kind)
    if kind is None:
        raise ConfigError(
            f"[{section}] needs a 'kind' key (one of: {', '.join(_DENOISER_KINDS)})"
        )
    if kind not in _DENOISER_KINDS:
        raise ConfigError(
            f"unknown denoiser kind {kind!r}; valid kinds: {', '.join(_DENOISER_KINDS)}"
        )
    keys, build = _DENOISER_KINDS[kind]
    values = {key.name: key.read(reader, section) for key in keys}
    return kind, functools.partial(build, **values)


def _check_tdt_side(kinds: list[str], side: int, key: str) -> None:
    """The Haar transform of 'tdt' needs power-of-two image sides."""
    if "tdt" in kinds and not _is_power_of_two(side):
        raise ConfigError(f"{key}: 'tdt' needs a power of two")


def _input_path(config_dir: Path, section: str, key: str, name: str) -> Path:
    path = (config_dir / name).resolve()
    if not path.is_file():
        raise ConfigError(f"[{section}] {key}: file not found: {path}")
    return path


@dataclass(frozen=True)
class _ProblemSpec:
    size: int
    scene_index: int
    image_path: Path | None
    blur: int
    noise_variance: float
    weight: float
    denoiser_kind: str
    build_denoiser: _DenoiserBuild

    def check_tdt_size(self) -> None:
        """Planners call this after their own reads, so those errors come first."""
        if self.image_path is None:
            _check_tdt_side([self.denoiser_kind], self.size, "[problem] size")


def _read_problem(reader: _ConfigReader, config_dir: Path, default_blur: int,
                  default_kind: str = "tdt") -> _ProblemSpec:
    """Read the [problem] and [denoiser] sections.

    `size` and `scene` choose the synthetic scene, which `image` replaces,
    so neither may be set next to `image`.
    """
    size = reader.get_int("problem", "size", minimum=4)
    scene_index = reader.get_int("problem", "scene", minimum=0)
    image = reader.get_str("problem", "image")
    image_path = None
    if image is not None:
        for key, value in (("size", size), ("scene", scene_index)):
            if value is not None:
                raise ConfigError(f"[problem] {key}: not allowed with image")
        image_path = _input_path(config_dir, "problem", "image", image)
    blur = reader.get_int("problem", "blur", default=default_blur, minimum=1)
    if blur % 2 == 0:
        raise ConfigError(f"[problem] blur: width must be odd, got {blur}")
    noise_variance = reader.get_float("problem", "noise_variance", default=2.0)
    weight = reader.get_float("problem", "weight", default=0.02)
    kind, build = _read_denoiser(reader, "denoiser", default_kind)
    return _ProblemSpec(64 if size is None else size,
                        0 if scene_index is None else scene_index,
                        image_path, blur, noise_variance, weight, kind, build)


def _build_problem(ps: _ProblemSpec, seed: int) -> tuple[RedProblem, Image]:
    if ps.image_path is not None:
        truth = load_pgm(str(ps.image_path))
    else:
        truth = solver_scene(size=ps.size, index=ps.scene_index)
    shape = truth.pixels.shape
    op = make_uniform_blur(ps.blur) if ps.blur > 1 else IdentityOperator()
    y = awgn(op.apply(truth), ps.noise_variance, seed=seed)
    denoiser = ps.build_denoiser(shape)
    problem = RedProblem(
        operator=op,
        y=y,
        noise_variance=ps.noise_variance,
        weight=ps.weight,
        denoiser=denoiser,
    )
    return problem, truth


def _read_method(reader: _ConfigReader) -> str:
    method = reader.get_str("solver", "method", default="pg")
    if method not in SOLVERS:
        raise ConfigError(
            f"[solver] method: unknown solver {method!r}; "
            f"valid methods: {', '.join(SOLVERS)}"
        )
    return method


def _read_solver(reader: _ConfigReader, *, default_iterations: int,
                 method: str | None = None, default_inner: int = 1) -> SolverConfig:
    default_l = 1.0 if method == "apg" else 1.01
    return SolverConfig(
        iterations=reader.get_int(
            "solver", "iterations", default=default_iterations, minimum=1
        ),
        beta=reader.get_float("solver", "beta", default=0.001),
        step_scale=reader.get_float("solver", "l", default=default_l),
        l_initial=reader.get_float("solver", "l_initial", default=0.2),
        l_final=reader.get_float("solver", "l_final", default=2.0),
        inner_iterations=reader.get_int(
            "solver", "inner_iterations", default=default_inner, minimum=1
        ),
        sd_step=reader.get_float("solver", "sd_step"),
        stop_fp_residual=reader.get_float("solver", "stop_fp_residual"),
        record_timing=reader.get_bool("solver", "timing", default=False),
    )


# ---------------------------------------------------------------------------
# Output helpers

Outputs = tuple[list[tuple[str, str]], str]


def _text_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(header[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(header))
    ]
    lines = ["  ".join(header[i].ljust(widths[i]) for i in range(len(header))).rstrip()]
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(r))).rstrip())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Experiment planners: validate eagerly, return a deferred execute()


def _plan_report(which: str) -> Callable:
    def planner(reader: _ConfigReader, config_dir: Path, seed: int):
        image_names = reader.get_list("experiment", "images")
        patches_key = reader.get_int("experiment", "patches", minimum=1)
        if image_names is not None and patches_key is not None:
            raise ConfigError("[experiment] set either 'patches' or 'images', not both")
        count = 10 if patches_key is None else patches_key
        patch_size = reader.get_int("experiment", "patch_size", default=16, minimum=4)
        noise_variance = _NOISE_VARIANCE.read(reader, "experiment")
        epsilon = reader.get_float("experiment", "epsilon", default=DEFAULT_EPSILON)
        labels = reader.get_list(
            "experiment", "denoisers", default=["tdt", "median", "nlm"]
        )
        if len(set(labels)) != len(labels):
            raise ConfigError("[experiment] denoisers: labels must be unique")
        image_paths: list[Path] | None = None
        if image_names is not None:
            image_paths = [
                _input_path(config_dir, "experiment", "images", name)
                for name in image_names
            ]
            if patch_size > 32:
                raise ConfigError("[experiment] patch_size: must be <= 32")
        elif patch_size > 16:
            # Procedural patches are rank-equalized, which caps the pixel count.
            raise ConfigError(
                "[experiment] patch_size: must be <= 16 without explicit images"
            )
        specs = []
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ConfigError(f"invalid denoiser label {label!r}")
            if not (reader.has_section(label) or label in _DENOISER_KINDS):
                raise ConfigError(
                    f"denoiser label {label!r} has no [{label}] section and is not "
                    f"a known kind"
                )
            default_kind = label if label in _DENOISER_KINDS else None
            specs.append(_read_denoiser(reader, label, default_kind))
        _check_tdt_side([kind for kind, _ in specs], patch_size,
                        "[experiment] patch_size")

        def execute() -> Outputs:
            if image_paths is not None:
                clean = [
                    (path.stem, extract_center_patch(load_pgm(str(path)), patch_size))
                    for path in image_paths
                ]
            else:
                clean = [
                    (f"patch{i:02d}", img)
                    for i, img in enumerate(
                        diagnostic_patches(count=count, size=patch_size)
                    )
                ]
            points = [
                (name, awgn(img, noise_variance, seed=seed + i))
                for i, (name, img) in enumerate(clean)
            ]
            files = []
            summary_rows = []
            denoisers = [build((patch_size, patch_size)) for _, build in specs]
            metrics = _report_cells(which, denoisers, [x for _, x in points], epsilon)
            for d, label in enumerate(labels):
                rows = []
                sums: dict[str, float] = {}
                for i, (name, _) in enumerate(points):
                    values = metrics[d, i]
                    row = [name, label]
                    for column in _REPORT_HEADER[2:]:
                        row.append(
                            repr(values[column]) if column in values else ""
                        )
                    rows.append(row)
                    for metric, value in values.items():
                        sums[metric] = sums.get(metric, 0.0) + value
                files.append(
                    (f"{which}_{label}.csv", format_csv(_REPORT_HEADER, rows))
                )
                for metric, total in sums.items():
                    summary_rows.append(
                        [label, metric, f"{total / len(points):.6e}"]
                    )
            head = (
                f"{which}: mean errors over {len(points)} noisy {patch_size}x"
                f"{patch_size} patches (noise variance {noise_variance}, "
                f"seed {seed}, probe step {epsilon})"
            )
            table = _text_table(["denoiser", "metric", "mean"], summary_rows)
            return files, head + "\n\n" + table

        return execute

    return planner


def _report_cells(which: str, denoisers: list[Denoiser], images: list[Image],
                  epsilon: float) -> dict[tuple[int, int], dict]:
    """`_report_metrics` of each (denoiser, image) cell, by their indices.

    Cells run in this order: image 0 under every denoiser, then the other
    images denoiser by denoiser.  The probe chunks of the image-0 cells are
    one `_run_tasks` call and those of the rest a second; its rounds bound
    the chunk results held at once.  The earliest failure in cell order is
    raised and the second call never starts, so a denoiser whose metrics
    raise (say, an identically zero Jacobian) fails before any second image
    runs.  For each cell in turn, this process draws its chunks, assembles
    its estimate from them as numerical_jacobian does, freeing each chunk
    once copied, and computes its metrics, so results, warnings and the
    error raised are those of computing the cells one after another.
    """
    ds = range(len(denoisers))
    metrics: dict[tuple[int, int], dict] = {}
    for group in ([(d, 0) for d in ds], [(d, i) for d in ds for i in range(1, len(images))]):
        chunks = [_jacobian_chunks(denoisers[d], images[i], epsilon) for d, i in group]
        diffs = _run_tasks([task for tasks in chunks for task in tasks])
        for (d, i), tasks in zip(group, chunks):
            f, x = denoisers[d], images[i]
            estimate = _jacobian_from_chunks(x, itertools.islice(diffs, len(tasks)), epsilon)
            metrics[d, i] = _report_metrics(which, f, x, estimate, epsilon)
    return metrics


def _report_metrics(which: str, f: Denoiser, x: Image, estimate: JacobianEstimate,
                    epsilon: float) -> dict:
    """The report's metrics, in CSV column order, for one patch and its
    Jacobian estimate.  f(x) is denoised once, and not for e_J."""
    if which == "jacobian-report":
        return {"e_J": js_error(estimate)}
    fx = f.apply(x)
    if which == "gradient-report":
        numeric = estimate.rho_gradient
        return {
            "e_grad_romano": grad_error(grad_red_romano(f, x, fx), numeric),
            "e_grad_lh": grad_error(grad_red_lh(x, estimate), numeric),
            "e_grad_true": grad_error(grad_red_true(f, x, estimate, fx), numeric),
        }
    return {
        "e_LH1": lh_error_1(f, x, epsilon, fx=fx),
        "e_LH2": lh_error_2(f, x, epsilon, jacobian=estimate, fx=fx),
    }


def _plan_trajectory(reader: _ConfigReader, config_dir: Path, seed: int):
    problem_spec = _read_problem(reader, config_dir, default_blur=1)
    method = _read_method(reader)
    cfg = _read_solver(reader, default_iterations=500, method=method)
    problem_spec.check_tdt_size()
    label = problem_spec.denoiser_kind

    def execute() -> Outputs:
        problem, truth = _build_problem(problem_spec, seed)
        _, trajectory = SOLVERS[method](problem, cfg, truth=truth)
        last = trajectory.records[-1]
        summary = "\n".join(
            [
                f"trajectory: {method} with {label}, "
                f"{len(trajectory)} iterations (seed {seed})",
                "",
                _text_table(
                    ["iterations", "psnr_db", "cost_red", "fp_residual"],
                    [
                        [
                            str(last.iteration),
                            f"{last.psnr_db:.4f}",
                            f"{last.cost_red:.6e}",
                            f"{last.fp_residual:.6e}",
                        ]
                    ],
                ),
            ]
        )
        return [(f"trajectory_{label}.csv", trajectory.csv_text())], summary

    return execute


def _plan_cost_slice(reader: _ConfigReader, config_dir: Path, seed: int):
    problem_spec = _read_problem(reader, config_dir, default_blur=1)
    method = _read_method(reader)
    cfg = _read_solver(reader, default_iterations=200, method=method)
    radius = reader.get_float("slice", "radius", default=2.0)
    points = reader.get_int("slice", "points", default=21, minimum=2)
    problem_spec.check_tdt_size()
    label = problem_spec.denoiser_kind

    def execute() -> Outputs:
        problem, _ = _build_problem(problem_spec, seed)
        center, _ = SOLVERS[method](problem, cfg)
        rng = np.random.default_rng(seed + 1)
        e1 = rng.standard_normal(center.size)
        e1 /= np.linalg.norm(e1)
        e2 = rng.standard_normal(center.size)
        e2 -= (e2 @ e1) * e1
        e2 /= np.linalg.norm(e2)
        grid = np.linspace(-radius, radius, points)
        samples = cost_slice(problem, center, e1, e2, grid, grid)
        rows = [
            [
                repr(s.alpha),
                repr(s.beta),
                repr(s.cost),
                repr(s.grad_e1),
                repr(s.grad_e2),
            ]
            for s in samples
        ]
        best = min(samples, key=lambda s: s.cost)
        center_cost = cost_red(problem, center)
        summary = "\n".join(
            [
                f"cost-slice: {points}x{points} grid, radius {radius}, around a "
                f"{method}/{label} fixed point (seed {seed})",
                "",
                f"cost at center: {center_cost:.6e}",
                f"grid minimum:   {best.cost:.6e} at "
                f"(alpha={best.alpha:g}, beta={best.beta:g})",
            ]
        )
        header = ["alpha", "beta", "cost_red", "grad_e1", "grad_e2"]
        return [(f"cost-slice_{label}.csv", format_csv(header, rows))], summary

    return execute


def _deblur_oracle(problem: RedProblem) -> np.ndarray:
    """Flat minimizer of the objective with a blur (or identity) and W.

    A and W are both circulant, so the normal equations
    (A^T A / sigma^2 + lambda (I - W)) x = A^T y / sigma^2 are diagonal in
    the DFT basis and solved by one division.
    """
    op = problem.operator
    shape = problem.y.pixels.shape
    sigma2 = problem.noise_variance
    h = op.transfer_function(shape)
    rhs = np.conj(h) * np.fft.fft2(problem.y.pixels) / sigma2
    diag = np.abs(h) ** 2 / sigma2 + problem.weight * (
        1.0 - problem.denoiser.transfer_function()
    )
    return np.fft.ifft2(rhs / diag).real.reshape(-1)


def _plan_deblur(reader: _ConfigReader, config_dir: Path, seed: int):
    problem_spec = _read_problem(reader, config_dir, default_blur=9,
                                 default_kind="linear")
    if problem_spec.denoiser_kind != "linear":
        raise ConfigError(
            "deblur computes an exact oracle gap and therefore requires the "
            "linear denoiser; use the trajectory experiment for other kinds"
        )
    base = _read_solver(reader, default_iterations=500, default_inner=20)
    l_apg = reader.get_float("solver", "l_apg", default=1.0)

    def execute() -> Outputs:
        problem, truth = _build_problem(problem_spec, seed)
        shape = truth.pixels.shape
        sigma2 = problem.noise_variance
        x_star = _deblur_oracle(problem)
        star_norm = float(np.linalg.norm(x_star))

        header = Trajectory.CSV_HEADER + ["oracle_gap"]

        def run_solver(name: str, solve: Callable) -> tuple[tuple[str, str], list[str]]:
            """One solver's CSV file and summary row."""
            gaps: list[float] = []

            def observer(k: int, x: Image) -> None:
                gaps.append(float(np.linalg.norm(x.flat - x_star)) / star_norm)

            cfg = replace(base, step_scale=l_apg) if name == "apg" else base
            _, trajectory = solve(problem, cfg, truth=truth, observer=observer)
            rows = [
                cells + [repr(gap)]
                for cells, gap in zip(trajectory.csv_rows(), gaps)
            ]
            last = trajectory.records[-1]
            return (f"deblur_linear_{name}.csv", format_csv(header, rows)), [
                name,
                str(last.iteration),
                f"{last.psnr_db:.4f}",
                f"{last.fp_residual:.6e}",
                f"{gaps[-1]:.6e}",
            ]

        solved = list(_run_tasks([
            functools.partial(run_solver, name, solve) for name, solve in SOLVERS.items()
        ]))
        files = [file for file, _ in solved]
        summary_rows = [row for _, row in solved]
        head = (
            f"deblur: {shape[0]}x{shape[1]}, {problem_spec.blur}x{problem_spec.blur} "
            f"uniform blur, noise variance {sigma2}, weight {problem.weight}, "
            f"seed {seed}; oracle gap is ||x_k - x*|| / ||x*|| against the direct "
            f"linear solve"
        )
        table = _text_table(
            ["solver", "iterations", "psnr_db", "fp_residual", "oracle_gap"],
            summary_rows,
        )
        return files, head + "\n\n" + table

    return execute


def _plan_tweedie(reader: _ConfigReader, config_dir: Path, seed: int):
    instances = reader.get_int("experiment", "instances", default=20, minimum=1)
    epsilon = reader.get_float("experiment", "epsilon", default=1e-5)

    def execute() -> Outputs:
        rng = np.random.default_rng(seed)
        rows = []
        worst = 0.0
        for index in range(instances):
            n = int(rng.choice([2, 4, 8]))
            centers = rng.normal(0.0, 1.0, size=(5, n))
            nu = float(rng.uniform(0.3, 2.0))
            r = rng.normal(0.0, 1.5, size=n)
            regularizer = TweedieRegularizer(KdePrior(centers, nu))
            analytic = regularizer.gradient(r)
            numeric = central_differences(
                lambda rs: np.array([regularizer.value(row) for row in rs]), r, epsilon
            )
            rel = float(np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric))
            worst = max(worst, rel)
            rows.append([str(index), repr(rel)])
        summary = "\n".join(
            [
                f"tweedie-check: {instances} random mixture instances "
                f"(seed {seed}, probe step {epsilon})",
                "",
                f"worst relative error: {worst:.6e}",
            ]
        )
        header = ["instance", "relative_error"]
        return [("tweedie-check_gmm.csv", format_csv(header, rows))], summary

    return execute


def _plan_equilibrium(reader: _ConfigReader, config_dir: Path, seed: int):
    denoising_variance = reader.get_float("experiment", "denoising_variance",
                                          default=100.0)
    problem_spec = _read_problem(reader, config_dir, default_blur=9)
    cfg = _read_solver(reader, default_iterations=2000)
    problem_spec.check_tdt_size()
    label = problem_spec.denoiser_kind

    def execute() -> Outputs:
        problem, truth = _build_problem(problem_spec, seed)
        l_scale = cfg.step_scale
        x_hat, _ = red_pg(problem, cfg)
        f = problem.denoiser
        fx_hat = f.apply(x_hat)
        u_hat = Image((fx_hat.pixels - x_hat.pixels) / l_scale)
        pair = red_pg_pair(problem.loss, f, problem.weight, l_scale)
        res_f, res_g = consensus_residual(pair, x_hat, u_hat)

        y2 = awgn(truth, denoising_variance, seed=seed + 1)
        x_pnp, x_red = denoising_equilibria(f, y2)
        mirror = float(
            np.linalg.norm(
                (y2.flat - x_red.flat) - (x_red.flat - f.apply(x_red).flat)
            )
        )
        pnp_matches = bool(np.array_equal(x_pnp.pixels, f.apply(y2).pixels))

        rows = [
            ["consensus_residual_f", repr(res_f)],
            ["consensus_residual_g", repr(res_g)],
            ["denoising_mirror_gap", repr(mirror)],
            ["pnp_matches_denoiser_output", "1" if pnp_matches else "0"],
        ]
        summary = "\n".join(
            [
                f"equilibrium-check: {label} fixed point after "
                f"{cfg.iterations} iterations (L = {l_scale}, seed {seed}), "
                f"then pure denoising at variance {denoising_variance}",
                "",
                _text_table(["quantity", "value"], rows),
            ]
        )
        csv_name = f"equilibrium-check_{label}.csv"
        return [(csv_name, format_csv(["quantity", "value"], rows))], summary

    return execute


# Name -> (description, planner), in `list-experiments` order.
_EXPERIMENTS: dict[str, tuple[str, Callable]] = {
    "jacobian-report": ("Jacobian symmetry-error table over noisy patches",
                        _plan_report("jacobian-report")),
    "gradient-report": ("error table for the three candidate gradient expressions",
                        _plan_report("gradient-report")),
    "lh-report": ("local-homogeneity error table", _plan_report("lh-report")),
    "trajectory": ("one solver run with a per-iteration CSV log", _plan_trajectory),
    "cost-slice": ("2-D objective and slope slice around a solver fixed point",
                   _plan_cost_slice),
    "deblur": ("all seven solvers on uniform-blur recovery with an exact linear oracle",
               _plan_deblur),
    "tweedie-check": ("analytic vs numeric gradient of the smoothed-prior regularizer",
                      _plan_tweedie),
    "equilibrium-check": ("consensus residuals at a fixed point plus the denoising "
                          "mirror identity", _plan_equilibrium),
}
EXPERIMENTS = {name: description for name, (description, _) in _EXPERIMENTS.items()}


# ---------------------------------------------------------------------------
# Config loading and command dispatch


@dataclass(frozen=True)
class _Plan:
    name: str
    output: str
    execute: Callable[[], Outputs]


def _load_plan(config_path: str) -> _Plan:
    path = Path(config_path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {config_path}")
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    try:
        parser.read_string(path.read_text(), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None
    if parser.defaults():
        raise ConfigError("a [DEFAULT] section is not supported")
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    reader = _ConfigReader(sections)
    name = reader.get_str("experiment", "name", required=True)
    if name not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r}; valid names: {', '.join(EXPERIMENTS)}"
        )
    seed = reader.get_int("experiment", "seed", required=True, minimum=0)
    output = reader.get_str("experiment", "output", default=".")
    execute = _EXPERIMENTS[name][1](reader, path.parent, seed)
    reader.finish(name)
    return _Plan(name=name, output=output, execute=execute)


def _cmd_run(config_path: str) -> int:
    plan = _load_plan(config_path)
    _worker_limit()  # a bad REDLAB_WORKERS fails before any work, in every experiment
    files, summary = plan.execute()
    files = list(files) + [(f"{plan.name}_summary.txt", summary + "\n")]
    outdir = os.environ.get("REDLAB_OUT") or plan.output
    os.makedirs(outdir, exist_ok=True)
    for filename, text in files:
        target = os.path.join(outdir, filename)
        with open(target, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {target}")
    print()
    print(summary)
    return 0


def _cmd_validate(config_path: str) -> int:
    plan = _load_plan(config_path)
    print(f"config ok: experiment {plan.name!r}")
    return 0


def _cmd_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, description in EXPERIMENTS.items():
        print(f"{name.ljust(width)}  {description}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="redlab",
        description="Denoiser-driven recovery experiments with CSV output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="validate and execute a config")
    run_parser.add_argument("config", help="path to an experiment config file")
    validate_parser = sub.add_parser(
        "validate", help="check a config without running or writing anything"
    )
    validate_parser.add_argument("config", help="path to an experiment config file")
    sub.add_parser("list-experiments", help="print the experiment registry")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args.config)
        if args.command == "validate":
            return _cmd_validate(args.config)
        return _cmd_list()
    except (DivergenceError, NonConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RedlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
