"""redlab benchmark: end-to-end `redlab run` timings plus a traced layer run.

Usage (from the repository root):

    python3 bench/run.py --workload deblur|trajectory|probes --seed N \
        --seconds S --trace 0|1
    python3 bench/run.py --record-reference

Each sample is a fresh `python3 -m redlab.cli run` process on the
workload's config, with the experiment seed taken from --seed and BLAS
threads pinned.  Samples repeat until --seconds is spent (at least two, so
run-to-run determinism is always checked).  --trace 1 adds one sample run
through `traced.py`, which reports per-layer spans.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
BENCHMARK.json names the metrics; see NOTES.md for why each workload
exists.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import selftest
import spans

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_SEED = 0
SETUP_REPEATS = 30
MIN_SAMPLES = 2
# Upper bound on writing the spans of one traced run (about 36k for trajectory).
TRACE_DUMP_S = 1.0
# Every run must end within 180 s; the traced sample is budgeted inside it.
DEADLINE_S = 165.0

WORKLOADS = {
    # Dense 4096^2 linear filter: bandwidth-bound apply, costly build and
    # the dense oracle.  Defaults except for the iteration count.
    "deblur": ("deblur", """\
[experiment]
name = deblur
seed = {seed}

[solver]
iterations = 40
"""),
    # Per-iteration solver overhead on a small FFT problem.  Threshold 5
    # instead of 0.001 so the run is a regularised deconvolution; the cost
    # per iteration does not depend on it.
    "trajectory": ("trajectory", """\
[experiment]
name = trajectory
seed = {seed}

[problem]
size = 64
blur = 9

[denoiser]
kind = tdt
threshold = 5

[solver]
method = pg
iterations = 2000
"""),
    # Central-difference Jacobian and rho-gradient probes on one 16x16
    # patch: the acceptance 01-03 setting with fewer patches.
    "probes": ("gradient-report", """\
[experiment]
name = gradient-report
seed = {seed}
patches = 1
noise_variance = 625
denoisers = tdt, median, nlm

[tdt]
threshold = 25

[nlm]
noise_variance = 625
"""),
}

SOLVER_NAMES = ("sd", "admm", "admm_i1", "fp", "pg", "dpg", "apg")
DENOISER_LABELS = ("tdt", "median", "nlm", "linear")
PROBES = ("diagnostics.numerical_jacobian", "diagnostics.numerical_gradient_rho")


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    problems: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)


def blas_threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def child_env(root: Path, outdir: Path | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("REDLAB_OUT", None)
    if outdir is not None:
        env["REDLAB_OUT"] = str(outdir)
    return env


def spawn(argv: list[str], env: dict[str, str], log: Path,
          timeout: float) -> tuple[float, float, float, int]:
    """Run one process to completion: (wall s, CPU s, peak RSS in MB, exit code)."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss * 1024 / 1e6, proc.returncode


def hash_files(outdir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
    }


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.experiment, template = WORKLOADS[workload]
        self.seed = seed
        self.work = root / ".bench_work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / "config.ini"
        self.config.write_text(template.format(seed=seed))
        self.refs = check.reference_files(workload)
        self.start = time.perf_counter()

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def cli(self, command: str, outdir: Path | None,
            log: Path) -> tuple[float, float, float, int]:
        argv = [sys.executable, "-m", "redlab.cli", command, str(self.config)]
        return spawn(argv, child_env(self.root, outdir), log, self.remaining())

    def setup_times(self) -> tuple[list[float], int]:
        """SETUP_REPEATS timed `redlab validate` runs after one untimed warm-up.

        Returns (times, failures).  The warm-up fills the bytecode cache,
        which users pay for once, not on every run.
        """
        times, failed = [], 0
        for i in range(SETUP_REPEATS + 1):
            wall, _, _, code = self.cli("validate", None, self.work / "validate.log")
            failed += code != 0
            if i > 0:
                times.append(wall)
        return times, failed

    def check(self, outdir: Path, code: int, log: Path) -> list[str]:
        if code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-1:]
            return [f"exit code {code}: {' '.join(tail)}"]
        problems = check.check_outputs(
            outdir, self.experiment, self.refs, cells=self.seed == REFERENCE_SEED
        )
        if not problems and self.workload == "probes":
            problems = check.check_probe_properties(outdir)
        return problems

    def sample(self, index: int) -> Sample:
        outdir = self.work / f"s{index}"
        log = self.work / f"s{index}.log"
        wall, cpu, rss, code = self.cli("run", outdir, log)
        s = Sample(wall, cpu, rss, code, self.check(outdir, code, log))
        if not s.problems:
            s.hashes = hash_files(outdir)
        return s

    def samples(self, seconds: float) -> list[Sample]:
        t0 = time.perf_counter()
        out: list[Sample] = []
        while True:
            out.append(self.sample(len(out)))
            if out[-1].code != 0:
                break
            typical = statistics.median(s.wall_s for s in out)
            elapsed = time.perf_counter() - t0
            if len(out) >= MIN_SAMPLES and elapsed + typical > seconds:
                break
            if self.remaining() < 3 * typical:
                break
        first = next((s.hashes for s in out if s.hashes), {})
        for s in out:
            if s.hashes and s.hashes != first:
                s.problems.append("outputs differ from the first sample of this run")
        return out

    def traced(self) -> tuple[Sample, list[list], dict[str, float]]:
        outdir = self.work / "traced"
        log = self.work / "traced.log"
        spans_path = self.work / "spans.json"
        argv = [sys.executable, str(BENCH_DIR / "traced.py"), str(self.root / "src"),
                str(self.config), str(spans_path)]
        wall, cpu, rss, code = spawn(argv, child_env(self.root, outdir), log,
                                     self.remaining())
        s = Sample(wall, cpu, rss, code, self.check(outdir, code, log))
        if s.problems:
            return s, [], {}
        s.hashes = hash_files(outdir)
        span_list, counters = spans.load(str(spans_path))
        return s, span_list, counters


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(setup: list[float], samples: list[Sample]) -> dict[str, list[float]]:
    return {
        "wall_s": [s.wall_s for s in samples],
        "setup_s": setup,
        "peak_rss_mb": [s.rss_mb for s in samples],
    }


def layer_metrics(span_list: list[list], counters: dict[str, float], traced_wall: float,
                  untraced_wall: float, identical_csvs: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, named as in BENCHMARK.json."""
    names = spans.by_name(span_list)

    def row(name: str) -> dict[str, float]:
        return names.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for name in ("image.Image", "operators.circular.apply", "operators.circular.adjoint",
                 "losses.prox"):
        m[f"{name}.calls"] = row(name)["calls"]
        m[f"{name}.self_s"] = row(name)["self_s"]
    m["operators.operator_matrix.self_s"] = row("operators.operator_matrix")["self_s"]
    for label in DENOISER_LABELS:
        name = f"denoisers.{label}.apply"
        m[f"{name}.calls"] = row(name)["calls"]
        m[f"{name}.self_s"] = row(name)["self_s"]
        m[f"{name}.ms_per_call"] = 1e3 * ratio(row(name)["total_s"], row(name)["calls"])
    m["denoisers.haar_forward.self_s"] = row("denoisers.haar_forward")["self_s"]
    m["denoisers.haar_inverse.self_s"] = row("denoisers.haar_inverse")["self_s"]
    m["denoisers.linear.build_s"] = row("denoisers.linear.build")["total_s"]
    m["denoisers.linear.apply.gbps_computed"] = 1e-9 * ratio(
        counters.get("denoisers.linear.apply.bytes", 0.0), row("denoisers.linear.apply")["self_s"])

    for name in PROBES:
        m[f"{name}.total_s"] = row(name)["total_s"]
    apply_names = {f"denoisers.{label}.apply" for label in DENOISER_LABELS}
    applies = [i for i, sp in enumerate(span_list) if sp[0] in apply_names]
    under_probe = sum(spans.nearest_ancestor(span_list, i, PROBES) >= 0 for i in applies)
    m["diagnostics.denoiser_calls_per_probe"] = ratio(
        under_probe, sum(row(name)["calls"] for name in PROBES))
    m["diagnostics.fp_residual.total_s"] = row("diagnostics.fp_residual")["total_s"]
    m["diagnostics.cost_red.total_s"] = row("diagnostics.cost_red")["total_s"]

    m["solvers.record.calls"] = row("solvers.record")["calls"]
    m["solvers.record.total_s"] = row("solvers.record")["total_s"]
    # record is called directly from the solver body, so its parent is the solver span.
    record_starts: dict[int, list[float]] = {}
    for sp in span_list:
        if sp[0] == "solvers.record":
            record_starts.setdefault(sp[1], []).append(sp[2])
    intervals = [1e3 * (b - a) for starts in record_starts.values()
                 for a, b in zip(starts, starts[1:])]
    if len(intervals) >= 2:
        m["solvers.iter_ms_p50"] = statistics.median(intervals)
        m["solvers.iter_ms_p99"] = statistics.quantiles(intervals, n=100,
                                                        method="inclusive")[98]
    else:
        m["solvers.iter_ms_p50"] = m["solvers.iter_ms_p99"] = sum(intervals)
    solver_names = [f"solvers.{name}" for name in SOLVER_NAMES]
    solver_set = set(solver_names)
    owners = [spans.nearest_ancestor(span_list, i, solver_set) for i in applies]
    for name in solver_names:
        ids = {i for i, sp in enumerate(span_list) if sp[0] == name}
        iterations = sum(len(record_starts.get(i, [])) for i in ids)
        m[f"{name}.total_s"] = row(name)["total_s"]
        m[f"{name}.denoiser_calls_per_iter"] = ratio(sum(o in ids for o in owners), iterations)

    m["cli.self_s"] = row("cli")["self_s"]
    m["cli.csv_identical_files"] = identical_csvs
    m["trace.wall_s"] = row("cli")["total_s"]
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or None outside a git repository or without git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((root / "src" / "redlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(root),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def declared_metrics(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(args: argparse.Namespace, root: Path) -> dict:
    bench = Bench(root, args.workload, args.seed % 2**32)
    e2e_units, layer_units = declared_metrics(root)
    setup, setup_failed = bench.setup_times()
    samples = bench.samples(args.seconds)
    runs = list(samples)
    env = environment(root)
    print(f"env {json.dumps(env, sort_keys=True)}")
    seed_note = ("reference seed: CSV cells compared with bench/reference"
                 if bench.seed == REFERENCE_SEED else
                 f"non-reference seed {bench.seed}: CSV cells not compared; only the file "
                 "set, CSV shape, properties and run-to-run determinism are checked")
    print(f"workload {args.workload} ({bench.experiment}), {seed_note}")
    summary = end_to_end(setup, samples)
    for name, values in summary.items():
        q1, q2, q3 = quartiles(values)
        print(f"  {name:12s} median {q2:.6g} {e2e_units[name]}  q1 {q1:.6g}  q3 {q3:.6g}"
              f"  n={len(values)}")
    if args.trace:
        traced, span_list, counters = bench.traced()
        runs.append(traced)
        values = {}
        if span_list:
            first = next((s.hashes for s in samples if s.hashes), {})
            identical = sum(1 for name, h in traced.hashes.items()
                            if name.endswith(".csv") and first.get(name) == h)
            values = layer_metrics(span_list, counters, traced.wall_s,
                                   statistics.median(s.wall_s for s in samples), identical)
            # The root span must cover the traced process except its start-up
            # (interpreter and imports, which setup_s times) and the span dump.
            uncovered = traced.wall_s - values["trace.wall_s"]
            allowance = 2 * statistics.median(setup) + TRACE_DUMP_S
            print(f"  trace: root span {values['trace.wall_s']:.6g} s of a {traced.wall_s:.6g} s "
                  f"process; {uncovered:.3g} s uncovered (allowed {allowance:.3g} s)")
            if not 0 <= uncovered <= allowance:
                traced.problems.append(
                    f"root span leaves {uncovered:.3g} s of the traced process uncovered, "
                    f"more than the {allowance:.3g} s allowed for start-up and the span dump")
            if set(values) != set(layer_units):
                raise SystemExit(f"per-layer metrics {sorted(set(values) ^ set(layer_units))} "
                                 "do not match BENCHMARK.json")
        units = layer_units
    else:
        values = {name: quartiles(v)[1] for name, v in summary.items()}
        if set(values) != set(e2e_units):
            raise SystemExit("end-to-end metrics do not match BENCHMARK.json")
        units = e2e_units
    if args.trace:
        for name, value in values.items():
            print(f"  {name} {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    failed = setup_failed + sum(1 for s in runs if s.problems)
    attempted = SETUP_REPEATS + 1 + len(runs)
    for i, s in enumerate(runs):
        for problem in s.problems[:5]:
            print(f"  FAIL sample {i}: {problem}")
        if len(s.problems) > 5:
            print(f"  FAIL sample {i}: ... and {len(s.problems) - 5} more")
    print(f"  error_rate   {failed / attempted:.6g} ratio ({failed} failed / {attempted} attempted)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=bench.seed, trace=args.trace,
                  environment=env,
                  samples=[{"wall_s": s.wall_s, "cpu_s": s.cpu_s, "peak_rss_mb": s.rss_mb,
                            "code": s.code,
                            "problems": s.problems} for s in runs],
                  setup_s=setup)
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{bench.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    return result


def record_reference(root: Path) -> None:
    """Write bench/reference/<workload>/*.csv.gz from one run at the reference seed."""
    for workload in WORKLOADS:
        bench = Bench(root, workload, REFERENCE_SEED)
        outdir = bench.work / "reference"
        code = bench.cli("run", outdir, bench.work / "reference.log")[-1]
        if code != 0:
            raise SystemExit(f"{workload}: redlab exited with {code}")
        target = check.REFERENCE_DIR / workload
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for path in sorted(outdir.glob("*.csv")):
            (target / (path.name + ".gz")).write_bytes(
                gzip.compress(path.read_bytes(), mtime=0))
        print(f"recorded {workload}: {len(list(target.iterdir()))} files")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "redlab" / "cli.py").is_file():
        print(f"error: no redlab sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        selftest.run_all()
    except selftest.SelfTestError as exc:
        print(f"error: benchmark self-test failed: {exc}", file=sys.stderr)
        return 1
    if args.record_reference:
        record_reference(root)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args, root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
