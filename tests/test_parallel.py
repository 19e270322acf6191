"""`workers._run_tasks`: independent tasks in forked workers, drawn with
the outcome of calling them one after another; the reports' probe chunks
on it, with each cell's metrics computed as its chunks are drawn; and the
rule that only `redlab.workers` forks."""

import ast
import functools
import io
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redlab import (SOLVERS, Image, MedianFilterDenoiser, NlmDenoiser, TdtDenoiser, cli,
                    diagnostics, workers)
from redlab.errors import ConfigError, DivergenceError

REPO = Path(__file__).resolve().parents[1]


def run_with_timeout(tasks, timeout=60.0):
    """`_run_tasks(tasks)` drawn to its end in a thread: ("ok", results) or
    ("raised", error)."""
    outcome = []

    def target():
        try:
            outcome.append(("ok", list(workers._run_tasks(tasks))))
        except BaseException as exc:  # handed to the test thread
            outcome.append(("raised", exc))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "_run_tasks did not return"
    return outcome[0]


def wait_for(path, seconds=30):
    deadline = time.monotonic() + seconds
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)


def sleep_then(value, seconds):
    time.sleep(seconds)
    return value, os.getpid()


def test_results_come_back_in_task_order_from_two_processes(two_cpus):
    tasks = [functools.partial(sleep_then, i, 0.05 * (i % 3)) for i in range(6)]
    kind, results = run_with_timeout(tasks)
    assert kind == "ok"
    assert [value for value, _ in results] == list(range(6))
    assert len({pid for _, pid in results}) == 2


def test_long_task_lists_run_in_rounds(two_cpus, monkeypatch, tmp_path):
    monkeypatch.setattr(workers, "_ROUND", 2)
    kind, results = run_with_timeout(
        [functools.partial(sleep_then, i, 0.01) for i in range(5)])
    assert kind == "ok"
    assert [value for value, _ in results] == list(range(5))

    def fail():
        raise ConfigError("task 2")

    def mark():
        (tmp_path / "later-round").touch()

    kind, error = run_with_timeout([int, int, fail, int, mark])
    assert kind == "raised" and str(error) == "task 2"
    assert not (tmp_path / "later-round").exists()


@pytest.mark.parametrize("count", ["2", "1"])
def test_a_drawn_result_is_freed_once_the_caller_drops_it(two_cpus, monkeypatch,
                                                         count):
    monkeypatch.setenv("REDLAB_WORKERS", count)
    results = workers._run_tasks([functools.partial(np.full, 4, float(i))
                                  for i in range(4)])
    first = next(results)
    freed = weakref.ref(first)
    del first
    assert next(results).tolist() == [1.0] * 4
    assert freed() is None
    results.close()


def test_a_failed_fork_leaves_the_work_to_this_process(two_cpus, monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    kind, results = run_with_timeout(
        [functools.partial(sleep_then, i, 0) for i in range(3)])
    assert kind == "ok"
    assert results == [(i, os.getpid()) for i in range(3)]


def test_earliest_failure_wins_even_when_a_later_one_fails_first(two_cpus, tmp_path):
    started = tmp_path / "task1-started"

    def gate():
        # Holds one worker until the other has claimed task 1, so the
        # worker that runs this claims task 2 next.
        wait_for(started)

    def slow_divergence():
        started.touch()
        time.sleep(0.3)
        raise DivergenceError(iteration=4, norm=1e9, bound=1e5)

    def fast_config_error():
        raise ConfigError("later task")

    kind, error = run_with_timeout([gate, slow_divergence, fast_config_error])
    assert kind == "raised"
    assert type(error) is DivergenceError
    assert (error.iteration, error.norm, error.bound) == (4, 1e9, 1e5)


def test_no_task_is_claimed_after_a_failure(two_cpus, tmp_path):
    def fail():
        raise ConfigError("task 0")

    def mark(index):
        (tmp_path / f"ran{index}").touch()
        time.sleep(0.5)

    tasks = [fail] + [functools.partial(mark, i) for i in range(1, 6)]
    kind, error = run_with_timeout(tasks)
    assert kind == "raised" and str(error) == "task 0"
    # The other worker may have claimed task 1 before task 0 failed.
    assert {p.name for p in tmp_path.iterdir()} <= {"ran1"}


def test_a_worker_that_dies_without_reporting_makes_the_parent_raise(
        two_cpus, tmp_path):
    parent = os.getpid()
    claimed = tmp_path / "child-claimed"

    def task(index):
        if os.getpid() != parent:
            claimed.touch()
            os._exit(9)
        # The parent waits until the child has taken the other task.
        wait_for(claimed)
        return index

    kind, error = run_with_timeout([functools.partial(task, i) for i in range(2)])
    assert kind == "raised"
    assert isinstance(error, ChildProcessError)
    assert "exited with code 9" in str(error)


def test_a_dead_worker_is_named_by_its_index_in_the_whole_task_list(
        two_cpus, monkeypatch, tmp_path):
    """Rounds of two: the parent claims the first task of each, so the child
    claims task 3, the second of the second round, and dies with it."""
    monkeypatch.setattr(workers, "_ROUND", 2)
    parent = os.getpid()
    work = workers._work

    def parent_claims_first(tasks, claims):
        if os.getpid() != parent:
            wait_for(tmp_path / f"claimed{tasks[0].args[0]}")
        return work(tasks, claims)

    def task(index):
        (tmp_path / f"claimed{index}").touch()
        if index == 3 and os.getpid() != parent:
            os._exit(9)
        if index == 2:  # the parent takes no claim until the child has task 3
            wait_for(tmp_path / "claimed3")
        return index

    monkeypatch.setattr(workers, "_work", parent_claims_first)
    kind, error = run_with_timeout([functools.partial(task, i) for i in range(4)])
    assert kind == "raised"
    assert isinstance(error, ChildProcessError)
    assert str(error) == "a worker process exited with code 9 before it reported task 3"


def busy_after_marking(path):
    path.touch()
    return workers._busy


def test_the_caller_has_its_own_budget_between_draws_and_may_stop_drawing(
        two_cpus, monkeypatch, tmp_path):
    """Forked, each round is done and reaped before its first result is
    drawn, so a dropped generator leaves no child (see no_child_process_left);
    with one worker, no task runs before its result is drawn."""
    tasks = [functools.partial(busy_after_marking, tmp_path / f"ran{i}")
             for i in range(4)]
    results = workers._run_tasks(tasks)
    assert next(results) == 2
    assert workers._busy == 1
    del results
    for path in tmp_path.iterdir():
        path.unlink()
    monkeypatch.setenv("REDLAB_WORKERS", "1")
    results = workers._run_tasks(tasks)
    assert next(results) == 1
    assert [path.name for path in tmp_path.iterdir()] == ["ran0"]


def test_warnings_from_tasks_reach_stderr_as_without_workers(tmp_path):
    script = tmp_path / "warn.py"
    script.write_text(textwrap.dedent("""\
        import functools
        import warnings

        from redlab import workers

        workers._usable_cpus = lambda: 2


        def task(index):
            warnings.warn(f"task {index} warns", UserWarning)
            warnings.warn("same text each time", UserWarning)
            return index


        print(list(workers._run_tasks([functools.partial(task, i) for i in range(3)])))
    """))
    runs = []
    for count in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), REDLAB_WORKERS=count)
        runs.append(subprocess.run([sys.executable, str(script)], env=env,
                                   capture_output=True, text=True, timeout=60))
    sequential, forked = runs
    assert forked.returncode == sequential.returncode == 0
    assert forked.stdout == sequential.stdout == "[0, 1, 2]\n"
    assert forked.stderr == sequential.stderr
    for index in range(3):
        assert f"UserWarning: task {index} warns" in forked.stderr
    # The default filter shows a repeated warning once, as in one process.
    assert forked.stderr.count("same text each time") == 2  # message and source line


@pytest.mark.parametrize("value", ["0", "-2", "two", "1.5"])
def test_bad_worker_counts_exit_2_naming_the_variable(tmp_path, monkeypatch, capsys,
                                                      value):
    out_dir = tmp_path / "out"
    config = tmp_path / "exp.ini"
    config.write_text(textwrap.dedent(f"""\
        [experiment]
        name = trajectory
        seed = 1
        output = {out_dir}

        [problem]
        size = 16

        [solver]
        iterations = 2
    """))
    monkeypatch.setenv("REDLAB_WORKERS", value)
    assert cli.main(["run", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"error: REDLAB_WORKERS: expected an integer >= 1, got {value!r}\n"
    )
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_both_commands_reject_a_bad_worker_count_after_the_config(tmp_path, monkeypatch,
                                                                  capsys, command):
    config = tmp_path / "exp.ini"
    config.write_text("[experiment]\nname = tweedie-check\nseed = 1\n"
                      f"output = {tmp_path / 'out'}\n")
    monkeypatch.setenv("REDLAB_WORKERS", "0")
    assert cli.main([command, str(config)]) == 2
    assert capsys.readouterr() == ("", "error: REDLAB_WORKERS: expected an integer >= 1, "
                                       "got '0'\n")
    # A config error still comes first.
    config.write_text(config.read_text() + "steps = 5\n")
    assert cli.main([command, str(config)]) == 2
    assert capsys.readouterr() == ("", "error: unknown key(s) in [experiment]: steps\n")
    assert sorted(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("limit, cpus, tasks, forks", [
    ("1000", 2, 2, 1),
    ("1000", 1000, 2, 1),
    ("1", 1000, 5, 0),
    (None, 1000, 1, 0),
    (None, 1, 5, 0),
])
def test_worker_count_is_the_least_of_tasks_cpus_and_the_variable(
        monkeypatch, fork_calls, limit, cpus, tasks, forks):
    if limit is None:
        monkeypatch.delenv("REDLAB_WORKERS", raising=False)
    else:
        monkeypatch.setenv("REDLAB_WORKERS", limit)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
    kind, results = run_with_timeout([functools.partial(int, i) for i in range(tasks)])
    assert (kind, results) == ("ok", list(range(tasks)))
    assert len(fork_calls) == forks


def run_report(tmp_path, name, text, workers_env=None):
    """`redlab run` on a report config: its exit code, stdout (with the
    output directory as <out>), stderr and output files' bytes."""
    out_dir = tmp_path / name
    config = tmp_path / f"{name}.ini"
    config.write_text(textwrap.dedent(text))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REDLAB_OUT", str(out_dir))
        if workers_env is not None:
            patch.setenv("REDLAB_WORKERS", workers_env)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.main(["run", str(config)])
    files = ({path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
             if out_dir.exists() else {})
    return code, stdout.getvalue().replace(str(out_dir), "<out>"), stderr.getvalue(), files


PROBES = """\
    [experiment]
    name = gradient-report
    seed = 0
    patches = 1
    noise_variance = 625
    denoisers = tdt, median, nlm

    [tdt]
    threshold = 25

    [nlm]
    noise_variance = 625
"""


def test_both_processes_evaluate_one_cells_probe_chunks(two_cpus, monkeypatch,
                                                       tmp_path):
    """The NLM cell is the costliest of the report; its probe chunks (stacks
    of 32 images at 16x16), not the whole cell, are the tasks, so both
    workers denoise NLM chunks."""
    calls = tmp_path / "calls"
    kernel = NlmDenoiser._kernel

    def recorded(self, xs):
        with open(calls, "a") as fh:
            fh.write(f"{os.getpid()} {len(xs)}\n")
        return kernel(self, xs)

    monkeypatch.setattr(NlmDenoiser, "_kernel", recorded)
    forked = run_report(tmp_path, "forked", PROBES)
    chunks = [line.split() for line in calls.read_text().splitlines()
              if line.endswith(" 32")]
    assert len(chunks) == 16
    assert len({pid for pid, _ in chunks}) == 2
    assert str(os.getpid()) in {pid for pid, _ in chunks}
    assert forked[0] == 0
    assert forked == run_report(tmp_path, "sequential", PROBES, workers_env="1")


def test_estimates_drawn_through_workers_are_bitwise_numerical_jacobian(two_cpus,
                                                                         monkeypatch):
    """Three 16x8 cells of four probe chunks each, in rounds of five tasks,
    so rounds straddle cells: J and grad rho of each cell are bitwise those
    of numerical_jacobian in this process."""
    monkeypatch.setattr(workers, "_ROUND", 5)
    rng = np.random.default_rng(4)
    cells = [(f, Image(rng.uniform(0.0, 255.0, (16, 8))))
             for f in (TdtDenoiser(25.0), MedianFilterDenoiser(3),
                       NlmDenoiser(search_radius=2, bandwidth=30.0))]
    eps = 0.5
    assert [len(diagnostics._chunk_tasks(None, x.pixels, eps)) for _, x in cells] == [4] * 3
    estimates = list(diagnostics._jacobian_estimates(cells, eps, workers._run_tasks))
    assert len(estimates) == len(cells)
    for (f, x), estimate in zip(cells, estimates):
        reference = diagnostics.numerical_jacobian(f, x, eps)
        assert estimate.epsilon == reference.epsilon == eps
        assert estimate.matrix.tobytes() == reference.matrix.tobytes()
        assert estimate.rho_gradient.tobytes() == reference.rho_gradient.tobytes()


@pytest.mark.parametrize("count", ["1", "2"])
def test_a_cells_metrics_error_wins_over_a_later_cells_chunk_error(
        two_cpus, monkeypatch, tmp_path, count):
    """Cell 0 (gmm, patch 0) fails in its metrics: its Jacobian at 8x8 is
    identically zero.  Cell 1 (median, patch 0) fails in a probe chunk, which
    runs first; one cell after another, cell 0's error comes first."""

    def diverging(self, xs):
        raise DivergenceError(iteration=1, norm=1e9, bound=1e5)

    monkeypatch.setattr(MedianFilterDenoiser, "_kernel", diverging)
    code, _, err, files = run_report(tmp_path, "failing", """\
        [experiment]
        name = jacobian-report
        seed = 7
        patches = 2
        patch_size = 8
        denoisers = gmm, median
    """, workers_env=count)
    assert (code, err, files) == (
        2, "error: Jacobian estimate is identically zero\n", {})


def test_report_warnings_come_cell_by_cell_as_without_workers(tmp_path):
    """Two median cells per wave: the kernel warns with its row count, 32 in
    a probe chunk and 1 in the metrics' apply.  Each cell's chunk warnings
    and then its metric warnings come before the next cell's."""
    script = tmp_path / "report.py"
    script.write_text(textwrap.dedent("""\
        import sys
        import warnings

        from redlab import MedianFilterDenoiser, cli, workers

        workers._usable_cpus = lambda: 2
        warnings.simplefilter("always")
        kernel = MedianFilterDenoiser._kernel


        def counted(self, xs):
            warnings.warn(f"median on {len(xs)} rows", UserWarning)
            return kernel(self, xs)


        MedianFilterDenoiser._kernel = counted
        sys.exit(cli.main(["run", sys.argv[1]]))
    """))
    config = tmp_path / "report.ini"
    config.write_text(textwrap.dedent("""\
        [experiment]
        name = gradient-report
        seed = 2
        patches = 2
        denoisers = median, wide

        [wide]
        kind = median
        window = 5
    """))
    runs = []
    for count in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), REDLAB_WORKERS=count,
                   REDLAB_OUT=str(tmp_path / f"out{count}"))
        runs.append(subprocess.run([sys.executable, str(script), str(config)], env=env,
                                   capture_output=True, text=True, timeout=60))
    sequential, forked = runs
    assert forked.returncode == sequential.returncode == 0
    assert forked.stderr == sequential.stderr
    rows = [int(row) for row in re.findall(r"median on (\d+) rows", forked.stderr)]
    # Four cells of 16 chunks of 32 rows each, then one apply of its metrics.
    assert rows == ([32] * 16 + [1]) * 4


def test_rounds_of_any_size_give_the_same_bytes(two_cpus, monkeypatch, tmp_path):
    """The report makes one `_run_tasks` over the chunks of the three
    patch-0 cells and one over the other three; the rounds of `_run_tasks`
    are its only batching, so any round size gives the same bytes."""
    text = """\
        [experiment]
        name = gradient-report
        seed = 3
        patches = 2
        patch_size = 8
        denoisers = tdt, median, nlm
    """
    # All of a round's claims go into the claim pipe in one write, which
    # fits one 4 KiB pipe page.
    assert 4 * workers._ROUND <= 4096
    calls, rounds = [], []
    run_tasks, run_round = cli._run_tasks, workers._run_round

    def counted_calls(tasks):
        calls.append(len(tasks))
        return run_tasks(tasks)

    def counted_rounds(tasks, count):
        rounds.append(len(tasks))
        return run_round(tasks, count)

    monkeypatch.setattr(cli, "_run_tasks", counted_calls)
    monkeypatch.setattr(workers, "_run_round", counted_rounds)
    default = run_report(tmp_path, "default", text)
    assert default[0] == 0
    assert (calls, rounds) == ([3, 3], [3, 3])
    for size, sizes in ((1, [1] * 6), (2, [2, 1, 2, 1])):
        calls.clear()
        rounds.clear()
        monkeypatch.setattr(workers, "_ROUND", size)
        assert run_report(tmp_path, f"round{size}", text) == default
        assert (calls, rounds) == ([3, 3], sizes)


KINDS = ["tdt", "median", "nlm", "linear", "gmm", "bernoulli"]
# The gmm Jacobian at 8x8 is identically zero, so the report exits 2.
GMM_EXITS_2 = """\
[experiment]
name = jacobian-report
seed = 7
patches = 2
patch_size = 8
denoisers = tdt, median, gmm
"""
# The first step overflows, so the run exits 3.
SD_OVERFLOWS = """\
[experiment]
name = trajectory
seed = 0
[problem]
size = 16
blur = 3
[denoiser]
kind = tdt
threshold = 1
[solver]
iterations = 110
method = sd
sd_step = 1e308
"""


@st.composite
def small_configs(draw):
    """A small config of any experiment.  Solver runs take 100 to 120
    iterations, so a spare CPU forks the log."""
    experiment = draw(st.sampled_from(["jacobian-report", "gradient-report", "lh-report",
                                       "trajectory", "cost-slice", "equilibrium-check",
                                       "deblur", "tweedie-check"]))
    text = f"[experiment]\nname = {experiment}\nseed = {draw(st.integers(0, 99))}\n"
    if experiment == "tweedie-check":
        return text + f"instances = {draw(st.integers(1, 4))}\n"
    if experiment.endswith("-report"):
        labels = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3, unique=True))
        return text + (f"patches = {draw(st.integers(1, 3))}\n"
                       f"patch_size = {draw(st.sampled_from([4, 8, 16]))}\n"
                       f"denoisers = {', '.join(labels)}\n")
    kind = "linear" if experiment == "deblur" else draw(st.sampled_from(KINDS))
    text += (f"[problem]\nsize = {draw(st.sampled_from([8, 16]))}\n"
             f"blur = {draw(st.sampled_from([1, 3]))}\n[denoiser]\nkind = {kind}\n")
    if kind == "nlm":
        text += "search_radius = 2\n"
    text += f"[solver]\niterations = {draw(st.integers(100, 120))}\n"
    if experiment not in ("equilibrium-check", "deblur"):
        method = draw(st.sampled_from(sorted(SOLVERS)))
        text += f"method = {method}\n"
        if method == "sd":
            step = draw(st.sampled_from([None, "1e5", "1e307", "1e308"]))
            text += "" if step is None else f"sd_step = {step}\n"
    if experiment == "cost-slice":
        text += f"[slice]\npoints = {draw(st.integers(2, 3))}\n"
    return text


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example(GMM_EXITS_2)
@example(SD_OVERFLOWS)
@given(small_configs())
def test_generated_configs_give_the_same_bytes_at_any_worker_count(text):
    """Exit code, stdout, stderr and output bytes of one process equal those
    of two CPUs (forked workers and logger), and for a report those of
    one- and two-task rounds too."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        tmp_path = Path(tmp)
        sequential = run_report(tmp_path, "sequential", text, workers_env="1")
        patch.delenv("REDLAB_WORKERS", raising=False)
        patch.setattr(workers, "_usable_cpus", lambda: 2)
        assert run_report(tmp_path, "forked", text) == sequential
        if "-report" in text:
            for size in (1, 2):
                patch.setattr(workers, "_ROUND", size)
                assert run_report(tmp_path, f"round{size}", text) == sequential


def test_only_the_workers_module_forks():
    """Forking, killing, reaping and shared memory stay in redlab.workers;
    the solvers keep only the numerics of their log."""
    src = REPO / "src" / "redlab"
    pattern = re.compile(r"\bos\.(fork|waitpid|kill)\b|\bmmap\b")
    assert [path.name for path in sorted(src.glob("*.py"))
            if path.name != "workers.py" and pattern.search(path.read_text())] == []
    imported = {alias.name.split(".")[0]
                for node in ast.walk(ast.parse((src / "solvers.py").read_text()))
                if isinstance(node, ast.Import) for alias in node.names}
    assert imported.isdisjoint({"os", "mmap", "pickle", "signal", "struct"})
