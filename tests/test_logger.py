"""The forked logger of `solvers._Run`: the log, errors, warnings and exit
codes of a run are those of logging inline, in one process."""

import os
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import astuple
from pathlib import Path

import pytest

from redlab import (
    IdentityOperator,
    Image,
    RedProblem,
    TdtDenoiser,
    awgn,
    cli,
    make_uniform_blur,
    solver_scene,
    solvers,
    workers,
)
from redlab.errors import ConfigError, DomainError
from redlab.solvers import SOLVERS, SolverConfig

REPO = Path(__file__).resolve().parents[1]
LOGGED = ["pg", "fp", "dpg", "apg", "admm", "admm_i1"]


@pytest.fixture
def short_runs_fork(two_cpus, monkeypatch):
    """Runs of any length fork a logger."""
    monkeypatch.setattr(solvers, "_FORK_ITERATIONS", 1)


@pytest.fixture
def forks(monkeypatch):
    """Counts os.fork calls."""
    calls = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real_fork())
    return calls


def problem(blur):
    truth = solver_scene(size=16, index=0)
    op = make_uniform_blur(3) if blur else IdentityOperator()
    p = RedProblem(operator=op, y=awgn(op.apply(truth), 2.0, seed=5),
                   noise_variance=2.0, weight=0.02, denoiser=TdtDenoiser(0.5))
    return p, truth


def bits(trajectory):
    return [repr(astuple(record)) for record in trajectory.records]


def solve_in_thread(solve, timeout=60.0):
    """solve() in a thread: ("ok", result) or ("raised", error)."""
    outcome = []

    def target():
        try:
            outcome.append(("ok", solve()))
        except BaseException as exc:  # handed to the test thread
            outcome.append(("raised", exc))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the solver did not return"
    return outcome[0]


@pytest.mark.parametrize("blur", [True, False], ids=["circular", "identity"])
@pytest.mark.parametrize("name", LOGGED)
def test_forked_and_inline_logs_are_bitwise_equal(short_runs_fork, forks, monkeypatch,
                                                  name, blur):
    """A two-slot ring makes the solver wait for the logger on most steps."""
    monkeypatch.setattr(solvers, "_RING_BYTES", 0)
    p, truth = problem(blur)
    cfg = SolverConfig(iterations=12, inner_iterations=2)
    x_forked, forked = SOLVERS[name](p, cfg, truth=truth)
    assert len(forks) == 1
    monkeypatch.setenv("REDLAB_WORKERS", "1")
    x_inline, inline = SOLVERS[name](p, cfg, truth=truth)
    assert len(forks) == 1
    assert len(forked) == 12
    assert bits(forked) == bits(inline)
    assert x_forked.pixels.tobytes() == x_inline.pixels.tobytes()


def test_a_long_run_through_the_default_ring_is_bitwise_inline(two_cpus, forks,
                                                               monkeypatch):
    """200 iterations at 16x16 go round the 163 slots of the ring."""
    p, _ = problem(blur=True)
    cfg = SolverConfig(iterations=200)
    forked = solvers.red_apg(p, cfg)[1]
    monkeypatch.setenv("REDLAB_WORKERS", "1")
    inline = solvers.red_apg(p, cfg)[1]
    assert len(forks) == 1
    assert [r.psnr_db for r in forked.records] == [None] * len(forked)
    assert bits(forked) == bits(inline)


def write_trajectory(tmp_path, method="pg", iterations=120, extra=""):
    config = tmp_path / f"{method}.ini"
    config.write_text(textwrap.dedent(f"""\
        [experiment]
        name = trajectory
        seed = 1

        [problem]
        size = 16
        blur = 3

        [denoiser]
        kind = tdt
        threshold = 5

        [solver]
        method = {method}
        iterations = {iterations}
    """) + extra)
    return str(config)


@pytest.mark.parametrize("method, extra, limit, loggers", [
    ("pg", "", None, 1),
    ("sd", "", None, 0),
    ("pg", "stop_fp_residual = 1e-30\n", None, 0),
    ("pg", "", "1", 0),
])
def test_a_trajectory_forks_one_logger_when_it_may(two_cpus, fork_calls, monkeypatch,
                                                   tmp_path, method, extra, limit,
                                                   loggers):
    if limit is not None:
        monkeypatch.setenv("REDLAB_WORKERS", limit)
    monkeypatch.setenv("REDLAB_OUT", str(tmp_path / "out"))
    assert cli.main(["run", write_trajectory(tmp_path, method, extra=extra)]) == 0
    assert len(fork_calls) == loggers


@pytest.mark.parametrize("cpus, limit, busy, spare", [
    (1, None, 1, False),
    (2, None, 1, True),
    (2, "1", 1, False),
    (4, None, 2, True),
    (4, None, 3, False),
    (1000, "3", 2, False),
])
def test_a_cpu_is_spare_when_each_busy_worker_could_fork_one_more(
        monkeypatch, cpus, limit, busy, spare):
    if limit is None:
        monkeypatch.delenv("REDLAB_WORKERS", raising=False)
    else:
        monkeypatch.setenv("REDLAB_WORKERS", limit)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(workers, "_busy", busy)
    assert workers._spare_cpu() is spare


def test_short_runs_log_inline(two_cpus, fork_calls, monkeypatch, tmp_path):
    monkeypatch.setenv("REDLAB_OUT", str(tmp_path / "out"))
    iterations = solvers._FORK_ITERATIONS - 1
    assert cli.main(["run", write_trajectory(tmp_path, iterations=iterations)]) == 0
    assert fork_calls == []


def test_deblur_workers_fork_no_logger(short_runs_fork, fork_calls, monkeypatch,
                                       tmp_path):
    """The two workers of deblur use both CPUs, so its solvers log inline; a
    logger forked in the child would meet the second-fork guard and fail."""
    config = tmp_path / "deblur.ini"
    config.write_text(textwrap.dedent("""\
        [experiment]
        name = deblur
        seed = 2

        [problem]
        size = 16
        blur = 3

        [solver]
        iterations = 5
    """))
    monkeypatch.setenv("REDLAB_OUT", str(tmp_path / "out"))
    assert cli.main(["run", str(config)]) == 0
    assert len(fork_calls) == 1


def test_a_divergence_mid_run_exits_3_as_in_one_process(two_cpus, forks, monkeypatch,
                                                        tmp_path, capsys):
    """An expansive f makes pg pass the divergence bound at iteration 82."""
    monkeypatch.setattr(TdtDenoiser, "apply", lambda self, x: Image(1.2 * x.pixels))
    config = write_trajectory(tmp_path, iterations=150)
    outcomes = []
    for limit in ("2", "1"):
        out_dir = tmp_path / f"out{limit}"
        monkeypatch.setenv("REDLAB_WORKERS", limit)
        monkeypatch.setenv("REDLAB_OUT", str(out_dir))
        outcomes.append((cli.main(["run", config]), capsys.readouterr(),
                         out_dir.exists()))
    assert len(forks) == 1
    assert outcomes[0] == outcomes[1]
    code, captured, wrote = outcomes[0]
    assert (code, captured.out, wrote) == (3, "", False)
    assert "at iteration 82" in captured.err


def test_a_logger_that_dies_makes_the_run_raise(short_runs_fork, monkeypatch):
    parent = os.getpid()
    entry = solvers._log_entry

    def dying_entry(*args):
        if os.getpid() != parent:
            os._exit(9)
        return entry(*args)

    monkeypatch.setattr(solvers, "_log_entry", dying_entry)
    monkeypatch.setattr(solvers, "_RING_BYTES", 0)
    p, truth = problem(blur=True)
    kind, error = solve_in_thread(
        lambda: solvers.red_pg(p, SolverConfig(iterations=30), truth=truth))
    assert kind == "raised"
    assert isinstance(error, ChildProcessError)
    assert "exited with code 9" in str(error)


def test_a_log_error_beats_a_later_error_of_the_solver(short_runs_fork, monkeypatch):
    """The log fails at iteration 3 after the observer, running ahead in this
    process, has failed at iteration 6; an inline log fails first."""
    entry = solvers._log_entry

    def slow_failure(p, truth, k, *args):
        if k == 3:
            time.sleep(0.2)
            raise DomainError("log fails at 3")
        return entry(p, truth, k, *args)

    def observer(k, x):
        if k == 6:
            raise ConfigError("observer fails at 6")

    monkeypatch.setattr(solvers, "_log_entry", slow_failure)
    p, truth = problem(blur=True)
    outcomes = []
    for limit in ("2", "1"):
        monkeypatch.setenv("REDLAB_WORKERS", limit)
        outcomes.append(solve_in_thread(lambda: solvers.red_pg(
            p, SolverConfig(iterations=10), truth=truth, observer=observer)))
    for kind, error in outcomes:
        assert kind == "raised"
        assert type(error) is DomainError and str(error) == "log fails at 3"


def test_warnings_of_the_log_reach_stderr_in_inline_order(tmp_path):
    """Warnings of the log and of the solver's own steps interleave on stderr
    as when one process logs inline."""
    script = tmp_path / "warn.py"
    script.write_text(textwrap.dedent("""\
        import warnings

        from redlab import (RedProblem, TdtDenoiser, awgn, make_uniform_blur,
                            solver_scene, solvers, workers)

        workers._usable_cpus = lambda: 2
        solvers._FORK_ITERATIONS = 1
        entry = solvers._log_entry


        def warned_entry(p, truth, k, *args):
            if k in (2, 4):
                warnings.warn(f"log {k}", UserWarning)
            warnings.warn("the same text each time", UserWarning)
            return entry(p, truth, k, *args)


        def observer(k, x):
            if k in (2, 3):
                warnings.warn(f"observer {k}", UserWarning)


        solvers._log_entry = warned_entry
        truth = solver_scene(size=16, index=0)
        op = make_uniform_blur(3)
        p = RedProblem(operator=op, y=awgn(op.apply(truth), 2.0, seed=5),
                       noise_variance=2.0, weight=0.02, denoiser=TdtDenoiser(0.5))
        _, trajectory = solvers.red_pg(p, solvers.SolverConfig(iterations=6),
                                       observer=observer)
        print(len(trajectory))
    """))
    runs = []
    for limit in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), REDLAB_WORKERS=limit)
        runs.append(subprocess.run([sys.executable, str(script)], env=env,
                                   capture_output=True, text=True, timeout=60))
    inline, forked = runs
    assert forked.returncode == inline.returncode == 0
    assert forked.stdout == inline.stdout == "6\n"
    assert forked.stderr == inline.stderr
    shown = [line.split("UserWarning: ")[1] for line in forked.stderr.splitlines()
             if "UserWarning: " in line]
    # Inline, the observer of iteration 3 runs before the log of iteration 4.
    assert shown == ["the same text each time", "log 2", "observer 2", "observer 3",
                     "log 4"]
