"""`workers._run_tasks`: independent tasks in forked workers, with the
outcome of calling them one after another."""

import functools
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from redlab import cli, workers
from redlab.errors import ConfigError, DivergenceError

REPO = Path(__file__).resolve().parents[1]


def run_with_timeout(tasks, timeout=60.0):
    """`_run_tasks(tasks)` in a thread: ("ok", results) or ("raised", error)."""
    outcome = []

    def target():
        try:
            outcome.append(("ok", workers._run_tasks(tasks)))
        except BaseException as exc:  # handed to the test thread
            outcome.append(("raised", exc))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "_run_tasks did not return"
    return outcome[0]


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
        deadline = time.monotonic() + 30
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)

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
        deadline = time.monotonic() + 30
        while not claimed.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return index

    kind, error = run_with_timeout([functools.partial(task, i) for i in range(2)])
    assert kind == "raised"
    assert isinstance(error, ChildProcessError)
    assert "exited with code 9" in str(error)


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


        print(workers._run_tasks([functools.partial(task, i) for i in range(3)]))
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
