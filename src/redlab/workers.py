"""The process budget of a run: forked workers for independent tasks.

`_run_tasks` runs an experiment's independent tasks in the calling process
plus forked children, one per usable CPU and at most ``REDLAB_WORKERS`` in
all.  `_spare_cpu` tells a solver whether the budget leaves room for one
more busy process, the forked logger of `solvers._Run`.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
import sys
import warnings
from collections.abc import Callable, Sequence
from typing import TypeVar

from .errors import ConfigError

_T = TypeVar("_T")
# All of a round's task indices go into the claim pipe in one write before
# any worker starts.  1024 four-byte indices fill one 4 KiB page, the
# smallest capacity Linux gives a pipe, so that write never blocks.
_ROUND = 1024
# Worker processes of the budget that are busy: this one, or all the
# workers of a `_run_tasks` round, in the parent and in each child.
_busy = 1


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        return os.cpu_count() or 1


def _worker_limit() -> int | None:
    """The ``REDLAB_WORKERS`` cap on worker processes; None when unset."""
    raw = os.environ.get("REDLAB_WORKERS")
    if not raw:
        return None
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ConfigError(f"REDLAB_WORKERS: expected an integer >= 1, got {raw!r}")
    return limit


def _spare_cpu() -> bool:
    """Whether every busy worker could fork one more busy process and the
    budget, usable CPUs capped by ``REDLAB_WORKERS``, would still hold."""
    cpus = _usable_cpus()
    return hasattr(os, "fork") and 2 * _busy <= min(cpus, _worker_limit() or cpus)


def _run_tasks(tasks: Sequence[Callable[[], _T]]) -> list[_T]:
    """Call every task and return the results in task order.

    The calling process is one worker and forks one more per usable CPU, up
    to one per task and to ``REDLAB_WORKERS`` in all.  Forked children
    inherit the tasks, closures and shared objects included, so only
    results, errors and warnings are pickled.  Workers claim task indices
    in order, so the schedule is dynamic, and the outcome is that of calling
    the tasks one after another: the error of the earliest failing task is
    raised, no task is claimed once a failure is known, and the warnings of
    the tasks up to it are issued in task order.  Tasks must not print,
    since what a child writes is lost.
    """
    global _busy
    workers = min(len(tasks), _usable_cpus(), _worker_limit() or len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        return [task() for task in tasks]
    results: list[_T] = []
    busy, _busy = _busy, workers
    try:
        for start in range(0, len(tasks), _ROUND):
            results += _run_round(tasks[start:start + _ROUND], workers)
    finally:
        _busy = busy
    return results


def _run_round(tasks: Sequence[Callable[[], _T]], workers: int) -> list[_T]:
    claims, claims_in = os.pipe()
    os.write(claims_in, b"".join(i.to_bytes(4, "little") for i in range(len(tasks))))
    os.close(claims_in)
    children: dict[int, int] = {}  # pid -> read end of its result pipe
    try:
        for _ in range(min(workers, len(tasks)) - 1):
            results_out, results_in = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes or memory: go on with fewer
                os.close(results_out)
                os.close(results_in)
                break
            if pid == 0:
                _report_and_exit(results_in, functools.partial(_work, tasks, claims))
            os.close(results_in)
            children[pid] = results_out
        records = _work(tasks, claims)
        exit_code = None
        for pid in list(children):
            data = _read_to_end(children[pid])
            os.close(children.pop(pid))
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code == 0:
                records += pickle.loads(data)
            else:
                exit_code = code
    finally:
        os.close(claims)
        for pid, results_out in children.items():
            os.close(results_out)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    by_index = {record[0]: record for record in records}
    for index in range(len(tasks)):
        if index not in by_index:
            raise ChildProcessError(
                f"a worker process exited with code {exit_code} before it "
                f"reported task {index}"
            )
        _, ok, value, caught = by_index[index]
        _reissue(caught)
        if not ok:
            raise value
    return [by_index[index][2] for index in range(len(tasks))]


def _work(tasks: Sequence[Callable[[], _T]], claims: int) -> list[tuple]:
    """Run claimed tasks until none is left or one fails.

    Each record is (index, ok, value or exception, warnings), a warning as
    (message, category, filename, lineno).
    """
    records = []
    while len(claim := os.read(claims, 4)) == 4:
        index = int.from_bytes(claim, "little")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                ok, value = True, tasks[index]()
            except Exception as exc:  # sent back and raised in task order
                ok, value = False, exc
        records.append((index, ok, value, _warning_records(caught)))
        if not ok:
            # Indices are claimed in order, so every unclaimed task comes later.
            while os.read(claims, 4096):
                pass
            break
    return records


def _report_and_exit(results_in: int, work: Callable[[], object]) -> None:
    """In a forked child: send what `work` returns, pickled, and exit at
    once, skipping the parent's cleanup and buffered output.  A result that
    does not pickle ends the child with code 1, which the parent reports."""
    code = 1
    try:
        view = memoryview(pickle.dumps(work()))
        while view:
            view = view[os.write(results_in, view):]
        code = 0
    finally:
        os._exit(code)


def _warning_records(caught: list[warnings.WarningMessage]) -> list[tuple]:
    """Caught warnings as (message, category, filename, lineno) for `_reissue`."""
    return [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _read_to_end(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 20):
        chunks.append(chunk)
    return b"".join(chunks)


def _reissue(caught: list[tuple]) -> None:
    """Issue recorded warnings as `warnings.warn` would have where they were
    raised, so this process's filters and once-only registries apply."""
    if not caught:
        return
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for message, category, filename, lineno in caught:
        namespace = vars(modules[filename]) if filename in modules else None
        warnings.warn_explicit(
            message, category, filename, lineno,
            module=namespace and namespace["__name__"],
            registry=namespace and namespace.setdefault("__warningregistry__", {}),
            module_globals=namespace,
        )
