"""The process budget of a run, and the only code that forks.

`_run_tasks` yields the results of an experiment's independent tasks in
task order, as calling them one after another would; it runs them in the
calling process plus forked children, one per usable CPU and at most
``REDLAB_WORKERS`` in all.  A `_Stream` is one forked worker whose tasks
arrive one at a time: the logger of `solvers._Run`, when `_spare_cpu` finds
room for it in the budget.  Every child is started by `_fork`, runs `_work`,
the one child loop, on 4-byte task claims from a pipe, and is collected by
`_reap`.
"""

from __future__ import annotations

import contextlib
import functools
import mmap
import os
import pickle
import signal
import sys
import warnings
from collections.abc import Callable, Iterator, Sequence
from typing import TypeVar

import numpy as np

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


def _run_tasks(tasks: Sequence[Callable[[], _T]]) -> Iterator[_T]:
    """Drawn from, the same as ``(task() for task in tasks)``: results come
    in task order, each task's warnings are issued when its result is
    drawn, and the earliest failing task's error is raised in its place.

    The calling process is one worker and forks one more per usable CPU, up
    to one per task and to ``REDLAB_WORKERS`` in all.  Forked children
    inherit the tasks, closures and shared objects included, so only
    results, errors and warnings are pickled.  The tasks run in rounds of
    at most _ROUND, in which workers claim task indices in order, so the
    schedule is dynamic and no task is claimed once a failure is known.  A
    round finishes, its children reaped, before its first result is drawn,
    so a caller that stops drawing leaves no process behind, and between
    draws the caller has the budget it had before.  Tasks must not print,
    since what a child writes is lost.
    """
    global _busy
    workers = min(len(tasks), _usable_cpus(), _worker_limit() or len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        for task in tasks:
            yield task()
        return
    for start in range(0, len(tasks), _ROUND):
        batch = tasks[start:start + _ROUND]
        busy, _busy = _busy, workers
        try:
            records, exit_code = _run_round(batch, workers)
        finally:
            _busy = busy
        by_index = {record[0]: record for record in records}
        for index in range(len(batch)):
            if index not in by_index:
                raise ChildProcessError(
                    f"a worker process exited with code {exit_code} before it "
                    f"reported task {start + index}"
                )
            _, ok, value, caught = by_index.pop(index)
            _reissue(caught)
            if not ok:
                raise value
            yield value


def _run_round(tasks: Sequence[Callable[[], _T]],
               workers: int) -> tuple[list[tuple], int | None]:
    """The `_work` records of one round, and the exit code of a child that
    did not report (None when every child reported)."""
    claims, claims_in = os.pipe()
    os.write(claims_in, b"".join(i.to_bytes(4, "little") for i in range(len(tasks))))
    os.close(claims_in)
    children: list[tuple[int, int]] = []
    try:
        for _ in range(min(workers, len(tasks)) - 1):
            child = _fork(functools.partial(_work, tasks, claims))
            if child is None:  # out of processes or memory: go on with fewer
                break
            children.append(child)
        records = _work(tasks, claims)
        exit_code = None
        while children:
            code, reported = _reap(*children.pop(0))
            if code == 0:
                records += reported
            else:
                exit_code = code
    finally:
        os.close(claims)
        for child in children:
            _reap(*child, kill=True)
    return records, exit_code


class _Stream:
    """A solver run's forked logger: a worker fed tasks through a shared ring.

    The ring holds as many slots of the structured dtype `slot` as fit in
    `ring_bytes`, at least 2 and at most _ROUND, so the claims in flight fit
    one pipe page and no claim write blocks.  `send` fills the next slot and
    claims its index as a pool claims a task; it waits only when every slot
    is taken.  The worker calls `task` on the claimed slot's fields, which
    copies them out and returns the work to do, frees the slot with a byte
    on the ack pipe and does the work.  `finish` returns the results in send
    order and raises what running each task at its `send` would have raised
    first, after the warnings of both processes in that order.
    """

    def __init__(self, child: tuple[int, int], fields: list[np.ndarray], claims: int,
                 acks: int):
        self.child, self.fields, self.claims, self.acks = child, fields, claims, acks
        self.slots, self.sent, self.pending = len(fields[0]), 0, 0
        # This process's warnings, and how many came before each send.
        self.catcher = warnings.catch_warnings(record=True)
        self.caught = self.catcher.__enter__()
        warnings.simplefilter("always")
        self.marks: list[int] = []

    @classmethod
    def start(cls, task: Callable[..., Callable[[], _T]], slot: np.dtype,
              ring_bytes: int) -> _Stream | None:
        """Fork the worker; None when the fork fails."""
        count = max(2, min(ring_bytes // slot.itemsize, _ROUND))
        ring = np.ndarray(count, slot, mmap.mmap(-1, count * slot.itemsize))
        fields = [ring[field] for field in slot.names]
        (claims, claims_in), (acks, acks_in) = os.pipe(), os.pipe()

        def take(index: int) -> _T:
            work = task(*[field[index] for field in fields])
            os.write(acks_in, b"\0")
            return work()

        def work() -> list[tuple]:
            records = _work([functools.partial(take, i) for i in range(count)], claims)
            # A report larger than the pipe holds waits for `finish`, so a `send`
            # that waits on a full ring must see that no ack will come.
            os.close(acks_in)
            return records

        child = _fork(work, close=(claims_in, acks))
        os.close(claims)
        os.close(acks_in)
        if child is None:
            os.close(claims_in)
            os.close(acks)
            return None
        return cls(child, fields, claims_in, acks)

    def send(self, *values: object) -> None:
        """Fill the fields of the next slot with `values`, leaving those
        whose value is None, and claim the slot for the worker."""
        # A worker that has ended sends no ack and takes no claim, which
        # raises BrokenPipeError here; `finish` reports why it ended.
        if self.pending == self.slots:
            if not (acked := os.read(self.acks, self.slots)):
                raise BrokenPipeError("the logger process takes no more tasks")
            self.pending -= len(acked)
        index = self.sent % self.slots
        for field, value in zip(self.fields, values):
            if value is not None:
                field[index] = value
        self.marks.append(len(self.caught))
        os.write(self.claims, index.to_bytes(4, "little"))
        self.sent += 1
        self.pending += 1

    def finish(self, error: BaseException | None) -> list:
        """Reap the worker, issue the warnings and return the results; raise
        the first task's error.  When `error`, which ends the caller's run,
        is not an Exception (an interrupt), kill the worker and return []."""
        self.catcher.__exit__(None, None, None)
        interrupted = error is not None and not isinstance(error, Exception)
        try:
            os.close(self.claims)
            code, records = _reap(*self.child, kill=interrupted)
        finally:
            os.close(self.acks)
        if interrupted:
            return []
        if code != 0:
            raise ChildProcessError(
                f"the logger process exited with code {code} before it reported"
            )
        caught = _warning_records(self.caught)
        # Run at its send, a task's warnings come after this process's
        # warnings up to that send and before the ones that follow.
        values, ordered, shown = [], [], 0
        for sent, (_, ok, value, logged) in zip(self.marks, records):
            ordered += caught[shown:sent] + logged
            shown = sent
            if not ok:
                _reissue(ordered)
                raise value
            values.append(value)
        _reissue(ordered + caught[shown:])
        return values


def _work(tasks: Sequence[Callable[[], _T]], claims: int) -> list[tuple]:
    """Run claimed tasks until the claims end or a task fails.

    Each record is (index, ok, value or exception, warnings), a warning as
    (message, category, filename, lineno).
    """
    records = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        while len(claim := os.read(claims, 4)) == 4:
            index, start = int.from_bytes(claim, "little"), len(caught)
            try:
                ok, value = True, tasks[index]()
            except Exception as exc:  # sent back and raised in task order
                ok, value = False, exc
            records.append((index, ok, value, _warning_records(caught[start:])))
            if not ok:
                # Indices are claimed in order, so every unclaimed task comes
                # later.  Take the queued claims, at most _ROUND, but wait for
                # no more: a stream's sender may be waiting for an ack.
                os.set_blocking(claims, False)
                with contextlib.suppress(BlockingIOError):
                    os.read(claims, 4 * _ROUND)
                break
    return records


def _fork(work: Callable[[], object], close: Sequence[int] = ()) -> tuple[int, int] | None:
    """Fork a child that closes the descriptors `close`, sends what `work`
    returns, pickled, and exits at once, skipping the parent's cleanup and
    buffered output.  Returns the child's pid and the read end of its report
    pipe, or None when the fork fails (out of processes or memory).  A
    report that does not pickle ends the child with code 1."""
    results, results_in = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(results)
        os.close(results_in)
        return None
    if pid == 0:
        code = 1
        try:
            for fd in (results, *close):
                os.close(fd)
            with os.fdopen(results_in, "wb") as report:
                pickle.dump(work(), report)
            code = 0
        finally:
            os._exit(code)
    os.close(results_in)
    return pid, results


def _reap(pid: int, results: int, kill: bool = False) -> tuple[int, object]:
    """Read a forked child's report to its end and wait for the child.

    Returns the exit code and the report unpickled, or None when the code is
    not 0.  The child is killed first with `kill`, or when reading fails.
    """
    data = None
    try:
        if not kill:
            data = b"".join(iter(functools.partial(os.read, results, 1 << 20), b""))
    finally:
        os.close(results)
        if data is None:
            os.kill(pid, signal.SIGKILL)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    return code, None if data is None or code else pickle.loads(data)


def _warning_records(caught: list[warnings.WarningMessage]) -> list[tuple]:
    """Caught warnings as (message, category, filename, lineno) for `_reissue`."""
    return [(w.message, w.category, w.filename, w.lineno) for w in caught]


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
