"""Shared fixtures: small recovery problems, a two-CPU process budget,
counted forks, and checks that no test leaves a child process behind or
freezes the collector's heap."""

import gc
import os

import numpy as np
import pytest

from redlab import (
    Denoiser,
    LinearSymmetricDenoiser,
    RedProblem,
    TdtDenoiser,
    awgn,
    make_uniform_blur,
    solver_scene,
    workers,
)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fails a test that leaves a child process behind, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (pid {pid or 'still running'})")


@pytest.fixture(autouse=True)
def heap_not_frozen():
    """Fails a test that changes how many objects the collector holds frozen:
    only the process entry, `cli._process_entry`, may freeze, so no
    in-process `cli.main` call or library path freezes its caller's heap."""
    before = gc.get_freeze_count()
    yield
    after = gc.get_freeze_count()
    if after != before:
        gc.unfreeze()  # the next test starts unfrozen
        pytest.fail(f"the test changed the frozen object count from {before} to {after}")


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.delenv("REDLAB_WORKERS", raising=False)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)


@pytest.fixture
def fork_calls(monkeypatch):
    """Counts os.fork calls; only the first starts a process, so a wrong
    worker count fails the test instead of starting that many processes.
    A second fork, in this process or in the forked child, raises."""
    calls = []
    real_fork = os.fork

    def guarded_fork():
        calls.append(1)
        if len(calls) > 1:
            raise AssertionError("a second fork")
        return real_fork()

    monkeypatch.setattr(os, "fork", guarded_fork)
    return calls


class IdentityDenoiser(Denoiser):
    """f(x) = x, for closed-form checks where the prior term must vanish."""

    def _kernel(self, xs: np.ndarray) -> np.ndarray:
        return xs.copy()


@pytest.fixture
def identity_denoiser():
    return IdentityDenoiser()


@pytest.fixture(scope="session")
def blur16_linear_problem():
    """16x16 periodic deblurring regularized by the symmetric local average."""
    truth = solver_scene(size=16, index=0)
    op = make_uniform_blur(3)
    y = awgn(op.apply(truth), 2.0, seed=5)
    den = LinearSymmetricDenoiser.local_average((16, 16))
    return RedProblem(operator=op, y=y, noise_variance=2.0, weight=0.02,
                      denoiser=den)


@pytest.fixture(scope="session")
def blur16_tdt_problem():
    """Same instance regularized by a wavelet soft-threshold denoiser."""
    truth = solver_scene(size=16, index=0)
    op = make_uniform_blur(3)
    y = awgn(op.apply(truth), 2.0, seed=5)
    return RedProblem(operator=op, y=y, noise_variance=2.0, weight=0.02,
                      denoiser=TdtDenoiser(0.5))
