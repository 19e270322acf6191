"""The process entry of the `redlab` command.

`cli._process_entry` freezes the import-time heap once, runs `main`,
flushes stdout and stderr and ends the process with `os._exit`; the
console script and ``python -m redlab.cli`` both enter through it, a
fresh process gives the bytes and exit code of an in-process `cli.main`
call, also when its stdout is a closed pipe, importing the CLI loads no
lazy numpy module and freezes nothing, and a command imports only the
redlab modules it runs.
"""

import ast
import gc
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from redlab import cli

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "tests" / "corpus"


def _process_env(**extra: str) -> dict[str, str]:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), **extra}
    env.pop("PYTHONWARNINGS", None)
    return env


class _Exited(Exception):
    """Raised by the stand-in for os._exit, which never returns."""


class _Stream:
    def __init__(self, name, calls, error=None):
        self.name, self.calls, self.error = name, calls, error

    def flush(self):
        self.calls.append(("flush", self.name))
        if self.error is not None:
            raise self.error


def _record_entry(monkeypatch, failing_stream=None):
    """Records the entry's freeze, `main`, flushes and exit, in order; `main`
    returns 7 and the flush of `failing_stream` raises."""
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))

    def fake_main(argv=None):
        calls.append(("main", argv))
        return 7

    def fake_exit(code):
        calls.append(("_exit", code))
        raise _Exited

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(os, "_exit", fake_exit)
    for name in ("stdout", "stderr"):
        error = BrokenPipeError(32, "Broken pipe") if name == failing_stream else None
        monkeypatch.setattr(sys, name, _Stream(name, calls, error))
    return calls


def test_entry_freezes_runs_main_flushes_and_exits_with_its_code(monkeypatch):
    calls = _record_entry(monkeypatch)
    with pytest.raises(_Exited):
        cli._process_entry()
    assert calls == ["freeze", ("main", None), ("flush", "stdout"),
                           ("flush", "stderr"), ("_exit", 7)]


@pytest.mark.parametrize("stream", ["stdout", "stderr"])
def test_entry_returns_the_exit_code_when_a_flush_raises(monkeypatch, stream):
    """The interpreter's own exit then flushes again and reports the failure."""
    calls = _record_entry(monkeypatch, failing_stream=stream)
    assert cli._process_entry() == 7
    flushes = [("flush", "stdout"), ("flush", "stderr")]
    assert calls == ["freeze", ("main", None),
                     *flushes[:flushes.index(("flush", stream)) + 1]]


def test_entry_lets_an_exception_from_main_through(monkeypatch):
    calls = _record_entry(monkeypatch)

    def failing_main(argv=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "main", failing_main)
    with pytest.raises(KeyboardInterrupt):
        cli._process_entry()
    assert calls == ["freeze"]


def test_console_script_and_main_block_name_the_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((REPO / "pyproject.toml").read_text())
    module, _, function = pyproject["project"]["scripts"]["redlab"].partition(":")
    assert (module, function) == ("redlab.cli", "_process_entry")
    tree = ast.parse(Path(cli.__file__).read_text())
    blocks = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(block) for block in blocks] == [
        f"if __name__ == '__main__':\n    sys.exit({function}())"]


def test_importing_the_cli_loads_no_lazy_numpy_module_and_freezes_nothing():
    """numpy.random and numpy.fft load on first use, which `validate` never
    makes; only the process entry freezes."""
    code = ("import gc, sys, redlab.cli; "
            "print([m for m in ('numpy.random', 'numpy.fft') if m in sys.modules], "
            "gc.get_freeze_count())")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=60, env=_process_env())
    assert (result.returncode, result.stdout, result.stderr) == (0, "[] 0\n", "")


def test_a_fresh_import_of_the_package_loads_no_submodule():
    code = "import sys, redlab; print([m for m in sys.modules if m.startswith('redlab.')])"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=60, env=_process_env())
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


_SOLVER_MODULES = ("redlab.solvers", "redlab.smd", "redlab.equilibrium")


@pytest.mark.parametrize("config, loaded", [
    ("[experiment]\nname = gradient-report\nseed = 0\npatches = 1\npatch_size = 8\n",
     []),
    ("[experiment]\nname = trajectory\nseed = 0\n[problem]\nsize = 8\n"
     "[solver]\niterations = 3\n", ["redlab.solvers"]),
], ids=["report", "trajectory"])
def test_a_command_imports_only_the_modules_it_runs(tmp_path, config, loaded):
    """`validate`, then `run`, in a fresh process: a report loads none of the
    solver, score-matching and equilibrium modules, a solver run only the
    solvers."""
    path = tmp_path / "exp.ini"
    path.write_text(config)
    code = ("import sys\nfrom redlab import cli\nseen = []\n"
            "for command in ('validate', 'run'):\n"
            f"    code = cli.main([command, {str(path)!r}])\n"
            f"    seen.append((code, [m for m in {_SOLVER_MODULES!r}\n"
            "                         if m in sys.modules]))\n"
            "print(seen)")
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=_process_env(REDLAB_WORKERS="1", REDLAB_OUT=str(tmp_path / "out")),
    )
    assert (result.returncode, result.stdout.splitlines()[-1], result.stderr) == (
        0, repr([(0, loaded), (0, loaded)]), "")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_process_writing_to_a_closed_pipe_exits_as_before(unbuffered):
    """Unbuffered, the first print fails inside `main`, which reports it and
    exits 2; buffered, the entry's flush fails and the interpreter's exit
    reports it, with exit code 120."""
    env = _process_env(PYTHONUNBUFFERED="1")
    if not unbuffered:
        del env["PYTHONUNBUFFERED"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "redlab.cli", "validate",
             str(CORPUS / "deblur-identity-16.ini")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60, env=env,
        )
    finally:
        os.close(write_end)
    if unbuffered:
        assert (result.returncode, result.stderr) == (2, "error: [Errno 32] Broken pipe\n")
    else:
        lines = result.stderr.splitlines()
        assert (result.returncode, len(lines), lines[-1]) == (
            120, 2, "BrokenPipeError: [Errno 32] Broken pipe")
        assert lines[0].startswith(
            "Exception ignored in: <_io.TextIOWrapper name='<stdout>'")


def _outcome(code: int, stdout: str, stderr: str, out_dir: Path) -> tuple:
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} \
        if out_dir.exists() else {}
    return code, stdout.replace(str(out_dir), "<out>"), stderr, files


@pytest.mark.parametrize("name", [
    "deblur-identity-16.ini",
    "jacobian-report-tdt-median.ini",
    "jacobian-report-gmm-exits-2.ini",
    "deblur-sd-diverges.ini",
])
def test_a_process_gives_the_bytes_of_an_in_process_run(tmp_path, name):
    """Output files, stdout, stderr and exit code of `python -m redlab.cli
    run` equal those of `cli.main`, and nothing is reported at exit."""
    config = str(CORPUS / name)
    out_dir = tmp_path / "process"
    result = subprocess.run(
        [sys.executable, "-m", "redlab.cli", "run", config], cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
        env=_process_env(REDLAB_OUT=str(out_dir)),
    )
    process = _outcome(result.returncode, result.stdout, result.stderr, out_dir)
    out_dir = tmp_path / "in-process"
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"REDLAB_OUT": str(out_dir)}), \
            redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(["run", config])
    assert process == _outcome(code, stdout.getvalue(), stderr.getvalue(), out_dir)
    assert "Exception ignored" not in result.stderr
