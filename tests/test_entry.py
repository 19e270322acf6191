"""The process entry of the `redlab` command.

`cli._process_entry` freezes the import-time heap once and runs `main`;
the console script and ``python -m redlab.cli`` both enter through it, a
fresh process gives the bytes of an in-process `cli.main` call, and
importing the CLI loads no lazy numpy module and freezes nothing.
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


def test_entry_freezes_once_before_main_and_returns_its_exit_code(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))

    def fake_main(argv=None):
        calls.append(("main", argv))
        return 7

    monkeypatch.setattr(cli, "main", fake_main)
    assert cli._process_entry() == 7
    assert calls == ["freeze", ("main", None)]


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
