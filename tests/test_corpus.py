"""The byte contract: small CLI configs whose every output is pinned.

Each config in tests/corpus runs through `cli.main` in a temporary
directory.  The SHA-256 of every output file, of stdout and of stderr (with
the output directory written as <out>), and the exit code must equal the
record in tests/corpus/digests.json.  The digests depend on numpy's FFT and
BLAS builds, so they name the numpy version they were recorded with; on
another version the test skips.  A change that means to alter bytes
re-records them in the same commit, from the repository root, with

    PYTHONPATH=src python tests/test_corpus.py

which runs every config in one process (REDLAB_WORKERS=1), and names the
files that changed, and why, in CHANGES.md.
"""

import hashlib
import io
import json
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from redlab import Image, save_pgm, solvers, workers
from redlab.cli import main

CORPUS = Path(__file__).resolve().parent / "corpus"
DIGESTS = CORPUS / "digests.json"
CONFIGS = sorted(path.name for path in CORPUS.glob("*.ini"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_config(name: str, work: Path) -> dict:
    """Run corpus config `name` in directory `work`; its exit code and the
    digests of its stdout, stderr and output files."""
    shutil.copy(CORPUS / name, work / name)
    # A non-square 16x32 input for the configs that read `wide.pgm`.
    wide = np.add.outer(np.arange(16) * 11, np.arange(32) * 7) % 256
    save_pgm(Image(wide.astype(np.float64)), str(work / "wide.pgm"))
    # The same pixels as P2 text, a comment line and every whitespace byte
    # between the samples; and a 16x32 P2 file with its first 100 samples.
    gaps = [b" ", b"\t", b"\n", b"\r\n", b"\x0b", b"\x0c", b"  "]
    samples = [b"%d%s" % (v, gaps[i % len(gaps)]) for i, v in enumerate(wide.ravel().tolist())]
    (work / "wide-ascii.pgm").write_bytes(
        b"P2\n# wide.pgm as text\n32 16\n255\n" + b"".join(samples))
    (work / "short-ascii.pgm").write_bytes(b"P2\n16 32\n255\n" + b"".join(samples[:100]))
    out_dir = work / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"REDLAB_OUT": str(out_dir)}), \
            redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["run", str(work / name)])
    files = sorted(out_dir.iterdir()) if out_dir.exists() else []
    return {
        "exit": code,
        "stdout": _sha256(stdout.getvalue().replace(str(out_dir), "<out>").encode()),
        "stderr": _sha256(stderr.getvalue().replace(str(out_dir), "<out>").encode()),
        "files": {path.name: _sha256(path.read_bytes()) for path in files},
    }


@pytest.mark.parametrize("name", CONFIGS)
def test_config_outputs_match_their_digests(tmp_path, name):
    pinned = json.loads(DIGESTS.read_text())
    if pinned["numpy"] != np.__version__:
        pytest.skip(f"corpus digests were recorded with numpy {pinned['numpy']}; "
                    f"this is numpy {np.__version__}")
    assert run_config(name, tmp_path) == pinned["configs"][name]


@pytest.mark.parametrize("name", CONFIGS)
def test_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, name):
    """Forked workers (two CPUs) give the bytes and exit code of one process.
    The forked run also logs solver runs of any length in a forked logger."""
    for mode in ("forked", "sequential"):
        (tmp_path / mode).mkdir()
    monkeypatch.delenv("REDLAB_WORKERS", raising=False)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(solvers, "_FORK_ITERATIONS", 1)
    forked = run_config(name, tmp_path / "forked")
    monkeypatch.setenv("REDLAB_WORKERS", "1")
    assert run_config(name, tmp_path / "sequential") == forked


def test_every_config_has_a_record():
    assert CONFIGS
    assert sorted(json.loads(DIGESTS.read_text())["configs"]) == CONFIGS


def record(work: Path) -> None:
    """Rewrite DIGESTS from runs of every config, each in its own directory,
    in one process (REDLAB_WORKERS=1)."""
    configs = {}
    with mock.patch.dict(os.environ, {"REDLAB_WORKERS": "1"}):
        for name in CONFIGS:
            (work / name).mkdir()
            configs[name] = run_config(name, work / name)
    pinned = {"numpy": np.__version__, "configs": configs}
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
