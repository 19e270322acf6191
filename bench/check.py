"""Output checks for one `redlab run`: files, reference cells, properties.

Reference CSVs are recorded at the reference seed only; on any other seed
the cell comparison is skipped and only the seed-independent checks apply
(file set, CSV header and row count, the paper's properties, and
run-to-run determinism, which `run.py` checks by hashing).
"""

from __future__ import annotations

import csv
import gzip
import io
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Cells may differ by ulp-level reordering amplified through a contractive
# iteration, never by a changed algorithm: the tolerance is relative to
# the cell and to the largest magnitude in its column, whose late rows sit
# at the rounding floor of a converged iteration.
RTOL = 1e-8
# Report columns (e_J, e_grad_*, e_LH*) are relative squared errors of
# finite-difference estimates; below this they are rounding noise.
REPORT_FLOOR = 1e-12


def reference_files(workload: str) -> dict[str, str]:
    """CSV name -> reference text recorded for `workload`."""
    return {
        path.name[: -len(".gz")]: gzip.decompress(path.read_bytes()).decode()
        for path in sorted((REFERENCE_DIR / workload).glob("*.csv.gz"))
    }


def _table(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(name: str, got: str, ref: str, cells: bool) -> list[str]:
    """Problems found comparing one CSV with its reference.

    The header and row count are always compared; numeric cells only when
    `cells` is true (the run used the reference seed).
    """
    got_header, got_rows = _table(got)
    ref_header, ref_rows = _table(ref)
    if got_header != ref_header:
        return [f"{name}: header {got_header} != {ref_header}"]
    if len(got_rows) != len(ref_rows):
        return [f"{name}: {len(got_rows)} rows, expected {len(ref_rows)}"]
    problems = []
    for r, row in enumerate(got_rows):
        for cell in row:
            value = _number(cell)
            if value is not None and not math.isfinite(value):
                problems.append(f"{name}: row {r + 1} has non-finite cell {cell!r}")
    if not cells:
        return problems
    for c, column in enumerate(ref_header):
        ref_values = [_number(row[c]) for row in ref_rows]
        scale = max((abs(v) for v in ref_values if v is not None), default=0.0)
        floor = RTOL * scale
        if column.startswith("e_"):
            floor = max(floor, REPORT_FLOOR)
        for r, (row, want) in enumerate(zip(got_rows, ref_values)):
            cell = row[c]
            if want is None:
                if cell != ref_rows[r][c]:
                    problems.append(f"{name}: row {r + 1} {column} {cell!r} != {ref_rows[r][c]!r}")
                continue
            value = _number(cell)
            if value is None or abs(value - want) > RTOL * abs(want) + floor:
                problems.append(f"{name}: row {r + 1} {column} {cell} != reference {want!r}")
    return problems


def check_outputs(outdir: Path, experiment: str, refs: dict[str, str],
                  cells: bool) -> list[str]:
    """Check the files one run wrote against the recorded references."""
    expected = set(refs) | {f"{experiment}_summary.txt"}
    found = {p.name for p in outdir.iterdir()}
    if found != expected:
        return [f"files {sorted(found)} != expected {sorted(expected)}"]
    problems = []
    for name, ref in refs.items():
        problems += compare_csv(name, (outdir / name).read_text(), ref, cells)
    return problems


def check_probe_properties(outdir: Path) -> list[str]:
    """The paper's gradient findings on the gradient-report outputs.

    The product-rule gradient matches the finite-difference probe for every
    denoiser; the residual rule misses it for the median and NLM filters,
    whose Jacobians are not symmetric.
    """
    problems = []
    for label in ("tdt", "median", "nlm"):
        header, rows = _table((outdir / f"gradient-report_{label}.csv").read_text())
        for row in rows:
            cell = dict(zip(header, row))
            true_err = float(cell["e_grad_true"])
            if not true_err <= 1e-8:
                problems.append(f"{label} {cell['image']}: e_grad_true {true_err:.3e} > 1e-8")
            romano = float(cell["e_grad_romano"])
            if label != "tdt" and not romano >= 0.1:
                problems.append(f"{label} {cell['image']}: e_grad_romano {romano:.3e} < 0.1")
    return problems
