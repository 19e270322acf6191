"""Self-tests of the benchmark's own arithmetic and output check.

Run directly with `python3 bench/selftest.py`; `run.py` also runs them
before every measurement, since they take milliseconds.
"""

from __future__ import annotations

import math
import sys

import check
import spans


class SelfTestError(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SelfTestError(what)


def test_self_times_of_nested_calls() -> None:
    """outer(0..10) holds a(1..3) and b(4..8); b holds c(5..6)."""
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    rec = spans.SpanRecorder(clock=lambda: next(ticks))
    c = rec.wrap("c", lambda: None)
    a = rec.wrap("a", lambda: None)
    b = rec.wrap("b", lambda: c())

    def body():
        a()
        b()
        return "done"

    expect(rec.wrap("outer", body)() == "done", "wrapper must return the result")
    expect([s[1] for s in rec.spans] == [-1, 0, 0, 2], f"parents {rec.spans}")
    expect(spans.self_times(rec.spans) == [4.0, 2.0, 3.0, 1.0],
           f"self times {spans.self_times(rec.spans)}")
    expect(sum(spans.self_times(rec.spans)) == 10.0, "self times must sum to the root")
    rows = spans.by_name(rec.spans)
    expect(rows["b"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}, f"by_name {rows['b']}")
    expect(spans.nearest_ancestor(rec.spans, 3, {"outer"}) == 0, "ancestor of c")
    expect(spans.nearest_ancestor(rec.spans, 1, {"b"}) == -1, "a is not under b")


def test_span_closes_on_exception() -> None:
    ticks = iter([0.0, 2.0])
    rec = spans.SpanRecorder(clock=lambda: next(ticks))

    def boom():
        raise ValueError("x")

    try:
        rec.wrap("boom", boom)()
    except ValueError:
        pass
    expect(rec.spans == [["boom", -1, 0.0, 2.0]], f"span after exception {rec.spans}")
    expect(rec._stack == [], "stack must unwind")


REFERENCE = (
    "iter,psnr_db,cost_red,fp_residual\n"
    "1,20.5,3500.25,12.5\n"
    "2,25.125,3490.0,1e-3\n"
    "3,27.0,3484.99,8.1e-24\n"
)


def test_output_check_rejects_one_perturbed_cell() -> None:
    name = "t.csv"
    expect(check.compare_csv(name, REFERENCE, REFERENCE, cells=True) == [],
           "identical CSVs must pass")
    ulp = REFERENCE.replace("3490.0", repr(math.nextafter(3490.0, 4000.0)))
    expect(check.compare_csv(name, ulp, REFERENCE, cells=True) == [],
           "a one-ulp change must pass")
    floor = REFERENCE.replace("8.1e-24", "3e-23")
    expect(check.compare_csv(name, floor, REFERENCE, cells=True) == [],
           "a change below the column's rounding floor must pass")
    perturbed = REFERENCE.replace("25.125", repr(25.125 * (1 + 1e-6)))
    problems = check.compare_csv(name, perturbed, REFERENCE, cells=True)
    expect(len(problems) == 1 and "row 2 psnr_db" in problems[0],
           f"one perturbed cell must be reported once, got {problems}")
    expect(check.compare_csv(name, perturbed, REFERENCE, cells=False) == [],
           "cells are not compared off the reference seed")
    short = REFERENCE.rsplit("3,", 1)[0]
    expect(len(check.compare_csv(name, short, REFERENCE, cells=False)) == 1,
           "a missing row must be reported on every seed")


def run_all() -> None:
    test_self_times_of_nested_calls()
    test_span_closes_on_exception()
    test_output_check_rejects_one_perturbed_cell()


if __name__ == "__main__":
    try:
        run_all()
    except SelfTestError as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
    print("selftest ok")
