"""List every output cell that differs between two checkouts, op by op.

Usage (from the root of a checkout; each directory is a checkout with its
own ``src/``, and CHANGE also with its ``bench/``):

  python scripts/cell_diff.py PARENT CHANGE [WORKLOAD ...]

Both packages are loaded side by side in one process, as
``scripts/ab_inprocess.py`` loads them, and every op of the CHANGE
checkout's benchmark catalogues (all four workloads unless some are named)
runs once on each.  For each op whose output differs it prints every
changed CSV cell as ``row column: old -> new``, with the relative change
and the distance in ulps where both cells are numbers, and marks each
changed error code; a ``validate`` report is compared line by line.  Per
workload it then prints the count of ops and cells that differ, each
column's largest relative change and ulp distance, and the count of error
codes that changed.  ``scripts/output_digests.py`` says whether anything
moved; this says what.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import struct
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ab_inprocess import SIDES, side_by_side  # noqa: E402


def ordered(x: float) -> int:
    """x's IEEE bits as an integer that counts up with x, -0.0 and 0.0 alike."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(2**63) - i


def cell_change(old: str, new: str) -> tuple:
    """(relative change, ulps) of two numeric cells, or None where either is not a number."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    rel = abs(b - a) / abs(a) if a != 0.0 else float("inf")
    return rel, abs(ordered(b) - ordered(a))


def diff_csv(old: str, new: str) -> list:
    """(row, column, old, new) of every cell that differs; row -1 for a row count change."""
    rows = [list(csv.DictReader(io.StringIO(text))) for text in (old, new)]
    if len(rows[0]) != len(rows[1]):
        return [(-1, "rows", str(len(rows[0])), str(len(rows[1])))]
    return [(i, col, a[col], b[col])
            for i, (a, b) in enumerate(zip(*rows)) for col in a if a[col] != b.get(col)]


def diff_lines(old: str, new: str) -> list:
    """(line, "line", old, new) of every line of a report that differs."""
    a, b = old.splitlines(), new.splitlines()
    if len(a) != len(b):
        return [(-1, "lines", str(len(a)), str(len(b)))]
    return [(i, "line", x, y) for i, (x, y) in enumerate(zip(a, b)) if x != y]


def compare(workloads, runs: dict, workload: str) -> None:
    ops = [op for stratum in workloads.catalogue(workload).values() for op in stratum]
    n_ops = n_cells = n_codes = 0
    worst = {}
    counts = Counter()
    for op in ops:
        texts = {}
        for side in SIDES:
            run_op, config = runs[side]
            side_op = op if op.cfg is None else dataclasses.replace(op, cfg=config(**vars(op.cfg)))
            texts[side] = run_op(side_op).text
        if texts["parent"] == texts["change"]:
            continue
        n_ops += 1
        diff = diff_lines if op.kind == "validate" else diff_csv
        print(f"{workload} {op.key}")
        for row, col, old, new in diff(texts["parent"], texts["change"]):
            n_cells += 1
            counts[col] += 1
            change = cell_change(old, new)
            if col == "error_code":
                n_codes += 1
                note = "  ERROR CODE CHANGED"
            elif change is None:
                note = ""
            else:
                rel, ulps = change
                note = f"  rel {rel:.2e}  ulps {ulps}"
                best = worst.get(col, (0.0, 0))
                worst[col] = (max(best[0], rel), max(best[1], ulps))
            print(f"  {row} {col}: {old!r} -> {new!r}{note}")
    print(f"== {workload}: {n_ops} of {len(ops)} ops differ, {n_cells} cells, "
          f"{n_codes} error codes changed")
    for col, n in sorted(counts.items()):
        rel, ulps = worst.get(col, (float("nan"), 0))
        print(f"==   {col}: {n} cells, largest rel {rel:.2e}, largest ulps {ulps}")
    sys.stdout.flush()


def main(argv: list) -> int:
    return side_by_side(argv, compare, __doc__.split("\n\n")[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
