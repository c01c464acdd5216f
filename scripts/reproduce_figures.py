"""Regenerate every canned figure dataset as CSV, one file per figure.

Usage (from the repo root, after `pip install -e .`):

  python scripts/reproduce_figures.py --outdir figure_data
  python scripts/reproduce_figures.py --only fig3 fig9

Each dataset is the same CSV the `figure` CLI subcommand emits; reruns are
byte-identical.  The script prints one line per figure with the row count
and how many rows carry an error code (singular grid points are reported,
not dropped), then runs the self-validation suite unless --skip-validate
is given.

Every run also writes `<outdir>/summary.json`, a record of the figures it
made: for each, the row count, the count of each error code and the
seconds the figure took (its rows and CSV, wall clock).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from collections import Counter

from nearfield_crb.experiment_cli import FIGURES, main as cli_main
from nearfield_crb import validation


def summarize(path: str) -> tuple[int, Counter]:
    """The row count of a figure's CSV and the count of each error code in it."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return len(rows), Counter(row["error_code"] for row in rows if row["error_code"])


def write_summary(outdir: str, figures: dict) -> None:
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"figures": figures}, fh, indent=2)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description="Regenerate the figure datasets.")
    ap.add_argument("--outdir", default="figure_data", help="directory for the CSV files")
    ap.add_argument(
        "--only",
        nargs="+",
        choices=sorted(FIGURES),
        help="subset of figures (default: all)",
    )
    ap.add_argument(
        "--skip-validate",
        action="store_true",
        help="do not run the self-validation checks afterwards",
    )
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    names = args.only if args.only else sorted(FIGURES)
    figures = {}
    for name in names:
        path = os.path.join(args.outdir, f"{name}.csv")
        start = time.perf_counter()
        rc = cli_main(["figure", name, "--out", path])
        seconds = time.perf_counter() - start
        if rc != 0:
            print(f"{name}: FAILED (exit {rc})", file=sys.stderr)
            write_summary(args.outdir, figures)
            return rc
        n_rows, codes = summarize(path)
        figures[name] = {
            "rows": n_rows,
            "error_codes": dict(sorted(codes.items())),
            "seconds": seconds,
        }
        flagged = sum(codes.values())
        note = f", {flagged} rows flagged" if flagged else ""
        print(f"{name}: {n_rows} rows -> {path}{note}")
    write_summary(args.outdir, figures)

    if args.skip_validate:
        return 0
    print()
    return validation.run_all(sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
