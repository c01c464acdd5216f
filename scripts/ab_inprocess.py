"""Time two checkouts' packages side by side in one process, op by op.

Usage (from the root of a checkout; each directory is a checkout with its
own ``src/``, and CHANGE also with its ``bench/``):

  python scripts/ab_inprocess.py PARENT CHANGE [WORKLOAD ...]

Both packages are copied into one temporary directory as ``nfc_parent`` and
``nfc_change``; the package imports itself only relatively, so the two
import side by side.  The ops are every op of the CHANGE checkout's
benchmark catalogues (``bench/workloads.py``, all four workloads unless
some are named), each made by its ``run_op``.  For ``ROUNDS`` rounds, each
op runs once on both sides back to back, in an order flipped every round,
so that a drift of the machine's speed favours neither side.  Per workload
it prints each side's sum of per-op minimum times, their ratio (change /
parent) and the count of ops whose outputs differ.  Timings in one process
move far less than whole benchmark runs, which makes this the finer check
of a change that should not move the speed.
"""

from __future__ import annotations

import dataclasses
import importlib
import shutil
import sys
import tempfile
import time
import types
from pathlib import Path

SIDES = ("parent", "change")
ROUNDS = 7


def runner(workloads, root: Path, tmp: Path, name: str):
    """workloads.run_op with its calls made into a copy of root's package named name."""
    shutil.copytree(root / "src" / "nearfield_crb", tmp / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli, validation = (importlib.import_module(f"{name}.{mod}") for mod in ("experiment_cli", "validation"))
    env = dict(vars(workloads), cli=cli, validation=validation)
    return types.FunctionType(workloads.run_op.__code__, env), cli.ScenarioConfig


def compare(workloads, runs: dict, workload: str) -> str:
    ops = [op for stratum in workloads.catalogue(workload).values() for op in stratum]
    side_ops = {
        side: [op if op.cfg is None else dataclasses.replace(op, cfg=config(**vars(op.cfg)))
               for op in ops]
        for side, (_, config) in runs.items()
    }
    best = {side: [float("inf")] * len(ops) for side in SIDES}
    texts = {side: [] for side in SIDES}
    for rnd in range(ROUNDS):
        order = SIDES if rnd % 2 == 0 else SIDES[::-1]
        for i in range(len(ops)):
            for side in order:
                run_op = runs[side][0]
                t0 = time.perf_counter()
                out = run_op(side_ops[side][i])
                best[side][i] = min(best[side][i], time.perf_counter() - t0)
                if rnd == 0:
                    texts[side].append(out.text)
    total = {side: sum(best[side]) for side in SIDES}
    differ = sum(a != b for a, b in zip(texts["parent"], texts["change"]))
    return (f"{workload}: parent {total['parent'] * 1e3:.1f} ms, change "
            f"{total['change'] * 1e3:.1f} ms, change/parent "
            f"{total['change'] / total['parent']:.3f}, outputs differ on {differ} of {len(ops)} ops")


def side_by_side(argv: list, each, usage: str) -> int:
    """Load PARENT and CHANGE as in the usage, then call each(workloads, runs, workload).

    runs maps each side to its (run_op, ScenarioConfig); the workloads are
    those named after the two checkouts, or all of them.
    """
    if len(argv) < 2:
        print(usage, file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in argv[:2])
    sys.path.insert(0, str(change / "bench"))
    import workloads  # pins the OpenBLAS pool before numpy loads

    unknown = set(argv[2:]) - set(workloads.WORKLOADS)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}; known: {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        runs = {side: runner(workloads, root, Path(tmp), f"nfc_{side}")
                for side, root in zip(SIDES, (parent, change))}
        for workload in argv[2:] or workloads.WORKLOADS:
            each(workloads, runs, workload)
    return 0


def main(argv: list) -> int:
    return side_by_side(argv, lambda *args: print(compare(*args), flush=True),
                        __doc__.split("\n\n")[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
