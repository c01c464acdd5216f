"""Time two checkouts' packages side by side in one process, op by op.

Usage (from the root of a checkout; each directory is a checkout with its
own ``src/``, and CHANGE also with its ``bench/``):

  python scripts/ab_inprocess.py PARENT CHANGE [WORKLOAD ...]

Both packages are copied into one temporary directory as ``nfc_parent`` and
``nfc_change``; the package imports itself only relatively, so the two
import side by side.  The ops are every op of the CHANGE checkout's
benchmark catalogues (``bench/workloads.py``, all four workloads unless
some are named), each made by its ``run_op``.  Each round runs every op
once on both sides back to back, in an order flipped every round, so that
a drift of the machine's speed favours neither side.  Around each op the
loop does what ``bench/run.py``'s loop does: the speed probe before it and
the reference check after it, so that the heap each op starts from is the
one the benchmark leaves (an op timed right after another op meets other
page faults).  Rounds go on until each side has about ``SECONDS_PER_SIDE``
of op time, and at least ``MIN_ROUNDS``.  Per workload it prints each
side's sum of per-op minimum times, their ratio (change / parent), the
median over the rounds of the ratio of the two sides' op time in that round
(the pairs are adjacent in time, so it holds still where a sum of minima
rests on one lucky sample per op, as for the one-op ``validate``), each
side's minor page faults per op (each op's median over the rounds, averaged
over the ops), the count of ops whose outputs differ between the sides and
the count of reference mismatches.  Timings in one process move far less
than whole benchmark runs, which makes this the finer check of a change
that should not move the speed.
"""

from __future__ import annotations

import dataclasses
import importlib
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

SIDES = ("parent", "change")
SECONDS_PER_SIDE = 2.0
MIN_ROUNDS = 3


def runner(workloads, root: Path, tmp: Path, name: str):
    """workloads.run_op with its calls made into a copy of root's package named name."""
    shutil.copytree(root / "src" / "nearfield_crb", tmp / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli, validation = (importlib.import_module(f"{name}.{mod}") for mod in ("experiment_cli", "validation"))
    env = dict(vars(workloads), cli=cli, validation=validation)
    return types.FunctionType(workloads.run_op.__code__, env), cli.ScenarioConfig


def compare(workloads, runs: dict, workload: str) -> str:
    import reference  # noqa: E402  (the CHANGE checkout's bench/, put on sys.path first)
    from run import probe  # noqa: E402

    ops = [op for stratum in workloads.catalogue(workload).values() for op in stratum]
    refs = reference.load(workload)
    side_ops = {
        side: [op if op.cfg is None else dataclasses.replace(op, cfg=config(**vars(op.cfg)))
               for op in ops]
        for side, (_, config) in runs.items()
    }
    best = {side: [float("inf")] * len(ops) for side in SIDES}
    faults = {side: [[] for _ in ops] for side in SIDES}
    per_round = {side: [] for side in SIDES}  # each round's op time
    texts = {side: [] for side in SIDES}
    mismatches = dict.fromkeys(SIDES, 0)
    rnd = 0
    while rnd < MIN_ROUNDS or min(map(sum, per_round.values())) < SECONDS_PER_SIDE:
        order = SIDES if rnd % 2 == 0 else SIDES[::-1]
        for side in SIDES:
            per_round[side].append(0.0)
        for i, op in enumerate(ops):
            for side in order:
                run_op = runs[side][0]
                probe()
                minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                t0 = time.perf_counter()
                out = run_op(side_ops[side][i])
                took = time.perf_counter() - t0
                faults[side][i].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt)
                best[side][i] = min(best[side][i], took)
                per_round[side][-1] += took
                mismatches[side] += reference.mismatch(op, out, refs[op.key]) is not None
                if rnd == 0:
                    texts[side].append(out.text)
        rnd += 1
    total = {side: sum(best[side]) for side in SIDES}
    per_op = {side: statistics.fmean(map(statistics.median, faults[side])) for side in SIDES}
    paired = statistics.median(c / p for p, c in zip(per_round["parent"], per_round["change"]))
    differ = sum(a != b for a, b in zip(texts["parent"], texts["change"]))
    return (f"{workload}: {rnd} rounds, parent {total['parent'] * 1e3:.1f} ms, change "
            f"{total['change'] * 1e3:.1f} ms, change/parent "
            f"{total['change'] / total['parent']:.3f}, per round {paired:.3f}, minor faults "
            f"per op parent {per_op['parent']:.0f} change {per_op['change']:.0f}, outputs differ on {differ} "
            f"of {len(ops)} ops, reference mismatches parent {mismatches['parent']} change "
            f"{mismatches['change']}")


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
