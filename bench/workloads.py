"""Workload inputs and the one operation each workload repeats.

Every workload is a list of passes; a pass is a list of ops, and one op is
one call a researcher would make into the package (a figure preset, a
single exact point, a closed-form sweep, or the validation suite) followed
by its CSV emission into memory.  Each pass of a workload holds the same
mix of op sizes, so whole passes cost the same whatever the seed, and the
seed only decides which scenes fill the mix and in what order.

Scenes are drawn once from the distributions below with a fixed catalogue
seed, so that the rows the seed commit produced for them could be recorded
as the reference (see ``reference.py``); ``--seed`` picks among those
catalogue scenes.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
pins the OpenBLAS pool before numpy loads.
"""

from __future__ import annotations

import io
import itertools
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# numpy's default OpenBLAS pool on the 2-core machine the baseline was
# measured on; pinned so the setting cannot drift with the environment.
BLAS_THREADS = "2"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

if not (SRC / "nearfield_crb" / "__init__.py").is_file():
    raise ImportError(f"nearfield_crb sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from nearfield_crb import experiment_cli as cli  # noqa: E402
from nearfield_crb import validation  # noqa: E402

WORKLOADS = ("figures", "exact_large", "closed_sweep", "validate")

CATALOGUE_SEED = 20231002
PASSES = 64  # generated per run; the timed loop cycles through them

EXACT_K = (12, 24, 48)
EXACT_M = (128, 256)
EXACT_NR = (1, 35, 64, 256)
EXACT_MODELS = ("sw", "hspw", "pw")
EXACT_VARIANTS = 32

SWEEP_MODELS = ("sw", "hspw")
SWEEP_NR = (1, 12, 35, 256)
SWEEP_AXES = ("r", "theta")
SWEEP_VARIANTS = 4

WARMUP_FIGURE = "fig8"
WARMUP_EXACT_STRATUM = (12, 128, 35, "sw")


@dataclass(frozen=True)
class Op:
    """One call into the package: ``kind`` selects the call, ``key`` the reference."""

    kind: str
    key: str
    cfg: cli.ScenarioConfig | None = None
    sweep: tuple | None = None  # (axis, start, stop, steps)


@dataclass(frozen=True)
class Output:
    """What an op produced: CSV text (or the validate report) and its row count."""

    text: str
    rows: int


def _exact_catalogue() -> dict:
    rng = random.Random(CATALOGUE_SEED)
    catalogue = {}
    for k, m, n_r, model in itertools.product(EXACT_K, EXACT_M, EXACT_NR, EXACT_MODELS):
        for v in range(EXACT_VARIANTS):
            cfg = cli.ScenarioConfig(
                K=k,
                M=m,
                N_r=n_r,
                model=model,
                method="direct",
                theta=rng.uniform(-1.4, 1.4),
                r=rng.uniform(2.0, 50.0),
                I=rng.randint(3, 10),
            )
            catalogue.setdefault((k, m, n_r, model), []).append(
                Op("point", f"K{k}-M{m}-Nr{n_r}-{model}-v{v}", cfg=cfg)
            )
    return catalogue


def _sweep_catalogue() -> dict:
    rng = random.Random(CATALOGUE_SEED + 1)
    catalogue = {}
    for model, n_r, axis in itertools.product(SWEEP_MODELS, SWEEP_NR, SWEEP_AXES):
        for v in range(SWEEP_VARIANTS):
            k = rng.randint(2, 48)
            i = rng.randint(1, 12)
            steps = rng.randint(200, 400)
            if axis == "r":
                fixed = {"theta": rng.uniform(-1.4, 1.4)}
                start, stop = rng.uniform(1.0, 4.0), rng.uniform(30.0, 60.0)
            else:
                # both ends beyond the 1.45 closed-form cap, inside pi/2
                fixed = {"r": rng.uniform(2.0, 50.0)}
                start, stop = -rng.uniform(1.46, 1.55), rng.uniform(1.46, 1.55)
            cfg = cli.ScenarioConfig(K=k, I=i, N_r=n_r, model=model, method="riemann", **fixed)
            catalogue.setdefault((model, n_r, axis), []).append(
                Op("sweep", f"{model}-Nr{n_r}-{axis}-v{v}", cfg=cfg, sweep=(axis, start, stop, steps))
            )
    return catalogue


def catalogue(workload: str) -> dict:
    """Every scene a workload can draw, grouped by stratum (the op-size class)."""
    if workload == "figures":
        return {name: [Op("figure", name)] for name in cli.FIGURES}
    if workload == "exact_large":
        return _exact_catalogue()
    if workload == "closed_sweep":
        return _sweep_catalogue()
    if workload == "validate":
        return {"run_all": [Op("validate", "run_all")]}
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int) -> tuple[Op, list]:
    """The warm-up op and ``PASSES`` passes for one seed.

    Each pass takes one scene from every stratum of the catalogue, in a
    seeded order.  Within a stratum the scenes follow a seeded permutation,
    so no scene repeats before the stratum's scenes are used up.
    """
    strata = catalogue(workload)
    rng = random.Random(f"{workload}:{seed}")
    perms = {s: rng.sample(ops, len(ops)) for s, ops in sorted(strata.items())}
    passes = []
    for k in range(PASSES):
        order = rng.sample(sorted(strata), len(strata))
        passes.append([perms[s][k % len(perms[s])] for s in order])
    if workload == "figures":
        warmup = strata[WARMUP_FIGURE][0]
    elif workload == "exact_large":
        warmup = strata[WARMUP_EXACT_STRATUM][seed % EXACT_VARIANTS]
    else:
        warmup = passes[0][0]
    return warmup, passes


def run_op(op: Op) -> Output:
    """Make the op's call into the package and emit its rows into memory."""
    buf = io.StringIO()
    if op.kind == "validate":
        validation.run_all(buf)
        text = buf.getvalue()
        return Output(text, text.count("\n") - 1)
    if op.kind == "figure":
        rows = cli.FIGURES[op.key]()
    elif op.kind == "point":
        rows = [cli.run_point(op.cfg)]
    else:
        rows = cli.run_sweep(op.cfg, *op.sweep)
    cli.write_rows(rows, buf)
    return Output(buf.getvalue(), len(rows))
