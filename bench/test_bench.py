"""Self-tests of the benchmark: deterministic inputs, repeatable counts, a live check.

Run with ``python3 -m pytest bench``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REPEATING_COUNTS = (
    "fisher_core.composite_elems",
    "closed_form.direct_terms",
    "experiment_cli.csv_bytes",
)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_identical_inputs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)


def test_seeds_differ():
    assert workloads.generate("exact_large", 7) != workloads.generate("exact_large", 8)


def test_every_exact_large_pass_has_the_largest_scene():
    _, passes = workloads.generate("exact_large", 7)
    for ops in passes:
        assert any((op.cfg.K, op.cfg.M, op.cfg.N_r) == (48, 256, 256) for op in ops)


def _traced_pass(workload, seed):
    _, passes = workloads.generate(workload, seed)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        loop = run.run_passes(passes, reference.load(workload), n_passes=1, tracer=tracer)
    finally:
        restore()
    metrics = tracer.layer_metrics(loop.attempted)
    counts = {k: v for k, (v, _) in metrics.items() if k.endswith(".calls") or k in REPEATING_COUNTS}
    return counts, loop.failures


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, failures_a = _traced_pass(workload, 3)
    second, failures_b = _traced_pass(workload, 3)
    assert first == second
    assert failures_a == failures_b == []


def test_restore_leaves_no_wrapper_behind():
    restore = tracing.install(tracing.Tracer())
    restore()
    for mod in tracing._package_modules():
        for name, value in vars(mod).items():
            if name == "__builtins__":
                continue
            items = value.values() if isinstance(value, dict) else value if isinstance(value, tuple) else (value,)
            assert not any(hasattr(item, "__wrapped__") for item in items)
    assert not hasattr(workloads.cli.SceneGeometry.__post_init__, "__wrapped__")


def test_check_rejects_a_moved_bound_and_a_changed_code():
    op = workloads.catalogue("figures")["fig8"][0]
    out = workloads.run_op(op)
    expected = reference.load("figures")["fig8"]
    assert reference.mismatch(op, out, expected) is None
    row = next(i for i, e in enumerate(expected) if e[0] and e[3] <= -9)
    lines = out.text.splitlines()
    cells = lines[row + 1].split(",")
    cells[workloads.cli.CSV_COLUMNS.index("crb_theta_rad2")] = repr(float(expected[row][0]) * (1 + 1e-6))
    moved = workloads.Output("\n".join(lines[: row + 1] + [",".join(cells)] + lines[row + 2 :]) + "\n", out.rows)
    assert reference.mismatch(op, moved, expected) is not None
    cells = lines[row + 1].split(",")
    cells[-1] = "singular_fisher"
    flipped = workloads.Output("\n".join(lines[: row + 1] + [",".join(cells)] + lines[row + 2 :]) + "\n", out.rows)
    assert reference.mismatch(op, flipped, expected) is not None
