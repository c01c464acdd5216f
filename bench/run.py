"""Benchmark of the nearfield-crb sweep engine.

    python3 bench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) from a single process as a closed
loop: one caller, the next op starts when the previous one returns.  It
runs whole passes until ``--seconds`` have gone by, checks every op's rows
against the reference recorded from the seed commit, and prints each
metric by name and unit, the environment, and as its last line a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untimed pass, then passes untraced for a third of the time, then the same
passes again with every layer's public functions wrapped (``tracing.py``),
and reports the per-layer metrics and the tracing overhead.  Both modes leave a JSON record, and the
traced mode its spans, under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

try:
    import workloads
except ImportError as exc:
    print(f"error: {exc}", file=sys.stderr)
    sys.exit(2)

import numpy as np

import reference
import tracing

OUT_DIR = workloads.ROOT / ".bench_out"
SETUP_TRIALS = 5

# The baseline machine's speed drifts by up to 2x over minutes (see
# README.md).  A fixed probe that never touches the package runs before
# every op, and timings are reported at the reference speed: each wall
# time is scaled by PROBE_REF_MS over the median of the last PROBE_WINDOW
# probe times.
PROBE_REF_MS = 0.5
PROBE_WINDOW = 5


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up trial in a fresh interpreter, timed by the parent
    p.add_argument("--setup-trial", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def probe() -> float:
    """Seconds a fixed piece of scalar Python and numpy work takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        acc += math.sin(i * 1e-3) * math.sqrt(i + 1.0)
    # arrays of 32 KB stay below malloc's mmap threshold, so the probe does
    # not depend on how large the package's own allocations were
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0) - 1.0
    return time.perf_counter() - t0


def to_reference_speed(probes: list) -> float:
    return PROBE_REF_MS * 1e-3 / statistics.median(probes[-PROBE_WINDOW:])


def setup_seconds(args: argparse.Namespace) -> tuple[float, float]:
    """Median set-up time of fresh interpreters: (at reference speed, wall)."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-trial"]
    scaled, wall = [], []
    for _ in range(SETUP_TRIALS):
        scale = to_reference_speed([probe() for _ in range(PROBE_WINDOW)])
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        wall.append(time.perf_counter() - t0)
        scaled.append(wall[-1] * scale)
    return statistics.median(scaled), statistics.median(wall)


class Loop:
    """Outcome of running passes back to back."""

    def __init__(self):
        self.probes = []
        self.scaled = []  # op times at the reference speed
        self.times = []
        self.rows = 0
        self.attempted = 0
        self.failures = []
        self.passes = 0


def run_passes(passes, refs, *, seconds=None, n_passes=None, tracer=None) -> Loop:
    """Whole passes until ``seconds`` have gone by, or exactly ``n_passes``."""
    loop = Loop()
    deadline = time.perf_counter() + (seconds or 0.0)
    while True:
        for op in passes[loop.passes % len(passes)]:
            loop.attempted += 1
            loop.probes.append(probe())
            span = tracer.open(0) if tracer else None
            t0 = time.perf_counter()
            try:
                out = workloads.run_op(op)
            except Exception as exc:  # a raising op is a failed op; the loop goes on
                loop.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
                continue
            finally:
                loop.times.append(time.perf_counter() - t0)
                loop.scaled.append(loop.times[-1] * to_reference_speed(loop.probes))
                if tracer:
                    tracer.close(span)
            loop.rows += out.rows
            why = reference.mismatch(op, out, refs[op.key])
            if why:
                loop.failures.append(why)
        loop.passes += 1
        if loop.passes == n_passes or (n_passes is None and time.perf_counter() >= deadline):
            return loop


def end_to_end(loop: Loop, times: list, setup_s: float) -> dict:
    """The end-to-end metrics from per-op ``times`` (seconds)."""
    times_ms = [t * 1e3 for t in times]
    return {
        "rows_per_s": (loop.rows / sum(times), "rows/s"),
        "op_ms_p50": (statistics.median(times_ms), "ms"),
        "op_ms_p90": (statistics.quantiles(times_ms, n=10)[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(workloads.ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != workloads.ROOT:
        return None
    return lines[1]


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(workloads.SRC.rglob("*.py")):
        h.update(str(path.relative_to(workloads.SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _openblas_threads() -> int | None:
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _l3_cache() -> str | None:
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level"), encoding="utf-8") as fh:
                if fh.read().strip() != "3":
                    continue
            with open(os.path.join(index, "size"), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            continue
    return None


def environment() -> dict:
    import numpy

    return {
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_cache": _l3_cache(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_trial:
        warmup, _ = workloads.generate(args.workload, args.seed)
        workloads.run_op(warmup)
        return 0

    setup_s, setup_wall = (None, None) if args.trace else setup_seconds(args)
    warmup, passes = workloads.generate(args.workload, args.seed)
    refs = reference.load(args.workload)
    workloads.run_op(warmup)

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        # one untimed pass first, so the cold first pass lands in neither phase
        warm = run_passes(passes, refs, n_passes=1)
        plain = run_passes(passes, refs, seconds=args.seconds / 3.0)
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            traced = run_passes(passes, refs, n_passes=plain.passes, tracer=tracer)
        finally:
            restore()
        tracer.save(f"{stem}.spans.npz")
        metrics = tracer.layer_metrics(traced.attempted)
        metrics["trace_overhead_frac"] = (sum(traced.scaled) / sum(plain.scaled) - 1.0, "ratio")
        loops = (warm, plain, traced)
        wall = {}
    else:
        loop = run_passes(passes, refs, seconds=args.seconds)
        metrics = end_to_end(loop, loop.scaled, setup_s)
        wall = end_to_end(loop, loop.times, setup_wall)
        loops = (loop,)
    probe_ms = statistics.median(p for lp in loops for p in lp.probes) * 1e3

    attempted = sum(lp.attempted for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(f"  timings above are at the reference speed; probe median {probe_ms:.4g} ms, reference {PROBE_REF_MS} ms")
    for name, (value, unit) in wall.items():
        print(f"  {'wall ' + name:36s} {value:.6g} {unit}")
    print(f"  {'error_rate':36s} {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops)")
    print(f"  {'samples':36s} {sum(len(lp.times) for lp in loops)} ops in {sum(lp.passes for lp in loops)} passes")
    for why in failures[:5]:
        print(f"  failed: {why}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        record = {"args": vars(args), "env": env, "failures": failures, "probe_ms": probe_ms, **result}
        record["wall"] = {name: {"value": value, "unit": unit} for name, (value, unit) in wall.items()}
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
