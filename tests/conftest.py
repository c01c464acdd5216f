"""Shared oracles and strategies for the test suite, and the record each run leaves.

The helpers here are deliberately primitive: raw cartesian coordinates,
brute-force python loops, and low-order finite differences.  They share no
code with the library internals, so agreement between the two is evidence
rather than mirroring.

At the end of each session ``pytest_sessionfinish`` writes
``.bench_out/tier1.json`` under the root directory, whether the run passed
or failed: the outcome counts, each failure's id and the first line of its
message, the ten slowest tests and the machine (``bench/run.py``'s
``environment()``).  It only reads the reports the terminal reporter holds.
"""

import importlib.util
import json
import math
import os
import random
import sys
from collections import Counter
from pathlib import Path

from hypothesis import strategies as st

from nearfield_crb import d0_from_exponent, make_wsms

pytest_plugins = ["pytester"]

BENCH = Path(__file__).resolve().parent.parent / "bench"

C_LIGHT = 299792458.0
FREQ_HZ = 1.0e11
LAM = C_LIGHT / FREQ_HZ
D_HALF = LAM / 2.0


def std_wsms(k, m, i):
    """Half-wavelength subarrayed layout at the standard carrier."""
    return make_wsms(k, m, D_HALF, d0_from_exponent(i, LAM), LAM)


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def richardson_diff(f, x, h=1e-4):
    """Fourth-order first derivative from two central differences."""
    coarse = central_diff(f, x, h)
    fine = central_diff(f, x, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def target_xy(r, theta):
    """Cartesian target position; broadside is the +y axis."""
    return r * math.sin(theta), r * math.cos(theta)


def rx_xy(big_r, vartheta):
    """Cartesian receiver-centre position, offset by -vartheta from +y."""
    return big_r * math.sin(-vartheta), big_r * math.cos(-vartheta)


def coordinate_rx_range(r, theta, big_r, vartheta=0.0):
    """Receiver-to-target distance measured directly in coordinates."""
    tx, ty = target_xy(r, theta)
    px, py = rx_xy(big_r, vartheta)
    return math.hypot(tx - px, ty - py)


def coordinate_angle_at_rx(r, theta, big_r, vartheta=0.0):
    """Signed angle at the receiver vertex of the scene triangle.

    Positive when the target sits on the same side as positive theta,
    measured between the rays receiver->transmitter and receiver->target.
    """
    tx, ty = target_xy(r, theta)
    px, py = rx_xy(big_r, vartheta)
    ux, uy = -px, -py
    vx, vy = tx - px, ty - py
    cross = ux * vy - uy * vx
    dot = ux * vx + uy * vy
    return math.atan2(cross, dot)


def brute_sums(positions, r, theta):
    """The five element sums, accumulated with a plain python loop.

    Returns (s_theta2, s_theta, s_r, s_r2, s_thetar) using the normalized
    lateral offsets x = position / r directly, with no clever pairing or
    compensated summation.
    """
    s = math.sin(theta)
    s_theta2 = s_theta = s_r = s_r2 = s_thetar = 0.0
    for p in positions:
        x = p / r
        v = 1.0 - 2.0 * x * s + x * x
        s_theta2 += x * x / v
        s_theta += x / math.sqrt(v)
        s_r += (x * s - 1.0) / math.sqrt(v)
        s_r2 += (x * s - 1.0) ** 2 / v
        s_thetar += x * (x * s - 1.0) / v
    return s_theta2, s_theta, s_r, s_r2, s_thetar


def seeded(tag):
    """Deterministic RNG so failures are reproducible."""
    return random.Random(repr(tag))


layout_shapes = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=0, max_value=8),
)

scene_angles = st.floats(min_value=-1.3, max_value=1.3)

target_ranges = st.floats(min_value=0.5, max_value=80.0)


def _first_line(report) -> str:
    crash = getattr(report.longrepr, "reprcrash", None)
    text = crash.message if crash is not None else str(report.longrepr)
    return text.splitlines()[0] if text else ""


def _environment() -> dict:
    """``bench/run.py``'s environment(), loaded by path once every test has run.

    Loading it imports ``bench/workloads.py``, which sets
    OPENBLAS_NUM_THREADS for the rest of the process, so it waits for the
    session's end, and the record keeps the value the session ran with.  A
    failure to load it is recorded, never raised.
    """
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS")
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        return {**run.environment(), "OPENBLAS_NUM_THREADS": blas_threads}
    except (Exception, SystemExit) as exc:  # run.py exits when its modules do not import
        return {"error": repr(exc)}
    finally:
        sys.path.remove(str(BENCH))


def pytest_sessionfinish(session, exitstatus):
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is None:  # run with -p no:terminal: no reports are held
        return
    reports = [(category, report) for category, held in reporter.stats.items() for report in held]
    # counted as the summary line counts them
    counts = Counter(category for category, report in reports
                     if category and getattr(report, "count_towards_summary", True))
    seconds = Counter()
    for _, report in reports:
        if hasattr(report, "when") and hasattr(report, "duration"):
            seconds[report.nodeid] += report.duration
    record = {
        "exitstatus": int(exitstatus),
        "counts": dict(sorted(counts.items())),
        "failures": [{"id": report.nodeid, "outcome": category, "message": _first_line(report)}
                     for category, report in reports if category in ("failed", "error")],
        "slowest": [{"id": nodeid, "seconds": round(t, 6)}
                    for nodeid, t in seconds.most_common(10)],
        "environment": _environment(),
    }
    out = Path(session.config.rootpath) / ".bench_out"
    try:
        out.mkdir(exist_ok=True)
        (out / "tier1.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"tier-1 record not written: {exc}", file=sys.stderr)
