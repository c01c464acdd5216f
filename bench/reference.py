"""Reference outputs recorded from the seed commit, and the check against them.

For every catalogue op the reference keeps, per CSV row, the two bound
cells, the error code and a relative tolerance for each bound (for
``validate``: each check's name and status).  An op's output matches when
it has the same number of rows, each error code is one the reference
accepts, and each bound cell and its square root agree within the bound's
tolerance.

The tolerance allows rounding-level changes and no more.  Recording reruns
every catalogue op under perturbations of that size and measures how far
each bound moves:

* ``ulp-1`` .. ``ulp-3``: every ``math`` function result inside the
  package is moved by -1, 0 or +1 ulp at random, as another libm, a
  rewritten expression or a reordered sum of a few terms would move it;
* ``factored``: the composite inner products are taken as products of
  transmit-side and receive-side inner products, <a(x)b, c(x)d> =
  <a,c><b,d>, instead of over the Kronecker vectors.

A bound's tolerance is ``SAFETY`` times the largest move seen, rounded up
to a power of ten, at least 10**FLOOR_EXP and at most 1.  Well-conditioned
bounds get 1e-12.  The closed forms subtract antiderivative values at
nearly equal partition edges, so many closed-form bounds move far more:
range bounds of nearly range-blind scenes move by up to 90% under one-ulp
noise and get a tolerance of 1.  Where a perturbation flips a row's error
code (its information sits on the round-off floor), both codes are accepted
and the bounds of a flipped row are not compared.

Run ``python3 bench/reference.py`` to record the files again (about two
minutes).  Do that only in a change that means to alter the engine's
outputs, and say so.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
import random
import sys
import types
from pathlib import Path

import numpy as np

import workloads
from workloads import cli
from nearfield_crb import closed_form, crb_analytic, experiment_cli, fisher_core, geometry

REF_DIR = Path(__file__).resolve().parent / "reference"
BOUNDS = (("crb_theta_rad2", "root_crb_theta_rad"), ("crb_r_m2", "root_crb_r_m"))
SAFETY = 10.0
FLOOR_EXP = -12
PERTURBATIONS = ("ulp-1", "ulp-2", "ulp-3", "factored")
NOISY_MATH = ("sin", "cos", "tan", "atan", "atan2", "asin", "log", "sqrt", "exp", "hypot")


def records(op: workloads.Op, output: workloads.Output) -> list:
    """Per row: the two bound cells, their two root cells and the error code."""
    if op.kind == "validate":
        return [line.split()[:2] for line in output.text.splitlines()[:-1]]
    reader = csv.reader(io.StringIO(output.text))
    header = next(reader)
    if header != cli.CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header!r}")
    at = {name: i for i, name in enumerate(header)}
    return [
        [row[at[b]] for b, _ in BOUNDS]
        + [row[at[root]] for _, root in BOUNDS]
        + [row[at["error_code"]]]
        for row in reader
    ]


def load(workload: str) -> dict:
    """Reference rows by op key."""
    with gzip.open(REF_DIR / f"{workload}.json.gz", "rt", encoding="utf-8") as fh:
        return json.load(fh)["rows"]


def _rel(a: str, b: str) -> float:
    if a == b:
        return 0.0
    if not a or not b:
        return math.inf
    x, y = float(a), float(b)
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _root(cell: str) -> str:
    # the CLI leaves the root blank for a missing or negative bound
    return repr(math.sqrt(float(cell))) if cell and float(cell) >= 0.0 else ""


def mismatch(op: workloads.Op, output: workloads.Output, expected: list) -> str | None:
    """Why the output differs from the reference, or None when it matches."""
    got = records(op, output)
    if len(got) != len(expected):
        return f"{op.key}: {len(got)} rows, reference has {len(expected)}"
    for i, (g, e) in enumerate(zip(got, expected)):
        if op.kind == "validate":
            if g != e:
                return f"{op.key}: check {i} is {g}, reference {e}"
            continue
        b_theta, b_r, codes, exp_theta, exp_r = e
        codes = codes if isinstance(codes, list) else [codes]
        if g[4] not in codes:
            return f"{op.key} row {i}: error_code {g[4]!r}, reference {codes}"
        if g[4] != codes[0]:
            continue  # a flip the reference allows; the bounds are blank on one side
        want = (b_theta, b_r, _root(b_theta), _root(b_r))
        exps = (exp_theta, exp_r, exp_theta, exp_r)
        for got_cell, want_cell, exp in zip(g[:4], want, exps):
            if _rel(got_cell, want_cell) > 10.0 ** exp:
                return f"{op.key} row {i}: {got_cell!r} vs reference {want_cell!r} (tol 1e{exp})"
    return None


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------

def _noisy_math(rng: random.Random) -> types.SimpleNamespace:
    ns = types.SimpleNamespace(**{k: getattr(math, k) for k in dir(math) if not k.startswith("_")})

    def nudge(fn):
        def call(*args):
            v = fn(*args)
            step = rng.choice((-1, 0, 1))
            return v if step == 0 else math.nextafter(v, step * math.inf)

        return call

    for name in NOISY_MATH:
        setattr(ns, name, nudge(getattr(math, name)))
    return ns


def _factored_amfs(pair) -> fisher_core.AmfSet:
    t, x = pair
    t = (t.value, t.d_theta, t.d_r)
    x = (x.value, x.d_theta, x.d_r)
    # each composite vector as a sum of (tx index, rx index) Kronecker terms
    terms = {"h": ((0, 0),), "t": ((1, 0), (0, 1)), "r": ((2, 0), (0, 2))}

    def dot(u, w):
        # vdot(conj(a)(x)b, conj(c)(x)d) = vdot(c, a) * vdot(b, d)
        return sum(np.vdot(t[c], t[a]) * np.vdot(x[b], x[d]) for a, b in terms[u] for c, d in terms[w])

    return fisher_core.AmfSet(
        htheta_sq=float(dot("t", "t").real),
        hr_sq=float(dot("r", "r").real),
        h_sq=float(dot("h", "h").real),
        htheta_h=complex(dot("t", "h")),
        hr_h=complex(dot("r", "h")),
        htheta_hr=complex(dot("t", "r")),
    )


def _perturb(name: str):
    """Install one perturbation into the package; returns its undo."""
    if name.startswith("ulp"):
        mods = (closed_form, crb_analytic, experiment_cli, fisher_core, geometry)
        noisy = _noisy_math(random.Random(name))
        for m in mods:
            m.math = noisy
        return lambda: [setattr(m, "math", math) for m in mods]
    saved = fisher_core.composite_bundle, fisher_core.amfs
    fisher_core.composite_bundle = lambda tx, rx: (tx, rx)
    fisher_core.amfs = _factored_amfs

    def undo():
        fisher_core.composite_bundle, fisher_core.amfs = saved

    return undo


def _run_catalogue(workload: str) -> dict:
    return {
        op.key: records(op, workloads.run_op(op))
        for ops in workloads.catalogue(workload).values()
        for op in ops
    }


def _exponent(moved: float) -> int:
    if moved == 0.0:
        return FLOOR_EXP
    return min(0, max(FLOOR_EXP, math.ceil(math.log10(SAFETY * moved))))


def record(workload: str) -> dict:
    """Reference rows of one workload, with tolerances from the perturbations."""
    base = _run_catalogue(workload)
    if workload == "validate":
        return base
    moved = {key: [[0.0, 0.0, {r[4]}] for r in rows] for key, rows in base.items()}
    for name in PERTURBATIONS:
        undo = _perturb(name)
        try:
            runs = _run_catalogue(workload)
        finally:
            undo()
        for key, rows in runs.items():
            for b, p, m in zip(base[key], rows, moved[key]):
                m[2].add(p[4])
                if p[4] == b[4]:
                    m[0] = max(m[0], _rel(p[0], b[0]), _rel(p[2], b[2]))
                    m[1] = max(m[1], _rel(p[1], b[1]), _rel(p[3], b[3]))
    out = {}
    for key, rows in base.items():
        out[key] = []
        for b, (m_theta, m_r, codes) in zip(rows, moved[key]):
            accepted = b[4] if len(codes) == 1 else [b[4]] + sorted(codes - {b[4]})
            out[key].append([b[0], b[1], accepted, _exponent(m_theta), _exponent(m_r)])
    return out


def main() -> None:
    REF_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        rows = record(workload)
        payload = json.dumps({"workload": workload, "rows": rows}, sort_keys=True)
        with open(REF_DIR / f"{workload}.json.gz", "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                fh.write(payload.encode("utf-8"))
        flat = [r for rs in rows.values() for r in rs]
        loose = sum(1 for r in flat if workload != "validate" and max(r[3], r[4]) > FLOOR_EXP)
        flips = sum(1 for r in flat if workload != "validate" and isinstance(r[2], list))
        print(
            f"{workload}: {len(rows)} ops, {len(flat)} rows, "
            f"{loose} with a tolerance above 1e{FLOOR_EXP}, {flips} with two accepted codes",
            file=sys.stderr,
        )


if __name__ == "__main__":
    main()
