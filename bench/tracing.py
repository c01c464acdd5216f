"""Spans around the package's public functions, for the traced run.

``install`` wraps each function listed in ``LAYERS`` and rebinds every
reference the package holds to it: the defining module, each module that
imported the name with ``from . import``, and the dispatch tables that
store it (``fisher_core._TX_BUNDLES``, ``experiment_cli.FIGURES``,
``validation.ALL_CHECKS``).  The returned function puts the originals back.

A span records its layer, start, end, parent span and the op it belongs
to, in flat arrays kept in memory; ``save`` writes them once at the end.
A layer's self time is its spans' durations minus the durations of their
direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

OP = "op"

# layer -> (defining module, public names); a dotted name is a method
LAYERS = {
    "fisher_core.tx_bundle": ("fisher_core", ("sw_tx_bundle", "hspw_tx_bundle", "pw_tx_bundle")),
    "fisher_core.rx_bundle": ("fisher_core", ("rx_bundle",)),
    "fisher_core.composite_bundle": ("fisher_core", ("composite_bundle",)),
    "fisher_core.amfs": ("fisher_core", ("amfs",)),
    "fisher_core.crb": ("fisher_core", ("normalized_fisher", "received_gain_sq", "crb", "crb_theta_only")),
    "fisher_core.oracle": ("fisher_core", ("full_fisher_oracle",)),
    "fisher_core.dispatch": ("fisher_core", ("bundle_fisher", "bundle_crb")),
    "closed_form.sums_closed": (
        "closed_form",
        ("riemann_bounds", "sw_sums_riemann", "hspw_sums_closed", "sw_theta0_sums", "hspw_theta0_sums"),
    ),
    "closed_form.sums_direct": ("closed_form", ("sw_sums_direct", "hspw_sums_direct")),
    "crb_analytic.assemble": ("crb_analytic", ("chi_factors", "sw_fisher_from_sums", "hspw_fisher_from_sums")),
    "crb_analytic.bounds": (
        "crb_analytic",
        (
            "sw_crb_closed",
            "hspw_crb_closed",
            "sw_crb_theta0",
            "hspw_crb_theta0",
            "hspw_crb_asymptotes",
            "ratio_check",
            "compare_wsms_ua",
        ),
    ),
    "experiment_cli": ("experiment_cli", ("run_point", "run_sweep") + tuple(f"fig{i}_rows" for i in range(3, 10))),
    "experiment_cli.csv": ("experiment_cli", ("write_rows",)),
    "array_layouts": (
        "array_layouts",
        (
            "make_wsms",
            "make_ua",
            "make_dua",
            "d0_from_exponent",
            "element_positions",
            "subarray_centers",
            "aperture",
        ),
    ),
    "geometry": (
        "geometry",
        (
            "SceneGeometry.__post_init__",
            "rx_range",
            "aoa_from_geometry",
            "dsinphi_dtheta",
            "dsinphi_dr",
            "psi_from_x",
            "angular_spans",
        ),
    ),
    "validation": ("validation", ("run_all",)),
}

COMPOSITE_BYTES_PER_ELEM = 48  # value, d_theta and d_r, complex128 each


def _count_composite(counts, args, result):
    counts["composite_elems"] += result.value.size


def _count_direct(counts, args, result):
    counts["direct_terms"] += result.n


def _count_csv(counts, args, result):
    rows, stream = args
    counts["csv_rows"] += len(rows)
    counts["csv_useful_rows"] += sum(1 for row in rows if not row["error_code"])
    # ops write each CSV into a fresh in-memory buffer, ASCII only
    counts["csv_bytes"] += stream.tell()


COUNTERS = {
    "composite_bundle": _count_composite,
    "sw_sums_direct": _count_direct,
    "hspw_sums_direct": _count_direct,
    "write_rows": _count_csv,
}


class Tracer:
    """Spans of one run, in flat arrays, with counts taken at the same calls."""

    def __init__(self):
        self.names = [OP, *LAYERS]
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.stack = []
        self.counts = Counter()

    def open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op[self.stack[0]] if self.stack else i)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, layer: str, count=None):
        name_id = self.names.index(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op calls and self time of each layer, plus the counts."""
        name = np.frombuffer(self.name, dtype=np.int16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_s = dur - child
        c = self.counts
        out = {}
        for name_id, layer in enumerate(self.names):
            sel = name == name_id
            if layer == OP:
                out["traced_op_ms"] = (float(dur[sel].sum()) * 1e3 / n_ops, "ms")
            elif layer == "experiment_cli.csv":
                out["experiment_cli.csv_ms"] = (float(self_s[sel].sum()) * 1e3 / n_ops, "ms/op")
            else:
                out[f"{layer}.calls"] = (int(sel.sum()) / n_ops, "calls/op")
                out[f"{layer}.self_ms"] = (float(self_s[sel].sum()) * 1e3 / n_ops, "ms/op")
        out["fisher_core.composite_elems"] = (c["composite_elems"] / n_ops, "elems/op")
        out["fisher_core.composite_bytes"] = (
            COMPOSITE_BYTES_PER_ELEM * c["composite_elems"] / n_ops,
            "B/op",
        )
        out["closed_form.direct_terms"] = (c["direct_terms"] / n_ops, "terms/op")
        out["experiment_cli.csv_bytes"] = (c["csv_bytes"] / n_ops, "B/op")
        # validate writes no CSV rows; its fraction reads 0
        rows = c["csv_rows"]
        out["experiment_cli.useful_row_frac"] = (c["csv_useful_rows"] / rows if rows else 0.0, "ratio")
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int16),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "nearfield_crb" or n.startswith("nearfield_crb.")]


def _targets() -> list:
    """(layer, owner, attribute) for every wrapped function."""
    out = []
    for layer, (home, names) in LAYERS.items():
        mod = importlib.import_module(f"nearfield_crb.{home}")
        if layer == "validation":
            names = names + tuple(fn.__name__ for fn in mod.ALL_CHECKS)
        for name in names:
            owner = mod
            *path, attr = name.split(".")
            for part in path:
                owner = getattr(owner, part)
            out.append((layer, owner, attr))
    return out


def _references(originals: dict):
    """Every (container, key) in the package that holds an original."""
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if id(value) in originals:
                yield mod, attr
            elif isinstance(value, dict) and attr != "__builtins__":
                for key, item in value.items():
                    if id(item) in originals:
                        yield value, key
            elif isinstance(value, tuple) and any(id(item) in originals for item in value):
                yield (mod, attr), None


def install(tracer: Tracer):
    """Wrap every listed function everywhere the package refers to it."""
    originals = {}
    undo = []
    for layer, owner, attr in _targets():
        fn = owner.__dict__[attr]
        wrapped = tracer.wrap(fn, layer, COUNTERS.get(attr))
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            undo.append(lambda o=owner, a=attr, f=fn: setattr(o, a, f))
        else:
            originals[id(fn)] = (fn, wrapped)
    for where, key in list(_references(originals)):
        if isinstance(where, tuple):
            mod, attr = where
            old = getattr(mod, attr)
            setattr(mod, attr, tuple(originals[id(v)][1] if id(v) in originals else v for v in old))
            undo.append(lambda m=mod, a=attr, v=old: setattr(m, a, v))
        elif isinstance(where, dict):
            fn = where[key]
            where[key] = originals[id(fn)][1]
            undo.append(lambda d=where, k=key, f=fn: d.__setitem__(k, f))
        else:
            fn = getattr(where, key)
            setattr(where, key, originals[id(fn)][1])
            undo.append(lambda m=where, k=key, f=fn: setattr(m, k, f))
    left = list(_references(originals))
    if left:
        raise RuntimeError(f"unwrapped references remain: {left}")

    def restore():
        for step in reversed(undo):
            step()

    return restore
