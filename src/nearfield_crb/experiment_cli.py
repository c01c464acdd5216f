"""Command-line driver: single points, sweeps, figure presets, validation.

Subcommands
-----------
crb       evaluate one scenario, emit one CSV row
sweep     sweep one axis (r, theta, I, K), emit one row per grid point
figure    canned sweep suites (fig3..fig9) matching the simulation section
validate  run the oracle checks in `validation` and report pass/fail

Output is UTF-8 CSV on stdout (or --out FILE) with a fixed column set, one
row per evaluated grid point.  Points that hit a documented singularity or
precondition produce a row with an error_code and blank bound columns; a
sweep never aborts mid-grid.  Everything is deterministic, so reruns are
byte-identical.  The ``direct`` rows do not depend on the size of
OpenBLAS's thread pool either: an inner product long enough for OpenBLAS
to split across its threads is summed in fixed parts
(``fisher_core._dots``).

Each row takes one path: the method picks one route for all of a call's
scenes from one table (``_ROUTES``: ``direct`` the steering bundles,
``riemann`` the closed-form sums, ``oracle`` the finite-difference oracle),
and a method outside it is a ConfigError.  A single point, and every point
of an oracle call, stays in plain floats, and ``_bounds`` turns its result
into its bounds or error code.  A sweep on the other routes keeps its
points as columns from the grid to the CSV line: the scene checks run once
on the r and theta arrays, the route's Fisher blocks come back as five
columns, ``crb`` inverts them as arrays and ``crb_theta_only`` gives the
angle bound of those it refuses.  A row takes the one-point path only for
an invalid scene or a kept error, so each row is the one its point gets
alone.  ``write_rows`` formats the cells a sweep's rows share once.

Scenario parameters come from defaults, then an optional --config file of
flat ``key = value`` lines using the ScenarioConfig field names, then CLI
flags (highest precedence, same names).

Exit codes: 0 success; 1 a validation check failed or a single-point `crb`
call produced an error record; 2 malformed arguments or config.

Examples:
  nearfield-crb crb --K 12 --I 3 --theta 0.7853981633974483 --r 10
  nearfield-crb sweep --axis r --start 2 --stop 50 --steps 25 --K 12 --method riemann
  nearfield-crb figure fig7 --out fig7.csv
  nearfield-crb validate
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import operator
import re
import sys
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from . import validation
from .array_layouts import ArrayLayout, d0_from_exponent, make_dua, make_ua, make_wsms
from .crb_analytic import hspw_crb_asymptotes, sums_fisher
from .errors import CrbEngineError, DomainError, SingularFisher, error_code, outcome
from .fisher_core import (
    NormalizedFisher,
    OracleResult,
    _refused,
    bundle_fisher,
    crb,
    crb_theta_only,
    fisher_columns,
    full_fisher_oracle,
    received_gain_sq,
    require_gain_and_noise,
)
from .geometry import GeometryGrid, SceneGeometry, scenes_hold

C_LIGHT = 299792458.0

CSV_COLUMNS = [
    "model",
    "layout",
    "method",
    "K",
    "M",
    "I",
    "N_r",
    "R_m",
    "theta_rad",
    "r_m",
    "crb_theta_rad2",
    "crb_r_m2",
    "root_crb_theta_rad",
    "root_crb_r_m",
    "error_code",
]

MODELS = ("sw", "hspw", "pw")
LAYOUTS = ("wsms", "ua", "dua")

# method -> its route, route(layout, geom, n_r, *, model): the Fisher block
# at a scene or a grid, or the oracle's result at a scene
_ROUTES = {
    "direct": bundle_fisher,
    "riemann": partial(sums_fisher, method="riemann"),
    "oracle": full_fisher_oracle,
}
METHODS = tuple(_ROUTES)


class ConfigError(ValueError):
    """Bad scenario or sweep parameters (CLI exit code 2)."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully specified evaluation point.

    The wavelength, noise power and element spacing are derived, not stored:
    lam = c / frequency_hz, sigma_n_sq = 10^(-snr_db/10), d = lam / 2.
    """

    frequency_hz: float = 1e11
    snr_db: float = 0.0
    alpha: complex = 1.0 + 0.0j
    K: int = 3
    M: int = 128
    I: int = 3
    N_r: int = 1
    R: float = 50.0
    r: float = 10.0
    theta: float = 0.0
    vartheta: float = 0.0
    model: str = "sw"
    layout: str = "wsms"
    method: str = "direct"

    @property
    def lam(self) -> float:
        return C_LIGHT / self.frequency_hz

    @property
    def sigma_n_sq(self) -> float:
        return 10.0 ** (-self.snr_db / 10.0)

    @property
    def d(self) -> float:
        return self.lam / 2.0


# field -> the parser of a config-file value: the type of its default
_FIELD_PARSERS = {f.name: type(f.default) for f in fields(ScenarioConfig)}


def load_config_file(path: str) -> dict:
    """Parse a flat key = value scenario file ('#' starts a comment)."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _FIELD_PARSERS:
                raise ConfigError(f"{path}:{lineno}: unknown scenario field {key!r}")
            try:
                values[key] = _FIELD_PARSERS[key](value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return values


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Structural checks, the alias ``closed`` read as ``riemann``; scene problems become rows."""
    if not cfg.frequency_hz > 0.0 or not math.isfinite(cfg.frequency_hz):
        raise ConfigError(f"frequency_hz must be positive, got {cfg.frequency_hz!r}")
    if not math.isfinite(cfg.snr_db):
        raise ConfigError(f"snr_db must be finite, got {cfg.snr_db!r}")
    for name in ("K", "M", "N_r"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1, got {getattr(cfg, name)!r}")
    if cfg.I < 0:
        raise ConfigError(f"I must be >= 0, got {cfg.I!r}")
    if cfg.model not in MODELS:
        raise ConfigError(f"model must be one of {MODELS}, got {cfg.model!r}")
    if cfg.layout not in LAYOUTS:
        raise ConfigError(f"layout must be one of {LAYOUTS}, got {cfg.layout!r}")
    if cfg.method == "closed":
        cfg = replace(cfg, method="riemann")
    if cfg.method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS} (or 'closed'), got {cfg.method!r}")
    if cfg.model == "pw" and cfg.method == "riemann":
        raise ConfigError("the planar model has no closed-form route; use --method direct")
    # a zero gain or an underflowing noise power stays a domain_error row
    try:
        cfg.sigma_n_sq
    except OverflowError:
        raise ConfigError(f"snr_db={cfg.snr_db!r} gives a noise power that overflows") from None
    try:
        gain = received_gain_sq(cfg.alpha, cfg.N_r, cfg.K * cfg.M)
    except OverflowError:
        gain = math.inf
    if not gain < math.inf:
        raise ConfigError(f"alpha={cfg.alpha!r} must be finite, with |alpha|^2 N_r K M finite")
    return cfg


def scenario_from_args(args: argparse.Namespace) -> ScenarioConfig:
    values = load_config_file(args.config) if getattr(args, "config", None) else {}
    for name in _FIELD_PARSERS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return validate_config(ScenarioConfig(**values))


def build_layout(cfg: ScenarioConfig) -> ArrayLayout:
    d0 = d0_from_exponent(cfg.I, cfg.lam)
    if cfg.layout == "wsms":
        return make_wsms(cfg.K, cfg.M, cfg.d, d0, cfg.lam)
    if cfg.layout == "ua":
        return make_ua(cfg.K, cfg.M, cfg.d, d0, cfg.lam)
    return make_dua(cfg.K, cfg.M, cfg.d, cfg.lam)


def _bounds(cfg: ScenarioConfig, layout: ArrayLayout, beta_sq: float, sigma_n_sq: float, result):
    """(crb_theta, crb_r, error_code) from one point's result at gain beta_sq and noise sigma_n_sq.

    The result is a kept engine error, an oracle result or a normalized
    Fisher block.  A kept error is never raised: it can be shared by many
    points, and each raise would lengthen its traceback.  Only one-point
    calls and oracle rows take this path, not a grid's rows (``_grid_rows``).
    """
    if isinstance(result, CrbEngineError):
        return None, None, error_code(result)
    try:
        if isinstance(result, OracleResult):
            # unit-gain bounds times sigma^2 / |alpha|^2, exactly 1.0 at unit gain and noise
            require_gain_and_noise(beta_sq, sigma_n_sq)
            scale = sigma_n_sq * (received_gain_sq(1.0, cfg.N_r, layout.n_elements) / beta_sq)
            return result.crb_theta * scale, result.crb_r * scale, ""
        res = crb(result, beta_sq, sigma_n_sq)
        return res.crb_theta, res.crb_r, ""
    except SingularFisher:  # a decoupled block keeps its angle bound
        theta = outcome(crb_theta_only, result, beta_sq, sigma_n_sq)
        return (None if isinstance(theta, CrbEngineError) else theta), None, "singular_fisher"
    except CrbEngineError as exc:
        return None, None, error_code(exc)


def _root(v):
    return math.sqrt(v) if v is not None and v >= 0.0 else None


def _rows(cfg: ScenarioConfig, points, *bounds) -> list:
    """The CSV rows of cfg's fields at each (r, theta) point, with that point's bounds.

    bounds holds five columns, one entry per point: crb_theta, crb_r, their
    roots and the error code.  Every row shares the fixed cells' objects.
    The keys are ``CSV_COLUMNS``, in order.
    """
    model, layout, method, k, m, i, n_r, big_r = (
        cfg.model, cfg.layout, cfg.method, cfg.K, cfg.M, cfg.I, cfg.N_r, cfg.R)
    return [
        {"model": model, "layout": layout, "method": method, "K": k, "M": m, "I": i, "N_r": n_r,
         "R_m": big_r, "theta_rad": theta, "r_m": r, "crb_theta_rad2": crb_theta,
         "crb_r_m2": crb_r, "root_crb_theta_rad": root_theta, "root_crb_r_m": root_r,
         "error_code": code}
        for (r, theta), crb_theta, crb_r, root_theta, root_r, code in zip(points, *bounds)
    ]


def _row(cfg: ScenarioConfig, r: float, theta: float, crb_theta, crb_r, code: str) -> dict:
    """The CSV row of cfg's fields at (r, theta) with its bounds."""
    return _rows(cfg, [(r, theta)], [crb_theta], [crb_r], [_root(crb_theta)], [_root(crb_r)],
                 [code])[0]


def _rows_on_layout(cfg: ScenarioConfig, points, layout: ArrayLayout | None = None) -> list:
    """One row per (r, theta) in ``points``, the other fields from cfg.

    Every evaluated CLI row comes from here.  The layout does not depend on
    r or theta: it is built once from cfg unless the caller passes one, and
    a layout's error goes on every point.  The method picks one route from
    ``_ROUTES`` for every valid scene, bound here to the layout, receiver
    and model; a method outside the table raises ConfigError.  A single
    point stays in plain floats: its scene, the route at it and
    ``_bounds``; so does each point of an oracle call, since the oracle
    takes no grid.  Two or more points of the other routes run as columns
    (``_grid_rows``).
    """
    if cfg.method not in _ROUTES:
        raise ConfigError(f"method must be one of {METHODS}, got {cfg.method!r}")
    try:
        layout = build_layout(cfg) if layout is None else layout
    except CrbEngineError as exc:
        return [_row(cfg, r, theta, None, None, error_code(exc)) for r, theta in points]
    beta_sq, sigma_n_sq = received_gain_sq(cfg.alpha, cfg.N_r, layout.n_elements), cfg.sigma_n_sq
    fisher = partial(_ROUTES[cfg.method], layout, n_r=cfg.N_r, model=cfg.model)
    if len(points) > 1 and cfg.method != "oracle":
        return _grid_rows(cfg, points, fisher, beta_sq, sigma_n_sq)
    rows = []
    for r, theta in points:
        result = outcome(SceneGeometry, r, theta, cfg.R, cfg.vartheta)
        if isinstance(result, SceneGeometry):
            result = outcome(fisher, result)
        rows.append(_row(cfg, r, theta, *_bounds(cfg, layout, beta_sq, sigma_n_sq, result)))
    return rows


def _grid_rows(cfg: ScenarioConfig, points, fisher, beta_sq: float, sigma_n_sq: float) -> list:
    """The rows of two or more points, kept as columns from the scenes to the bounds.

    The scene checks run once on the r and theta arrays (``scenes_hold``),
    ``fisher_columns`` gives the valid points' blocks as five columns, ``crb``
    inverts them and ``crb_theta_only`` gives the angle bound of the blocks
    it refuses, on those columns alone.  numpy's + - * / and sqrt round as
    Python's float operations do, so every row is the one its point gets
    alone (``_bounds``).  Only an invalid scene and a kept error are handled
    per point, by their codes.
    """
    r, theta = np.array(points, dtype=float).T
    valid = scenes_hold(r, theta, cfg.R, cfg.vartheta)
    index = np.flatnonzero(valid).tolist()
    blocks = np.full((5, len(points)), np.nan)
    # point -> the code of its invalid scene or kept error; its block stays NaN
    codes = {p: error_code(outcome(SceneGeometry, *points[p], cfg.R, cfg.vartheta))
             for p in np.flatnonzero(~valid).tolist()}
    if index:
        grid = GeometryGrid.of_columns(r[valid], theta[valid], cfg.R, cfg.vartheta)
        blocks[:, valid], errors = fisher_columns(grid, fisher)
        codes.update((index[p], error_code(error)) for p, error in errors.items())
    with np.errstate(all="ignore"):
        try:
            bounds = crb(NormalizedFisher(*blocks), beta_sq, sigma_n_sq)
            crb_theta, crb_r = bounds.crb_theta, bounds.crb_r
        except DomainError as exc:  # a gain or noise power that is not positive
            crb_theta, crb_r = blocks[:2] * math.nan
            codes = dict.fromkeys(range(len(points)), error_code(exc)) | codes
        # the blocks crb refused, by its own test, among the NaN rows without a code
        at = [p for p in np.flatnonzero(np.isnan(crb_theta)).tolist() if p not in codes]
        if at:
            at = np.array(at)[_refused(NormalizedFisher(*blocks[:, at]))]
            crb_theta[at] = crb_theta_only(NormalizedFisher(*blocks[:, at]), beta_sq, sigma_n_sq)
            codes.update(dict.fromkeys(at.tolist(), "singular_fisher"))
        cells = [crb_theta.tolist(), crb_r.tolist(), np.sqrt(crb_theta).tolist(),
                 np.sqrt(crb_r).tolist(), [""] * len(points)]
    # each row with a code is here (its crb_r is NaN): only crb_theta_only's bound stays
    for p in np.flatnonzero(~((crb_theta >= 0.0) & (crb_r >= 0.0))).tolist():
        if p in codes:
            cells[0][p] = None if math.isnan(cells[0][p]) else cells[0][p]
            cells[1][p], cells[4][p] = None, codes[p]
        cells[2][p], cells[3][p] = _root(cells[0][p]), _root(cells[1][p])
    return _rows(cfg, points, *cells)


def run_point(cfg: ScenarioConfig) -> dict:
    """Evaluate one scenario; engine errors become an error-code row."""
    return _rows_on_layout(cfg, [(cfg.r, cfg.theta)])[0]


def run_sweep(cfg: ScenarioConfig, axis: str, start: float, stop: float, steps: int) -> list:
    """One row per grid point, ordered along the axis; never aborts mid-grid."""
    if axis in ("r", "theta"):
        if steps < 2:
            raise ConfigError(f"steps must be >= 2, got {steps!r}")
        grid = [float(v) for v in np.linspace(start, stop, steps)]
        return _rows_on_layout(cfg, [(v, cfg.theta) if axis == "r" else (cfg.r, v) for v in grid])
    for v in (start, stop):
        if not math.isfinite(v) or v != int(v):
            raise ConfigError(f"axis {axis!r} needs integer bounds, got {v!r}")
    lo, hi = int(start), int(stop)
    if lo > hi:
        raise ConfigError(f"start must be <= stop for axis {axis!r}")
    floor = 1 if axis == "K" else 0
    if lo < floor:
        raise ConfigError(f"axis {axis!r} starts at {floor}, got {lo}")
    return [run_point(replace(cfg, **{axis: v})) for v in range(lo, hi + 1)]


# ---------------------------------------------------------------------------
# figure presets (simulation-section parameter sets; desk scale, no plotting)
# ---------------------------------------------------------------------------

_MODEL_METHODS = (("sw", "direct"), ("sw", "riemann"), ("hspw", "direct"), ("hspw", "riemann"), ("pw", "direct"))
_IK_CASES = ((3, 3), (12, 3), (3, 12), (12, 12))


def fig3_rows() -> list:
    """Closed-form vs exact bounds over range, K in {3,6,9,12}, theta=pi/4."""
    rows = []
    for k in (3, 6, 9, 12):
        for method in ("direct", "riemann"):
            cfg = ScenarioConfig(K=k, I=3, N_r=1, theta=math.pi / 4.0, method=method)
            rows.extend(run_sweep(cfg, "r", 2.0, 50.0, 25))
    return rows


def fig4_rows() -> list:
    """Wave-model comparison over range for four (I, K) cases, theta=pi/4."""
    rows = []
    for i, k in _IK_CASES:
        for model, method in _MODEL_METHODS:
            cfg = ScenarioConfig(K=k, I=i, N_r=1, theta=math.pi / 4.0, model=model, method=method)
            rows.extend(run_sweep(cfg, "r", 2.0, 50.0, 25))
    return rows


def fig5_rows() -> list:
    """Wave-model comparison over angle at r=10 for the same (I, K) cases."""
    rows = []
    for i, k in _IK_CASES:
        for model, method in _MODEL_METHODS:
            cfg = ScenarioConfig(K=k, I=i, N_r=1, r=10.0, model=model, method=method)
            rows.extend(run_sweep(cfg, "theta", -1.5, 1.5, 61))
    return rows


def fig6_rows() -> list:
    """Receive-array effect: N_r in {1,18,35}, theta=0, r in [1,30], R=31."""
    rows = []
    for n_r in (1, 18, 35):
        cfg = ScenarioConfig(K=12, I=10, N_r=n_r, theta=0.0, R=31.0)
        rows.extend(run_sweep(cfg, "r", 1.0, 30.0, 59))
    return rows


def fig7_rows() -> list:
    """Hybrid-model angle bound vs I with its two span-limit asymptotes."""
    cfg = ScenarioConfig(K=2, N_r=12, theta=0.0, r=10.0, R=50.0, model="hspw")
    geom = SceneGeometry(r=cfg.r, theta=cfg.theta, big_r=cfg.R)
    asym = hspw_crb_asymptotes(build_layout(replace(cfg, I=0)), geom, cfg.N_r)
    return run_sweep(cfg, "I", 0, 20, 21) + [
        _row(replace(cfg, I=None, method=name), cfg.r, cfg.theta, value, None, "")
        for name, value in (
            ("asymptote_span_pi", asym.crb_theta_span_pi),
            ("asymptote_span_zero", asym.crb_theta_span_zero),
        )
    ]


def fig8_rows() -> list:
    """Fixed total aperture K*D split across K in {3,6,12,24} subarrays.

    Illustrates the exact 1/c rescale of the closed-form bounds when K is
    multiplied by c and the subarray pitch divided by c.
    """
    rows = []
    base = ScenarioConfig(N_r=1, theta=math.pi / 4.0, r=10.0)
    total = 3 * build_layout(replace(base, I=10)).big_d
    for k in (3, 6, 12, 24):
        lay = make_wsms(k, base.M, base.d, total / k - (base.M - 1) * base.d, base.lam)
        for method in ("direct", "riemann"):
            cfg = replace(base, K=k, I=None, method=method)
            rows.extend(_rows_on_layout(cfg, [(cfg.r, cfg.theta)], lay))
    return rows


def fig9_rows() -> list:
    """Layout comparison (wide / stretched-uniform / dense) over I, theta=0."""
    rows = []
    for i in range(1, 14):
        for kind in LAYOUTS:
            cfg = ScenarioConfig(K=3, I=i, N_r=1, theta=0.0, r=10.0, layout=kind)
            rows.append(run_point(cfg))
    return rows


FIGURES = {
    "fig3": fig3_rows,
    "fig4": fig4_rows,
    "fig5": fig5_rows,
    "fig6": fig6_rows,
    "fig7": fig7_rows,
    "fig8": fig8_rows,
    "fig9": fig9_rows,
}


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def format_cell(value) -> str:
    if type(value) is float:
        return repr(value)
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


# a field of these characters holds nothing that csv quotes
_PLAIN_FIELD = re.compile(r"[\w.+-]*", re.ASCII)

# no column name holds what csv quotes
_HEADER = ",".join(CSV_COLUMNS) + "\n"

# the cells cfg fills (one call's rows share these objects), the point and the bounds
_FIXED_CELLS = operator.itemgetter(*CSV_COLUMNS[:8])
_POINT_CELLS = operator.itemgetter("theta_rad", "r_m")
_BOUND_CELLS = operator.itemgetter(*CSV_COLUMNS[10:14])
_FLOAT_OR_NONE = frozenset((float, type(None)))
_NO_ROW = tuple(object() for _ in CSV_COLUMNS[:8])  # held before the first row


def _quoted(text: str) -> str:
    """text as ``csv.writer`` writes it in a line of several fields."""
    if _PLAIN_FIELD.fullmatch(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[: -len(",\n")]


def _field(value) -> str:
    """``format_cell``'s text of value, as ``csv.writer`` writes it in a line of several fields."""
    if type(value) is float:
        return repr(value)  # format_cell's text
    text = format_cell(value)
    return _quoted(text) if isinstance(value, str) else text  # only text can hold what csv quotes


def write_rows(rows, stream) -> None:
    """The header and one line per row, as ``csv.writer`` writes ``format_cell``'s texts.

    A sweep's rows share their eight fixed cells, and one of theta_rad and
    r_m: a run of rows whose cells there are the very same objects formats
    them once.  Sameness is identity, not value, so that 0.0 and -0.0 keep
    their own texts; each object is held while its text is reused, so no
    id is reused meanwhile.  The four bound cells, when they are floats or
    None, are one join of their reprs; no float's repr holds "None".
    """
    stream.write(_HEADER)
    fixed_held, theta_held, r_held = _NO_ROW, _NO_ROW, _NO_ROW
    codes = {}
    for row in rows:
        fixed = _FIXED_CELLS(row)
        if not all(map(operator.is_, fixed, fixed_held)):
            fixed_held, fixed_text = fixed, ",".join(map(_field, fixed))
        theta, r = _POINT_CELLS(row)
        if theta is not theta_held:
            theta_held, theta_text = theta, _field(theta)
        if r is not r_held:
            r_held, r_text = r, _field(r)
        bounds = _BOUND_CELLS(row)
        if _FLOAT_OR_NONE.issuperset(map(type, bounds)):
            bounds_text = ",".join(map(repr, bounds)).replace("None", "")
        else:
            bounds_text = ",".join(map(_field, bounds))
        code = row["error_code"]
        code_text = codes.get(code) if type(code) is str else _field(code)
        if code_text is None:
            code_text = codes[code] = _field(code)
        stream.write(f"{fixed_text},{theta_text},{r_text},{bounds_text},{code_text}\n")


def _emit(rows, out_path: str | None) -> None:
    if out_path is None:
        write_rows(rows, sys.stdout)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            write_rows(rows, fh)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_scenario_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="flat key = value scenario file; flags override it")
    sp.add_argument("--frequency_hz", type=float, help="carrier frequency (default 1e11)")
    sp.add_argument("--snr_db", type=float, help="transmit SNR in dB (default 0)")
    sp.add_argument("--alpha", type=complex, help="target gain, e.g. '1+0j'")
    sp.add_argument("--K", type=int, help="number of subarrays")
    sp.add_argument("--M", type=int, help="elements per subarray (default 128)")
    sp.add_argument("--I", type=int, help="spacing exponent, D0 = 2^I lambda/2")
    sp.add_argument("--N_r", type=int, help="receive elements (default 1)")
    sp.add_argument("--R", type=float, help="transmitter-receiver distance in m")
    sp.add_argument("--r", type=float, help="transmitter-target range in m")
    sp.add_argument("--theta", type=float, help="departure angle in rad")
    sp.add_argument("--vartheta", type=float, help="receiver tilt in rad (default 0)")
    sp.add_argument("--model", choices=MODELS, help="wave model")
    sp.add_argument("--layout", choices=LAYOUTS, help="transmit layout")
    sp.add_argument(
        "--method",
        choices=METHODS + ("closed",),
        help="direct (steering-vector inner products), riemann/closed (closed-form sums), "
        "or oracle (finite-difference Fisher matrix)",
    )
    sp.add_argument("--out", help="write CSV here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearfield-crb",
        description="Angle/range estimation bounds for widely-spaced multi-subarray antennas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_crb = sub.add_parser("crb", help="evaluate a single scenario")
    _add_scenario_flags(p_crb)

    p_sweep = sub.add_parser("sweep", help="sweep one axis of a scenario")
    _add_scenario_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=("r", "theta", "I", "K"))
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, default=25, help="grid points for r/theta axes")

    p_fig = sub.add_parser("figure", help="emit a canned figure dataset")
    p_fig.add_argument("name", choices=sorted(FIGURES))
    p_fig.add_argument("--out", help="write CSV here instead of stdout")

    sub.add_parser("validate", help="run the invariant checks and report")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "crb":
            row = run_point(scenario_from_args(args))
            _emit([row], args.out)
            return 1 if row["error_code"] else 0
        if args.command == "sweep":
            cfg = scenario_from_args(args)
            rows = run_sweep(cfg, args.axis, args.start, args.stop, args.steps)
            _emit(rows, args.out)
            return 0
        if args.command == "figure":
            _emit(FIGURES[args.name](), args.out)
            return 0
        return validation.run_all(sys.stdout)
    except ConfigError as exc:
        parser.error(str(exc))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
