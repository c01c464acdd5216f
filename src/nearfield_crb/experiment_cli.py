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
byte-identical.

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
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import validation
from .array_layouts import ArrayLayout, d0_from_exponent, make_dua, make_ua, make_wsms
from .crb_analytic import hspw_crb_asymptotes, sums_fisher
from .errors import CrbEngineError, DomainError, SingularFisher, error_code
from .fisher_core import (
    NormalizedFisher,
    bundle_fishers,
    crb,
    crb_theta_only,
    full_fisher_oracle,
    received_gain_sq,
    require_gain_and_noise,
)
from .geometry import SceneGeometry

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
METHODS = ("direct", "riemann", "oracle")


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
    """Structural checks; geometry-domain problems surface later as rows."""
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
    if values.get("method") == "closed":
        values["method"] = "riemann"
    return validate_config(ScenarioConfig(**values))


def build_layout(cfg: ScenarioConfig) -> ArrayLayout:
    d0 = d0_from_exponent(cfg.I, cfg.lam)
    if cfg.layout == "wsms":
        return make_wsms(cfg.K, cfg.M, cfg.d, d0, cfg.lam)
    if cfg.layout == "ua":
        return make_ua(cfg.K, cfg.M, cfg.d, d0, cfg.lam)
    return make_dua(cfg.K, cfg.M, cfg.d, cfg.lam)


def _evaluate(cfg: ScenarioConfig, layout: ArrayLayout, outcome):
    """(crb_theta, crb_r, error_code) of one point's outcome.

    The outcome is the point's engine error, its direct-route block, or its
    scene for the oracle or closed form.  The error is not raised: it can be
    shared by many points, and each raise would lengthen its traceback.
    """
    if isinstance(outcome, CrbEngineError):
        return None, None, error_code(outcome)
    try:
        if cfg.method == "oracle":
            res = full_fisher_oracle(layout, outcome, cfg.N_r, model=cfg.model)
            # unit-gain bounds times sigma^2 / |alpha|^2, exactly 1.0 at unit gain and noise
            beta_sq = received_gain_sq(cfg.alpha, cfg.N_r, layout.n_elements)
            require_gain_and_noise(beta_sq, cfg.sigma_n_sq)
            scale = cfg.sigma_n_sq * (received_gain_sq(1.0, cfg.N_r, layout.n_elements) / beta_sq)
            return res.crb_theta * scale, res.crb_r * scale, ""
        if cfg.method == "riemann":
            outcome = sums_fisher(layout, outcome, cfg.N_r, model=cfg.model, method=cfg.method)
        return _bounds(cfg, layout, outcome)
    except CrbEngineError as exc:
        return None, None, error_code(exc)


def _bounds(cfg: ScenarioConfig, layout: ArrayLayout, nf: NormalizedFisher):
    """(crb_theta, crb_r, error_code) from one point's normalized Fisher block."""
    beta_sq = received_gain_sq(cfg.alpha, cfg.N_r, layout.n_elements)
    try:
        res = crb(nf, beta_sq, cfg.sigma_n_sq)
    except SingularFisher as singular:
        # Decoupled degeneracies keep the angle estimable: planar phases
        # carry no range curvature, and broadside K<=2 hybrid layouts lose
        # across-subarray range information identically.  Report the scalar
        # angle bound and flag the missing range bound; a coupled singular
        # block (crb_theta_only's DomainError) stays the pair's error.
        try:
            theta_only = crb_theta_only(nf, beta_sq, cfg.sigma_n_sq)
        except DomainError:
            raise singular from None
        return theta_only, None, "singular_fisher"
    return res.crb_theta, res.crb_r, ""


def _row(cfg: ScenarioConfig, r: float, theta: float, crb_theta, crb_r, code: str) -> dict:
    """The CSV row of cfg's fields at (r, theta) with its bounds."""

    def root(v):
        return math.sqrt(v) if v is not None and v >= 0.0 else None

    return {
        "model": cfg.model,
        "layout": cfg.layout,
        "method": cfg.method,
        "K": cfg.K,
        "M": cfg.M,
        "I": cfg.I,
        "N_r": cfg.N_r,
        "R_m": cfg.R,
        "theta_rad": theta,
        "r_m": r,
        "crb_theta_rad2": crb_theta,
        "crb_r_m2": crb_r,
        "root_crb_theta_rad": root(crb_theta),
        "root_crb_r_m": root(crb_r),
        "error_code": code,
    }


def _rows_on_layout(cfg: ScenarioConfig, points, layout: ArrayLayout | None = None) -> list:
    """One row per (r, theta) in ``points``, the other fields from cfg.

    Every evaluated CLI row comes from here.  The layout does not depend on
    r or theta: it is built once from cfg unless the caller passes one.  The
    direct route gets every block from one ``bundle_fishers`` call, which
    bounds its own batches.  Engine errors become error-code rows, each
    point's own, a scene's error first, a layout's error on every point.
    """
    try:
        layout = build_layout(cfg) if layout is None else layout
    except CrbEngineError as exc:
        return [_row(cfg, r, theta, None, None, error_code(exc)) for r, theta in points]
    outcomes = []
    for r, theta in points:
        try:
            outcomes.append(SceneGeometry(r=r, theta=theta, big_r=cfg.R, vartheta=cfg.vartheta))
        except CrbEngineError as exc:
            outcomes.append(exc.with_traceback(None))  # no cycle through this frame
    if cfg.method == "direct":
        geoms = [g for g in outcomes if isinstance(g, SceneGeometry)]
        blocks = iter(bundle_fishers(layout, geoms, cfg.N_r, model=cfg.model))
        outcomes = [next(blocks) if isinstance(g, SceneGeometry) else g for g in outcomes]
    return [_row(cfg, *point, *_evaluate(cfg, layout, o)) for point, o in zip(points, outcomes)]


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
    rows = [run_point(replace(cfg, I=i)) for i in range(21)]
    geom = SceneGeometry(r=cfg.r, theta=cfg.theta, big_r=cfg.R)
    asym = hspw_crb_asymptotes(build_layout(replace(cfg, I=0)), geom, cfg.N_r)
    for name, value in (
        ("asymptote_span_pi", asym.crb_theta_span_pi),
        ("asymptote_span_zero", asym.crb_theta_span_zero),
    ):
        row = _row(replace(cfg, I=0), cfg.r, cfg.theta, value, None, "")
        row["method"] = name
        row["I"] = None
        rows.append(row)
    return rows


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
            cfg = replace(base, K=k, method=method)
            (row,) = _rows_on_layout(cfg, [(cfg.r, cfg.theta)], lay)
            row["I"] = None
            rows.append(row)
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


def write_rows(rows, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([format_cell(row[col]) for col in CSV_COLUMNS])


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
