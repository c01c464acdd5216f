"""Command line interface: schema, determinism, exit codes, canned sweeps."""

import csv
import gc
import importlib.util
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nearfield_crb import (
    NormalizedFisher,
    SceneGeometry,
    bundle_crb,
    bundle_fisher,
    crb,
    crb_theta_only,
    full_fisher_oracle,
    hspw_tx_bundle,
    d0_from_exponent,
    make_wsms,
    received_gain_sq,
    sums_fisher,
)
from nearfield_crb import experiment_cli, fisher_core, validation
from nearfield_crb.fisher_core import fisher_columns
from nearfield_crb.geometry import GeometryGrid
from nearfield_crb.errors import (
    CrbEngineError,
    DomainError,
    IllConditioned,
    InvalidLayout,
    SingularFisher,
    SingularityNearPi2,
    error_code,
)
from nearfield_crb.experiment_cli import (
    CSV_COLUMNS,
    METHODS,
    ConfigError,
    ScenarioConfig,
    build_layout,
    format_cell,
    main,
    run_point,
    run_sweep,
    validate_config,
)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_rows(text):
    reader = csv.DictReader(io.StringIO(text))
    assert reader.fieldnames == CSV_COLUMNS
    return list(reader)


DESK = ["--K", "2", "--M", "4", "--I", "2", "--r", "0.1", "--R", "2.0", "--theta", "0.35"]


def test_crb_point_schema(capsys):
    code, out = run_cli(capsys, ["crb", *DESK])
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["model"] == "sw"
    assert row["layout"] == "wsms"
    assert row["method"] == "direct"
    assert (row["K"], row["M"], row["I"], row["N_r"]) == ("2", "4", "2", "1")
    assert float(row["crb_theta_rad2"]) > 0.0
    assert float(row["crb_r_m2"]) > 0.0
    assert math.isclose(
        float(row["root_crb_theta_rad"]), math.sqrt(float(row["crb_theta_rad2"])), rel_tol=1e-12
    )
    assert row["error_code"] == ""


def test_crb_point_deterministic(capsys):
    _, first = run_cli(capsys, ["crb", *DESK])
    _, second = run_cli(capsys, ["crb", *DESK])
    assert first == second


@pytest.mark.parametrize("model", ["sw", "hspw"])
def test_crb_point_is_the_same_on_one_or_two_blas_threads(model):
    # K*M = 12,288 transmit entries: past the 10,000 at which OpenBLAS
    # splits a complex dot product across its threads
    argv = [sys.executable, "-m", "nearfield_crb", "crb", "--model", model,
            "--K", "48", "--M", "256", "--theta", "0.3", "--r", "10"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        outs.add(subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout)
    assert len(outs) == 1
    assert parse_rows(outs.pop())[0]["error_code"] == ""


def test_method_closed_is_riemann_alias(capsys):
    code, out = run_cli(capsys, ["crb", *DESK, "--method", "closed"])
    assert code == 0
    assert parse_rows(out)[0]["method"] == "riemann"
    assert validate_config(ScenarioConfig(method="closed")).method == "riemann"
    with pytest.raises(ConfigError, match="closed-form"):
        validate_config(ScenarioConfig(model="pw", method="closed"))


@pytest.mark.parametrize("method", ["Direct", "orcale"])
def test_a_method_outside_the_route_table_is_a_config_error(method):
    # not another route's rows under the unknown label, at a point or a sweep
    cfg = ScenarioConfig(method=method)
    for run in (run_point, lambda cfg: run_sweep(cfg, "r", 2.0, 10.0, 3)):
        with pytest.raises(ConfigError) as info:
            run(cfg)
        assert str(info.value) == f"method must be one of {METHODS}, got {method!r}"


def test_oracle_method_runs(capsys):
    code, out = run_cli(capsys, ["crb", *DESK, "--method", "oracle"])
    assert code == 0
    row = parse_rows(out)[0]
    ref_code, ref_out = run_cli(capsys, ["crb", *DESK])
    ref = parse_rows(ref_out)[0]
    assert math.isclose(
        float(row["crb_theta_rad2"]), float(ref["crb_theta_rad2"]), rel_tol=1e-4
    )


def test_planar_pair_reports_theta_only(capsys):
    code, out = run_cli(capsys, ["crb", *DESK, "--model", "pw"])
    assert code == 1
    row = parse_rows(out)[0]
    assert row["error_code"] == "singular_fisher"
    assert float(row["crb_theta_rad2"]) > 0.0
    assert row["crb_r_m2"] == ""
    assert row["root_crb_r_m"] == ""


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "# desk scale scenario\n"
        "K = 2\n"
        "M = 4\n"
        "I = 2\n"
        "r = 0.1\n"
        "R = 2.0\n"
        "theta = 0.35\n"
    )
    code, out = run_cli(capsys, ["crb", "--config", str(cfg)])
    assert code == 0
    base = parse_rows(out)[0]
    ref_code, ref_out = run_cli(capsys, ["crb", *DESK])
    assert base == parse_rows(ref_out)[0]

    code, out = run_cli(capsys, ["crb", "--config", str(cfg), "--M", "8"])
    assert parse_rows(out)[0]["M"] == "8"


def test_malformed_config_exits_two(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("K = 2\nnot a pair\n")
    with pytest.raises(SystemExit) as exc:
        main(["crb", "--config", str(cfg)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_config_key_exits_two(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("waves = 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["crb", "--config", str(cfg)])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("flag", ["--alpha=inf+0j", "--alpha=nan+0j", "--alpha=1e200+0j",
                                  "--alpha=1e154+0j", "--snr_db=-3090"])
def test_non_finite_gain_or_noise_exits_two(capsys, method, flag):
    # a non-finite alpha, a noise power 10^(-snr_db/10) that overflows, or a
    # gain |alpha|^2 N_r K M that overflows (1e154^2 * 384 does)
    with pytest.raises(SystemExit) as exc:
        main(["crb", "--method", method, flag])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("flag", ["--alpha=0j", "--snr_db=4000"])
def test_zero_gain_or_noise_is_a_domain_error_row(capsys, method, flag):
    # 10^(-400) underflows to a zero noise power
    code, out = run_cli(capsys, ["crb", "--method", method, flag])
    assert code == 1
    row = parse_rows(out)[0]
    assert row["error_code"] == "domain_error"
    assert row["crb_theta_rad2"] == row["crb_r_m2"] == ""


def test_pw_riemann_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["crb", *DESK, "--model", "pw", "--method", "riemann"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    code = main(["crb", *DESK, "--out", str(path)])
    assert code == 0
    capsys.readouterr()
    _, streamed = run_cli(capsys, ["crb", *DESK])
    assert path.read_text() == streamed


def test_sweep_r_axis(capsys):
    code, out = run_cli(
        capsys, ["sweep", *DESK, "--axis", "r", "--start", "0.05", "--stop", "0.5", "--steps", "10"]
    )
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 10
    assert math.isclose(float(rows[0]["r_m"]), 0.05, rel_tol=1e-12)
    assert math.isclose(float(rows[-1]["r_m"]), 0.5, rel_tol=1e-12)
    assert all(row["error_code"] == "" for row in rows)


def test_sweep_integer_axis(capsys):
    code, out = run_cli(
        capsys, ["sweep", *DESK, "--axis", "K", "--start", "1", "--stop", "4"]
    )
    assert code == 0
    rows = parse_rows(out)
    assert [row["K"] for row in rows] == ["1", "2", "3", "4"]


def test_sweep_continues_past_singular_angles(capsys):
    code, out = run_cli(
        capsys,
        ["sweep", *DESK, "--method", "riemann", "--axis", "theta",
         "--start", "1.2", "--stop", "1.5", "--steps", "4"],
    )
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 4
    assert rows[-1]["error_code"] == "singularity_near_pi2"
    assert rows[-1]["crb_theta_rad2"] == ""
    assert any(row["error_code"] == "" for row in rows)


def test_sweep_needs_two_steps(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *DESK, "--axis", "r", "--start", "1", "--stop", "2", "--steps", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_figure_names_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "fig1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_figure_span_sweep_rows(capsys):
    # 21 spacing exponents, all with an exactly range-blind hybrid block,
    # plus the two span-limit reference rows
    code, out = run_cli(capsys, ["figure", "fig7"])
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 23
    coded = [row for row in rows if row["error_code"] == "singular_fisher"]
    assert len(coded) == 21
    asymptote_methods = {row["method"] for row in rows if row["I"] == ""}
    assert asymptote_methods == {"asymptote_span_pi", "asymptote_span_zero"}
    finite = [float(row["crb_theta_rad2"]) for row in rows if row["error_code"]]
    assert all(v > 0.0 for v in finite)


def test_figure_scaling_rows(capsys):
    code, out = run_cli(capsys, ["figure", "fig8"])
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 8
    assert all(row["I"] == "" for row in rows)
    # halving the centre spacing while doubling the centre count must leave
    # K * crb_theta unchanged on the closed-form route
    riemann = {int(row["K"]): float(row["crb_theta_rad2"])
               for row in rows if row["method"] == "riemann"}
    products = [k * v for k, v in sorted(riemann.items())]
    for p in products[1:]:
        assert math.isclose(p, products[0], rel_tol=1e-9)
    # the direct rows are the exact route on each K's fixed-aperture layout
    lam = experiment_cli.C_LIGHT / 1e11
    d = lam / 2.0
    total = 3 * make_wsms(3, 128, d, d0_from_exponent(10, lam), lam).big_d
    geom = SceneGeometry(r=10.0, theta=math.pi / 4.0, big_r=50.0)
    direct = [row for row in rows if row["method"] == "direct"]
    assert [int(row["K"]) for row in direct] == [3, 6, 12, 24]
    for row in direct:
        k = int(row["K"])
        ref = bundle_crb(make_wsms(k, 128, d, total / k - 127 * d, lam), geom, 1)
        assert (row["crb_theta_rad2"], row["crb_r_m2"]) == (repr(ref.crb_theta), repr(ref.crb_r))


def test_figure_layout_comparison_rows(capsys):
    code, out = run_cli(capsys, ["figure", "fig9"])
    assert code == 0
    rows = parse_rows(out)
    assert len(rows) == 39
    assert {row["layout"] for row in rows} == {"wsms", "ua", "dua"}
    assert all(row["error_code"] == "" for row in rows)
    # the widely spaced layout must beat the sparse uniform mirror at
    # every spacing exponent
    by_i = {}
    for row in rows:
        by_i.setdefault(row["I"], {})[row["layout"]] = float(row["crb_theta_rad2"])
    assert len(by_i) == 13
    for vals in by_i.values():
        assert vals["wsms"] < vals["ua"]


def test_validate_subcommand(capsys):
    code = main(["validate"])
    out = capsys.readouterr().out
    assert code == 0
    assert "20/20 checks passed" in out


@pytest.mark.parametrize("check", validation.ALL_CHECKS, ids=lambda fn: fn.__name__)
def test_validation_check_passes(check):
    outcome = check()
    assert outcome.passed, outcome


def test_steering_checks_build_transmit_bundles_in_batches(monkeypatch):
    sizes = []

    def spy(layout, geoms, model):
        sizes.append(len(geoms))
        return fisher_core.tx_bundles(layout, geoms, model)

    monkeypatch.setattr(validation, "tx_bundles", spy)
    for check in (
        validation.check_steering_norms,
        validation.check_steering_derivatives,
        validation.check_planar_limit,
    ):
        assert check().passed
    assert sizes == [3, 3, 3, 15, 15, 15, 3, 3]


def test_format_cell():
    assert format_cell(None) == ""
    assert format_cell("riemann") == "riemann"
    assert format_cell(3) == "3"
    assert format_cell(0.25) == "0.25"
    assert format_cell(1.0000000000000002e-06) == "1.0000000000000002e-06"
    # numpy 2 scalars would repr as np.float64(0.1) and np.int64(3)
    assert format_cell(np.float64(0.1)) == "0.1"
    assert format_cell(np.int64(3)) == "3"


def test_write_rows_is_csv_writer_over_format_cell():
    # one object per float is formatted once a call; the memo keys on
    # identity, so 0.0 and -0.0, equal but apart, must keep their own text
    zero, negative_zero, shared = 0.0, -0.0, 0.1 + 0.2
    rows = experiment_cli.fig7_rows()[-3:]  # the last I point and both asymptotes
    for k, theta in enumerate([zero, negative_zero, zero, negative_zero, shared]):
        row = dict(rows[0], theta_rad=theta, r_m=shared, K=np.int64(k), I=None if k % 2 else k)
        row["error_code"] = "singular_fisher" if k == 3 else ""
        rows.append(row)
    rows.append(dict(rows[0], method='a "quoted", two-line\nname'))  # text that csv quotes
    assert sum(row["theta_rad"] is negative_zero for row in rows) == 2
    assert written(rows) == csv_writer_text(rows)
    assert written(rows).count(",-0.0,") == 2
    # two sweeps joined, as fig3 joins its presets: the fixed cells change mid-list
    sweeps = (run_sweep(replace(SWEEP_SCENE, method="riemann"), "r", 1.0, 3.0, 3)
              + run_sweep(replace(SWEEP_SCENE, model="hspw"), "theta", -0.5, 0.5, 3))
    # equal but distinct fixed objects: R_m 0.0, then -0.0, then 0.0 again
    signed = [dict(sweeps[0], R_m=zero), dict(sweeps[1], R_m=negative_zero),
              dict(sweeps[2], R_m=zero)]
    # bounds no engine row holds, and cells that are not floats
    odd = [dict(sweeps[0], crb_theta_rad2=math.nan, crb_r_m2=math.inf,
                root_crb_theta_rad=-math.inf, root_crb_r_m=np.float64(2.5)),
           dict(sweeps[1], crb_theta_rad2=None, crb_r_m2=math.nan, error_code=None),
           dict(sweeps[2], crb_r_m2=np.float64(math.inf), error_code="singular_fisher")]
    for case in (sweeps, signed, odd, sweeps[:1], []):
        assert written(case) == csv_writer_text(case)
    assert [line.split(",")[7] for line in written(signed).splitlines()[1:]] == ["0.0", "-0.0", "0.0"]
    assert written([]) == ",".join(CSV_COLUMNS) + "\n"


def written(rows) -> str:
    buf = io.StringIO()
    experiment_cli.write_rows(rows, buf)
    return buf.getvalue()


def csv_writer_text(rows) -> str:
    """What csv.writer writes for the header and format_cell's texts of each row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([format_cell(row[col]) for col in CSV_COLUMNS])
    return buf.getvalue()


def test_error_code_names():
    assert error_code(SingularFisher("x")) == "singular_fisher"
    assert error_code(SingularityNearPi2("x")) == "singularity_near_pi2"
    assert error_code(IllConditioned("x")) == "ill_conditioned"


# A well-conditioned scene with a non-unit gain and noise power.
ROUTE_SCENE = ScenarioConfig(K=3, M=16, I=4, R=50.0, r=2.0, theta=0.4,
                             snr_db=3.0, alpha=0.5 + 0.25j)


@pytest.mark.parametrize("n_r", [1, 4])
@pytest.mark.parametrize("model, method", [
    ("sw", "direct"), ("sw", "riemann"), ("hspw", "direct"), ("hspw", "riemann"), ("pw", "direct"),
])
def test_run_point_matches_library_route(model, method, n_r):
    cfg = replace(ROUTE_SCENE, model=model, method=method, N_r=n_r)
    row = run_point(cfg)
    lay = build_layout(cfg)
    geom = SceneGeometry(r=cfg.r, theta=cfg.theta, big_r=cfg.R)
    beta_sq = received_gain_sq(cfg.alpha, n_r, lay.n_elements)
    if method == "direct":
        nf = bundle_fisher(lay, geom, n_r, model=model)
    else:
        nf = sums_fisher(lay, geom, n_r, model=model, method=method)
    try:
        ref = crb(nf, beta_sq, cfg.sigma_n_sq)
        want = (ref.crb_theta, ref.crb_r, "")
    except SingularFisher:
        # a single element leaves the planar model range-blind: the angle
        # bound is the scalar inverse
        assert (model, n_r) == ("pw", 1)
        want = (crb_theta_only(nf, beta_sq, cfg.sigma_n_sq), None, "singular_fisher")
    assert (row["crb_theta_rad2"], row["crb_r_m2"], row["error_code"]) == want


# (scene, the same scene with the receiver elsewhere, code per method)
SINGLE_RX_SCENES = [
    (dict(theta=0.5, vartheta=0.1), dict(theta=0.5), {}),
    (dict(theta=0.0, r=10.0, R=10.0), dict(theta=0.0, r=10.0, R=50.0), {}),
    # far-field broadside: the oracle's 4x4 inversion fails its residual
    # check whatever the receiver placement
    (dict(theta=0.0, r=50.0, R=50.0), dict(theta=0.0, r=50.0, R=80.0),
     {"oracle": "ill_conditioned"}),
]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("scene, moved, codes", SINGLE_RX_SCENES)
def test_single_element_receiver_placement_never_enters(method, scene, moved, codes):
    # a tilted receiver, or a target at the receiver centre, changes nothing
    # for N_r = 1 on every route
    row = run_point(ScenarioConfig(method=method, **scene))
    ref = run_point(ScenarioConfig(method=method, **moved))
    cells = ("crb_theta_rad2", "crb_r_m2", "error_code")
    assert [row[c] for c in cells] == [ref[c] for c in cells]
    assert row["error_code"] == codes.get(method, "")


@pytest.mark.parametrize("method", METHODS)
def test_tilted_receiver_aperture_is_a_domain_error(method):
    row = run_point(ScenarioConfig(N_r=4, theta=0.5, vartheta=0.1, method=method))
    assert row["error_code"] == "domain_error"
    assert row["crb_theta_rad2"] is None


@pytest.mark.parametrize("model, method", [("hspw", "direct"), ("sw", "riemann")])
def test_overflowed_block_is_singular_not_nan(model, method):
    # at I = 600 the subarray gap is ~1e178 m and the Fisher entries turn NaN
    with np.errstate(over="ignore", invalid="ignore"):
        row = run_point(ScenarioConfig(model=model, method=method, I=600, theta=0.3))
    assert row["error_code"] == "singular_fisher"
    assert row["crb_theta_rad2"] is None and row["crb_r_m2"] is None


@pytest.mark.parametrize(
    "model, code", [("sw", "element_coincidence"), ("hspw", "singular_fisher")]
)
def test_overflowing_aperture_is_rejected_before_any_exp(model, code):
    # no errstate: at I = 600 the subarray gap is ~1e178 m.  The sw element
    # offsets vanish against it first; the hspw centre distances overflow when
    # squared, and the bundle route must reject them without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        row = run_point(ScenarioConfig(model=model, method="direct", I=600, theta=0.3))
    assert row["error_code"] == code
    assert row["crb_theta_rad2"] is None and row["crb_r_m2"] is None


@pytest.mark.parametrize("model, n_domain, n_singular", [("sw", 8, 1), ("hspw", 7, 0)])
def test_closed_form_gap_sweep_never_aborts(model, n_domain, n_singular):
    cfg = ScenarioConfig(model=model, method="riemann", theta=0.3)
    rows = run_sweep(cfg, "I", 0, 45, 25)
    codes = [row["error_code"] for row in rows]
    assert len(rows) == 46
    assert codes.count("domain_error") == n_domain
    assert codes.count("singular_fisher") == n_singular
    assert codes.count("") == 46 - n_domain - n_singular
    assert all(row["crb_r_m2"] > 0.0 for row in rows if not row["error_code"])


@pytest.mark.parametrize("axis, start, stop", [("K", "1", "inf"), ("I", "nan", "3")])
def test_sweep_rejects_non_finite_integer_bounds(capsys, axis, start, stop):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *DESK, "--axis", axis, "--start", start, "--stop", stop])
    assert exc.value.code == 2
    capsys.readouterr()


def test_overflowing_gap_exponent_is_an_error_row(capsys):
    code, out = run_cli(capsys, ["crb", "--I", "1100"])
    assert code == 1
    row = parse_rows(out)[0]
    assert row["error_code"] == "invalid_layout"
    assert row["crb_theta_rad2"] == ""


SWEEP_SCENE = ScenarioConfig(K=3, M=16, I=4, N_r=4, R=50.0, r=2.0, theta=0.4)
LAM = SWEEP_SCENE.lam


def assert_sweep_matches_points(cfg, axis, start, stop, steps):
    """run_sweep gives, row for row, what run_point gives at each grid point."""
    rows = run_sweep(cfg, axis, start, stop, steps)
    grid = [float(v) for v in np.linspace(start, stop, steps)]
    assert rows == [run_point(replace(cfg, **{axis: v})) for v in grid]
    return rows


@pytest.mark.parametrize("axis, start, stop", [("r", 0.5, 30.0), ("theta", -1.5, 1.5)])
@pytest.mark.parametrize("model, method", [
    ("sw", "direct"), ("sw", "riemann"), ("hspw", "direct"), ("hspw", "riemann"), ("pw", "direct"),
])
def test_sweep_rows_match_point_by_point(model, method, axis, start, stop):
    cfg = replace(SWEEP_SCENE, model=model, method=method)
    rows = assert_sweep_matches_points(cfg, axis, start, stop, 13)
    codes = [row["error_code"] for row in rows]
    if (model, method, axis) == ("sw", "riemann", "theta"):
        # -1.5, 1.5 lie beyond the closed-form cap
        assert codes.count("singularity_near_pi2") == 2
    else:
        assert codes.count("singularity_near_pi2") == 0


def test_oracle_sweep_matches_point_by_point():
    cfg = replace(SWEEP_SCENE, K=2, method="oracle")
    rows = assert_sweep_matches_points(cfg, "r", 0.1, 2.0, 4)
    assert all(not row["error_code"] for row in rows)


@pytest.mark.parametrize("axis", ["r", "theta"])
def test_unbuildable_layout_gives_every_sweep_point_its_error(axis):
    rows = assert_sweep_matches_points(replace(SWEEP_SCENE, I=1100), axis, 0.5, 1.0, 5)
    assert [row["error_code"] for row in rows] == ["invalid_layout"] * 5


@pytest.mark.parametrize("method", ["direct", "riemann"])
def test_sweep_error_rows_match_point_by_point(method):
    # a target on the element at +d/2: just below pi/2 the sine rounds to 1,
    # so at r = d/2 the squared distance is exactly 0
    on_element = ScenarioConfig(K=1, M=2, I=0, theta=math.nextafter(math.pi / 2.0, 0.0),
                                method=method)
    rows = assert_sweep_matches_points(on_element, "r", LAM / 4.0, 1.0, 4)
    want = "element_coincidence" if method == "direct" else "singularity_near_pi2"
    assert rows[0]["error_code"] == want
    # a tilted receiver aperture
    tilted = replace(SWEEP_SCENE, vartheta=0.1, method=method)
    rows = assert_sweep_matches_points(tilted, "r", 0.5, 30.0, 4)
    assert [row["error_code"] for row in rows] == ["domain_error"] * 4


# closed-form sweeps, one grid a call: (axis, start, stop, steps, fixed fields)
CLOSED_SWEEPS = {
    # through theta = 0.0 exactly, and past the 1.45 cap at both ends
    "theta": ("theta", -1.5, 1.5, 61, {}),
    # far enough out that the hybrid blocks turn singular near +-1.5
    "theta_far": ("theta", -1.5, 1.5, 61, {"r": 20.0}),
    # through the receiver's centre (r = R = 50) on broadside
    "r_through_rx": ("r", 40.0, 60.0, 21, {"theta": 0.0}),
    "r_far": ("r", 1e2, 1e9, 25, {}),
    # every point beyond the cap
    "r_beyond_cap": ("r", 1.0, 10.0, 5, {"theta": 1.5}),
    # every point the same scene, so that the grid holds only floats
    "r_same": ("r", 3.0, 3.0, 4, {}),
}

# error codes a sweep must reach, so that each case exercises its path
CLOSED_SWEEP_CODES = {
    ("theta", "sw", 1): {"", "singularity_near_pi2"},
    ("theta", "sw", 12): {"", "singularity_near_pi2"},
    ("theta_far", "hspw", 1): {"", "singular_fisher"},
    ("r_through_rx", "sw", 12): {"", "degenerate_geometry"},
    ("r_through_rx", "hspw", 12): {"", "degenerate_geometry"},
    ("r_far", "sw", 1): {"", "singular_fisher"},
    ("r_far", "hspw", 12): {"", "singular_fisher"},
    ("r_beyond_cap", "sw", 12): {"singularity_near_pi2"},
}


@pytest.mark.parametrize("n_r", [1, 12])
@pytest.mark.parametrize("model", ["sw", "hspw"])
@pytest.mark.parametrize("sweep", sorted(CLOSED_SWEEPS))
def test_closed_form_sweep_matches_point_by_point(sweep, model, n_r):
    axis, start, stop, steps, fixed = CLOSED_SWEEPS[sweep]
    cfg = replace(SWEEP_SCENE, model=model, method="riemann", N_r=n_r, **fixed)
    grid = [float(v) for v in np.linspace(start, stop, steps)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = run_sweep(cfg, axis, start, stop, steps)
        want = [run_point(replace(cfg, **{axis: v})) for v in grid]
    assert_rows_equal(rows, want)
    codes = {row["error_code"] for row in rows}
    assert CLOSED_SWEEP_CODES.get((sweep, model, n_r), set()) <= codes
    if axis == "theta":
        broadside = rows[grid.index(0.0)]
        assert broadside["error_code"] == ""


# points that each raise alone at a different step of the closed forms
CLOSED_FORM_POINTS = [
    (2.0, 0.3),
    (1e200, 0.3),   # the cell area underflows
    (1e160, 0.0),   # r ** 2 overflows in the aperture factors
    (1e-300, 0.0),  # r^2 underflows and the sums read NaN
    (2.0, 1.5),     # beyond the sw cap
    (2.0, 0.0),
    (0.0, 0.3),     # an invalid scene
    (1e-10, 0.3),   # the artanh argument rounds onto 1
    (1e-10, -0.0),  # ... but broadside skips the artanh terms
    (2.0, -1.2),
    (3e3, 0.3),     # a finite block under the det floor (sw) or the q22 floor (hspw)
    (1e5, 0.3),     # a finite block whose q22 sits under its floor
]


@pytest.mark.parametrize("big_r", [50.0, 1e120, 1e200])
@pytest.mark.parametrize("n_r", [1, 4])
@pytest.mark.parametrize("model", ["sw", "hspw"])
def test_closed_form_points_keep_their_own_codes_in_one_grid(model, n_r, big_r):
    # R = 1e200 and 1e120: the receiver distance overflows when squared or cubed
    cfg = ScenarioConfig(model=model, method="riemann", N_r=n_r, R=big_r)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = experiment_cli._rows_on_layout(cfg, CLOSED_FORM_POINTS)
        want = [run_point(replace(cfg, r=r, theta=theta)) for r, theta in CLOSED_FORM_POINTS]
    assert_rows_equal(rows, want)
    assert len({row["error_code"] for row in rows}) >= 2


# grids with rows that the columns must fill as a single point's path
# does: (config, points, codes the rows must reach)
HANDED_BACK_GRIDS = {
    # the bundle route's broadside two-subarray hybrid: decoupled rows keep
    # their angle bound
    "decoupled": (ScenarioConfig(K=2, model="hspw"),
                  [(2.0, 0.0), (10.0, 0.0), (10.0, 0.2), (0.0, 0.0), (30.0, -0.0)],
                  {"singular_fisher", "domain_error"}),
    # two elements and one receiver: rank-one blocks, det under its floor
    "det_floor": (ScenarioConfig(K=2, M=1, I=9),
                  [(2.1594719766691397, 0.36335631808874247), (2.0, 0.3), (0.0, 0.3)],
                  {"singular_fisher", "domain_error"}),
    # zero gain: every block gives domain_error, each kept error its own code
    "zero_gain": (ScenarioConfig(method="riemann", alpha=0j), CLOSED_FORM_POINTS,
                  {"domain_error", "singular_fisher", "singularity_near_pi2"}),
    # the planar model with one receive element is range-blind everywhere:
    # every valid row keeps its angle bound
    "range_blind_planar": (ScenarioConfig(model="pw", N_r=1),
                           [(10.0, -0.5), (10.0, 0.0), (10.0, 0.3), (0.0, 0.3), (10.0, 1.2)],
                           {"singular_fisher", "domain_error"}),
}


@pytest.mark.parametrize("case", sorted(HANDED_BACK_GRIDS))
def test_rows_the_array_tail_hands_back_keep_their_own_codes(monkeypatch, case):
    cfg, points, codes = HANDED_BACK_GRIDS[case]
    one_point = []
    bounds = experiment_cli._bounds
    monkeypatch.setattr(experiment_cli, "_bounds",
                        lambda *args: (one_point.append(args), bounds(*args))[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = experiment_cli._rows_on_layout(cfg, points)
        # no row of a grid takes the one-point path
        assert one_point == []
        want = [run_point(replace(cfg, r=r, theta=theta)) for r, theta in points]
    assert len(one_point) == len(points)
    assert_rows_equal(rows, want)
    assert {row["error_code"] for row in rows} == codes
    if case == "decoupled":
        assert any(row["crb_theta_rad2"] and row["crb_r_m2"] is None for row in rows)
    if case == "det_floor":
        assert rows[0]["error_code"] == "singular_fisher" and rows[0]["crb_theta_rad2"] is None


def test_closed_form_sweep_makes_a_scene_only_for_a_point_that_runs_alone(monkeypatch):
    # the scene checks run on the grid's arrays: only the invalid point and
    # the one beyond the sw cap (which the grid hands back) become scenes
    made = []
    checks = SceneGeometry.__post_init__
    monkeypatch.setattr(SceneGeometry, "__post_init__", lambda g: (made.append(g), checks(g)))
    cfg = ScenarioConfig(method="riemann")
    points = [(r, 0.3) for r in np.linspace(2.0, 50.0, 40).tolist()] + [(0.0, 0.3), (2.0, 1.5)]
    rows = experiment_cli._rows_on_layout(cfg, points)
    assert [row["error_code"] for row in rows[-3:]] == ["", "domain_error", "singularity_near_pi2"]
    assert [(g.r, g.theta) for g in made] == [(0.0, 0.3), (2.0, 1.5)]


def test_direct_sweep_makes_a_scene_only_for_a_point_that_runs_alone(monkeypatch):
    # the bundle route's grid needs no scene objects either: only the
    # invalid point and the target at the receiver's centre (a column the
    # grid hands back NaN, to run alone) become scenes
    made = []
    checks = SceneGeometry.__post_init__
    monkeypatch.setattr(SceneGeometry, "__post_init__", lambda g: (made.append(g), checks(g)))
    cfg = ScenarioConfig(method="direct", N_r=4, theta=0.0)
    points = [(r, 0.0) for r in np.linspace(2.0, 45.0, 40).tolist()] + [(0.0, 0.0), (50.0, 0.0)]
    rows = experiment_cli._rows_on_layout(cfg, points)
    assert [row["error_code"] for row in rows[-3:]] == ["", "domain_error", "degenerate_geometry"]
    assert [(g.r, g.theta) for g in made] == [(0.0, 0.0), (50.0, 0.0)]


def test_closed_form_edge_where_nu1_vanishes_keeps_its_code_in_a_grid():
    # an edge at x = 1 where sin(theta) rounds to 1 (see the crb test below)
    cfg = ScenarioConfig(K=2, I=3, model="hspw", method="riemann")
    points = [(0.20235990915000002, 1.5707963267948963), (0.2, 1.5707963267948963),
              (0.20235990915000002, 1.2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = experiment_cli._rows_on_layout(cfg, points)
        want = [run_point(replace(cfg, r=r, theta=theta)) for r, theta in points]
    assert_rows_equal(rows, want)
    assert [row["error_code"] for row in rows] == ["domain_error", "domain_error", ""]


def assert_rows_equal(got, want):
    # repr tells -0.0 from 0.0 and compares NaN, which == on rows would not
    assert [repr(row) for row in got] == [repr(row) for row in want]


@pytest.mark.parametrize("chunk_points", [None, 3])
@pytest.mark.parametrize("axis, start, stop", [("r", 0.5, 30.0), ("theta", -1.5, 1.5)])
@pytest.mark.parametrize("n_r", [1, 4])
@pytest.mark.parametrize("model", ["sw", "hspw", "pw"])
def test_direct_sweep_rows_match_single_point_formulas(monkeypatch, model, n_r, axis, start,
                                                       stop, chunk_points):
    # K=12, M=128: the real batch holds 10 points, so 25 points span three
    # batches; chunk_points=3 moves the edges
    cfg = ScenarioConfig(K=12, M=128, I=3, N_r=n_r, R=50.0, r=2.0, theta=0.4, model=model)
    n_t = build_layout(cfg).n_elements
    if chunk_points is not None:
        monkeypatch.setattr(fisher_core, "BATCH_ELEMENTS", chunk_points * n_t + n_t - 1)
    assert fisher_core.BATCH_ELEMENTS // n_t < 25
    rows = run_sweep(cfg, axis, start, stop, 25)
    grid = [float(v) for v in np.linspace(start, stop, 25)]
    points = [(v, cfg.theta) if axis == "r" else (cfg.r, v) for v in grid]
    assert_rows_equal(rows, [run_point(replace(cfg, r=r, theta=theta)) for r, theta in points])


@pytest.mark.parametrize("model", ["sw", "hspw", "pw"])
def test_direct_error_rows_inside_a_chunk_match_single_points(monkeypatch, model):
    # K=1, M=2: at theta just below pi/2 the sine rounds to 1, so the
    # target at r = d/2 sits on the element at +d/2; r = 1e155 squares to
    # inf; r = 0 and an angle of pi/2 fail the scene itself
    monkeypatch.setattr(fisher_core, "BATCH_ELEMENTS", 8)
    cfg = ScenarioConfig(K=1, M=2, I=0, model=model)
    near = math.nextafter(math.pi / 2.0, 0.0)
    points = [(LAM / 8.0, near), (LAM / 4.0, near), (1e155, 0.3), (0.0, 0.3), (1.0, 0.3),
              (LAM / 2.0, near), (1.0, math.pi / 2.0), (LAM / 4.0, near), (2.0, -0.7)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = experiment_cli._rows_on_layout(cfg, points)
    assert_rows_equal(rows, [run_point(replace(cfg, r=r, theta=theta)) for r, theta in points])
    codes = [row["error_code"] for row in rows]
    assert codes[3] == codes[6] == "domain_error"
    if model == "sw":
        assert codes[1] == codes[7] == "element_coincidence"
    if model != "pw":
        assert codes[2] == "singular_fisher"


@pytest.mark.parametrize("n_r", [1, 4])
@pytest.mark.parametrize("model", ["sw", "hspw", "pw"])
def test_overflowing_layout_sweep_matches_single_points(model, n_r):
    # at I = 600 the subarray gap is ~1e178 m: every point has its error
    cfg = ScenarioConfig(K=3, M=4, I=600, N_r=n_r, theta=0.3, model=model)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = run_sweep(cfg, "r", 1.0, 30.0, 7)
    grid = [float(v) for v in np.linspace(1.0, 30.0, 7)]
    assert_rows_equal(rows, [run_point(replace(cfg, r=v)) for v in grid])
    assert all(row["error_code"] for row in rows)


def test_direct_sweep_memory_is_bounded_by_the_chunk():
    # 400 points x 12,288 elements: one batch of the whole sweep would hold
    # 4.9 M complex entries per bundle vector (79 MB each)
    cfg = ScenarioConfig(K=48, M=256, I=3, N_r=1, theta=0.3)
    tracemalloc.start()
    try:
        rows = run_sweep(cfg, "r", 2.0, 50.0, 400)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 400 and not any(row["error_code"] for row in rows)
    assert peak < 16 * 2**20


def test_closed_form_edge_where_nu1_vanishes_is_an_error_row(capsys):
    # r = K D / 2 puts an edge at x = 1, and sin(theta) rounds to 1
    code, out = run_cli(capsys, ["crb", "--K", "2", "--I", "3", "--model", "hspw",
                                 "--method", "riemann", "--theta", "1.5707963267948963",
                                 "--r", "0.20235990915000002"])
    assert code == 1
    row = parse_rows(out)[0]
    assert row["error_code"] == "domain_error"
    assert row["crb_theta_rad2"] == ""


def test_rank_one_block_is_a_quiet_singular_row(capsys):
    # two elements and one receiver: the block is rank one, yet round-off
    # leaves det = 3.8e-4 against q11 q22 = 6.9e6; the det floor refuses it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(capsys, ["crb", "--K", "2", "--M", "1", "--I", "9", "--N_r", "1",
                                     "--R", "50.0", "--r", "2.1594719766691397",
                                     "--theta", "0.36335631808874247"])
    assert code == 1
    row = parse_rows(out)[0]
    assert row["error_code"] == "singular_fisher"
    assert row["crb_theta_rad2"] == row["crb_r_m2"] == ""


# finite inputs whose arithmetic leaves the float range somewhere on a route
EXTREME_SCENES = [
    ["--r", "1e200", "--theta", "0.3"],  # the closed form's cell area underflows
    ["--r", "1e160"],                    # r ** 2 overflows in the aperture factors
    ["--r", "1e160", "--model", "hspw"],
    ["--r", "1e-300"],                   # r^2 underflows and the sums read NaN: a NaN block
    ["--R", "1e200", "--N_r", "4"],      # the receiver distance squared overflows
    ["--R", "1e120", "--N_r", "4"],      # ... and cubed
    ["--frequency_hz", "1e300"],         # the inner products overflow
]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("scene", EXTREME_SCENES)
def test_extreme_finite_input_is_a_singular_row(capsys, method, scene):
    code, out = run_cli(capsys, ["crb", "--method", method, *scene])
    assert code == 1
    row = parse_rows(out)[0]
    assert row["error_code"] == "singular_fisher"
    assert row["crb_theta_rad2"] == row["crb_r_m2"] == ""


# planar-wave scenes where the factored transmit Gram meets the float range:
# (flags, error code, crb_theta_rad2 on the direct route or None)
EXTREME_PLANAR_SCENES = [
    # a ua mirror spaced near 1e149 m: the phase rates square to about 1e304
    (["--layout", "ua", "--K", "2", "--M", "2", "--I", "505", "--N_r", "4"], "singular_fisher", None),
    # ... and near 6e170 m, where products of the K- and M-length factors overflow
    (["--layout", "ua", "--K", "3", "--M", "2", "--I", "578", "--N_r", "35"], "singular_fisher", None),
    # no range information, so the angle bound stands beside the code
    (["--frequency_hz", "1e300"], "singular_fisher", 1.0695527756865474e-08),
]


@pytest.mark.parametrize("scene, code, crb_theta", EXTREME_PLANAR_SCENES)
def test_extreme_planar_input_is_a_quiet_singular_row(capsys, scene, code, crb_theta):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exit_code, out = run_cli(capsys, ["crb", "--model", "pw", "--theta", "0.3", *scene])
    assert exit_code == 1
    row = parse_rows(out)[0]
    assert row["error_code"] == code
    assert row["crb_r_m2"] == ""
    if crb_theta is None:
        assert row["crb_theta_rad2"] == ""
    else:
        assert math.isclose(float(row["crb_theta_rad2"]), crb_theta, rel_tol=1e-12)


@pytest.mark.parametrize("method", METHODS)
def test_sweep_to_the_top_of_the_float_range_never_aborts(capsys, method):
    code, out = run_cli(capsys, ["sweep", "--method", method, "--axis", "r",
                                 "--start", "1", "--stop", "1e300", "--steps", "3"])
    assert code == 0
    codes = [row["error_code"] for row in parse_rows(out)]
    assert codes == ["", "singular_fisher", "singular_fisher"]


@pytest.mark.parametrize("method", METHODS)
def test_far_hybrid_sweep_where_the_pitch_underflows_is_singular(capsys, method):
    # D / r underflows to zero on every point, which the hybrid closed form
    # divides by
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run_cli(capsys, ["sweep", "--model", "hspw", "--method", method,
                                     "--frequency_hz", "1e100", "--axis", "r",
                                     "--start", "1e249", "--stop", "1e250", "--steps", "3"])
    assert code == 0
    rows = parse_rows(out)
    assert [row["error_code"] for row in rows] == ["singular_fisher"] * 3
    assert all(row["crb_theta_rad2"] == row["crb_r_m2"] == "" for row in rows)


@pytest.mark.parametrize("r, theta", [(0.0, 0.3), (1.0, math.pi / 2.0), (1.0, 2.0)])
@pytest.mark.parametrize("model", ["sw", "hspw", "pw"])
def test_point_with_an_invalid_scene_is_a_domain_error_row(model, r, theta):
    # the scene is invalid, so no batch is built at all
    row = run_point(ScenarioConfig(model=model, r=r, theta=theta))
    assert row["error_code"] == "domain_error"
    assert row["crb_theta_rad2"] is None


@pytest.mark.parametrize("axis, start, stop", [("theta", -1.0, 4.0), ("r", -3.0, 2.0)])
@pytest.mark.parametrize("model", ["sw", "hspw", "pw"])
def test_direct_chunks_of_only_invalid_scenes_match_single_points(monkeypatch, model, axis,
                                                                  start, stop):
    # two points a batch: the sweep's last (theta) or first (r) points are
    # invalid scenes, which never reach a batch
    cfg = ScenarioConfig(K=3, M=16, I=4, N_r=4, r=2.0, theta=0.4, model=model)
    monkeypatch.setattr(fisher_core, "BATCH_ELEMENTS", 2 * build_layout(cfg).n_elements)
    rows = run_sweep(cfg, axis, start, stop, 11)
    grid = [float(v) for v in np.linspace(start, stop, 11)]
    points = [(v, cfg.theta) if axis == "r" else (cfg.r, v) for v in grid]
    assert_rows_equal(rows, [run_point(replace(cfg, r=r, theta=theta)) for r, theta in points])
    assert sum(row["error_code"] == "domain_error" for row in rows) >= 4


@pytest.mark.parametrize("model", ["sw", "hspw", "pw"])
def test_huge_range_is_a_quiet_error_row(monkeypatch, model):
    # r * r overflows; k0 n r on the discarded row would overflow too
    monkeypatch.setattr(fisher_core, "BATCH_ELEMENTS", 3 * 3 * 128)
    cfg = ScenarioConfig(model=model, r=1e306)
    points = [(1e306, 0.0), (2.0, 0.3), (1e306, -0.4), (5.0, 0.0), (1e306, 1.2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        row = run_point(cfg)
        rows = experiment_cli._rows_on_layout(cfg, points)
        want = [run_point(replace(cfg, r=r, theta=theta)) for r, theta in points]
    assert row["error_code"] == "singular_fisher"
    assert_rows_equal(rows, want)


def test_error_shared_by_a_sweep_is_not_raised_per_point(monkeypatch):
    # a batch's layout error is one object for all its points; raising it
    # once a point would chain one traceback entry a point onto it
    shared = InvalidLayout("shared")
    monkeypatch.setattr(experiment_cli, "fisher_columns", lambda grid, fisher: (
        np.full((5, grid.size), np.nan), dict.fromkeys(range(grid.size), shared)))
    rows = run_sweep(ScenarioConfig(K=3, M=16, I=4, theta=0.3), "r", 1.0, 2.0, 50)
    assert [row["error_code"] for row in rows] == ["invalid_layout"] * 50
    assert shared.__traceback__ is None


def cyclic_garbage(fn, *args):
    """fn(*args), and the count of cyclic objects it leaves, the collector off around it."""
    gc.collect()
    gc.disable()
    try:
        return fn(*args), gc.collect()
    finally:
        gc.enable()


# scenario fields -> the least count of error rows over the points below and
# both receiver tilts
CYCLE_SCENES = {
    # invalid scenes, a tilted receiver and the closed forms' theta cap
    "scenes": ({}, 8),
    # errors of the whole layout: the hybrid model on a uniform mirror, and
    # elements that coincide at a gap of 2^600 half-wavelengths
    "hybrid ua": ({"model": "hspw", "layout": "ua"}, 12),
    "I=600": ({"I": 600}, 12),
    # the receiver's distance overflows inside the engine: the error raised
    # there holds the overflow as its context, whose traceback holds the frames
    "R=1e120": ({"R": 1e120}, 12),
    "R=1e200": ({"R": 1e200}, 12),
}


@pytest.mark.parametrize("method", METHODS)
def test_error_rows_leave_no_reference_cycles(method):
    # an error kept with its traceback refers back to the frames that hold
    # it, and such a cycle keeps their vectors alive until the collector runs
    base = ScenarioConfig(K=3, M=16, I=4, N_r=4, theta=0.3, method=method)
    points = [(0.0, 0.3), (1.0, 0.3), (1.0, 1.5), (1.0, math.pi / 2.0), (5.0, 0.3), (20.0, -0.2)]
    garbage = {}
    for scene, (fields, least_errors) in CYCLE_SCENES.items():
        cfg = replace(base, **fields)
        rows, garbage[scene] = cyclic_garbage(lambda: [
            row for vartheta in (0.0, 0.1)
            for row in experiment_cli._rows_on_layout(replace(cfg, vartheta=vartheta), points)
        ])
        assert sum(bool(row["error_code"]) for row in rows) >= least_errors, scene
    assert garbage == dict.fromkeys(CYCLE_SCENES, 0)


def raised_code(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except CrbEngineError as exc:
        return error_code(exc)
    return ""


@pytest.mark.parametrize("call, code", [
    (lambda ua, geom: bundle_fisher(ua, geom, 1, model="hspw"), "invalid_layout"),
    (lambda ua, geom: hspw_tx_bundle(ua, geom), "invalid_layout"),
    (lambda ua, geom: full_fisher_oracle(ua, geom, 1, model="hspw"), "invalid_layout"),
    (lambda ua, geom: bundle_fisher(ua, replace(geom, vartheta=0.2), 4), "domain_error"),
], ids=["bundle_fisher", "hspw_tx_bundle", "full_fisher_oracle", "bundle_fisher tilted"])
def test_a_raised_point_error_leaves_no_reference_cycles(call, code):
    ua = build_layout(ScenarioConfig(K=3, M=16, I=4, layout="ua"))
    geom = SceneGeometry(r=10.0, theta=0.3, big_r=50.0)
    assert cyclic_garbage(raised_code, call, ua, geom) == (code, 0)


def fisher_columns_calls(whole_q11, rs):
    """fisher_columns' (blocks, errors) on a grid at ranges rs, with the grids and ranges it ran.

    One route answers the grid and each scene.  On the grid it returns
    whole_q11 as the q11 column (its other entries are one float each), or
    raises whole_q11 where that is an exception type.  At a scene it fails
    the point at r = 2 with a chained DomainError and gives any other point
    q11 = -r.
    """
    seen = {"whole": [], "alone": []}

    def route(geom):
        if isinstance(geom, GeometryGrid):
            seen["whole"].append(geom.r.tolist())
            if isinstance(whole_q11, type):
                raise whole_q11("the whole grid")
            return NormalizedFisher(np.array(whole_q11), 0.5, 2.0, 0.25, 0.125)
        seen["alone"].append(geom.r)
        if geom.r == 2.0:
            try:
                math.sqrt(-geom.r)
            except ValueError as exc:
                raise DomainError("the point at r = 2") from exc
        return NormalizedFisher(-geom.r, 0.0, 1.0)

    grid = GeometryGrid(np.array(rs, dtype=float), 0.3, 20.0, 0.0, len(rs))
    return fisher_columns(grid, route), seen


def assert_kept_bare(error):
    assert type(error) is DomainError and str(error) == "the point at r = 2"
    assert error.__traceback__ is error.__context__ is error.__cause__ is None


@pytest.mark.parametrize("kind", [InvalidLayout, OverflowError, ZeroDivisionError])
def test_a_raising_whole_sends_every_point_alone(kind):
    ((blocks, errors), seen), garbage = cyclic_garbage(fisher_columns_calls, kind, [1.0, 2.0, 3.0])
    assert seen == {"whole": [[1.0, 2.0, 3.0]], "alone": [1.0, 2.0, 3.0]}
    assert blocks[:, 0].tolist() == [-1.0, 0.0, 1.0, 0.0, 0.0]
    assert blocks[:, 2].tolist() == [-3.0, 0.0, 1.0, 0.0, 0.0]
    assert np.isnan(blocks[:, 1]).all() and list(errors) == [1]
    assert_kept_bare(errors[1])
    assert garbage == 0


def test_a_nan_column_sends_only_its_point_alone():
    (blocks, errors), seen = fisher_columns_calls([4.0, math.nan, 6.0], [1.0, 2.0, 3.0])
    assert seen == {"whole": [[1.0, 2.0, 3.0]], "alone": [2.0]}
    assert blocks[:, 0].tolist() == [4.0, 0.5, 2.0, 0.25, 0.125]
    assert blocks[:, 2].tolist() == [6.0, 0.5, 2.0, 0.25, 0.125]
    assert np.isnan(blocks[:, 1]).all() and list(errors) == [1]
    assert_kept_bare(errors[1])
    # an infinite column is not vouched for either, and alone may pass it
    (blocks, errors), seen = fisher_columns_calls([4.0, 5.0, -math.inf], [1.0, 2.0, 3.0])
    assert seen["alone"] == [3.0] and errors == {}
    assert blocks[:, 2].tolist() == [-3.0, 0.0, 1.0, 0.0, 0.0]


def test_an_empty_grid_gives_no_columns():
    (blocks, errors), seen = fisher_columns_calls([], [])
    assert blocks.shape == (5, 0) and errors == {}
    assert seen["alone"] == []


def test_a_whole_that_fails_otherwise_raises():
    # only engine and arithmetic errors are a point's own: a TypeError is a bug
    with pytest.raises(TypeError):
        fisher_columns_calls(TypeError, [1.0, 2.0])


def test_every_traced_name_is_a_module_level_function():
    # the traced benchmark run wraps owner.__dict__[name] for each name in
    # bench/tracing.py's LAYERS, so a name that is gone or is no longer
    # defined on its owner breaks the traced run
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._targets()
    assert len(targets) > len(tracing.LAYERS)
    assert [(layer, attr) for layer, owner, attr in targets if attr not in vars(owner)] == []


def test_no_figure_transmit_batch_falls_back_point_by_point(monkeypatch):
    # fig3-fig9 build 148 transmit batches of two or more points, none of
    # them raises and no point of a direct grid runs alone, so building
    # points alone costs the figures nothing; the bundle route builds its
    # batches through the transmit Gram table
    batches = []
    for model, setup in list(fisher_core._TX_GRAMS.items()):
        def spy_setup(layout, setup=setup):
            build, row = setup(layout)

            def spy(r, sin, cos):
                size = len(r) if isinstance(r, np.ndarray) else 1
                try:
                    out = build(r, sin, cos)
                except Exception as exc:
                    batches.append((size, type(exc).__name__))
                    raise
                batches.append((size, None))
                return out

            return spy, row
        monkeypatch.setitem(fisher_core._TX_GRAMS, model, spy_setup)
    direct, alone = [], []
    real_columns = experiment_cli.fisher_columns

    def columns(grid, fisher):
        def spy(geom):
            if geom is not grid:
                alone.append(geom)
            return fisher(geom)

        if fisher.func is not bundle_fisher:
            return real_columns(grid, fisher)
        direct.append(grid.size)
        return real_columns(grid, spy)

    monkeypatch.setattr(experiment_cli, "fisher_columns", columns)
    for figure in experiment_cli.FIGURES.values():
        figure()
    assert any(size > 1 for size, _ in batches) and direct
    assert [b for b in batches if b[1] is not None] == []
    assert alone == []


# Scenes each route must accept or reject alike: one error code on every
# method, and a bound on all of them or on none.  The closed forms are left
# out far from the array, where they print bounds the exact route does not
# find (crb --r 1e4 --model hspw --method riemann, say).
AGREEMENT_SCENES = [
    ["--model", "hspw", "--layout", "ua"],  # the hybrid model needs subarrays
    ["--model", "hspw", "--layout", "dua"],
    ["--alpha=1e-200+0j"],                  # beta^2 underflows to zero
    ["--snr_db=3000"],                      # a noise power of 1e-300
    ["--frequency_hz", "1e-300"],           # the wavelength overflows to inf
    ["--frequency_hz", "1e-300", "--theta", "0"],
    ["--model", "hspw", "--frequency_hz", "1e-300"],
    ["--N_r", "4", "--vartheta", "0.2"],    # a tilted receiver aperture
    ["--N_r", "4", "--r", "50", "--theta", "0"],  # the target at the receiver's centre
    ["--alpha=0j"],
    ["--snr_db=4000"],
    # r * r and 2 n r sin(theta) both overflow, and inf - inf is NaN
    ["--frequency_hz", "1e-150", "--r", "2e157", "--R", "1e158", "--N_r", "4"],
    ["--model", "hspw", "--frequency_hz", "1e-150", "--r", "2e157", "--R", "1e158", "--N_r", "4"],
    ["--frequency_hz", "3e-298"],
    ["--frequency_hz", "3e-298", "--layout", "ua"],  # the aperture overflows a float
    ["--frequency_hz", "3e-298", "--K", "12"],  # the end elements' coordinates would overflow
    # the subarray pitch over r underflows to zero in the hybrid closed form
    ["--model", "hspw", "--frequency_hz", "1e100", "--r", "1e250"],
]


def crb_csv(cfg):
    """The text ``crb`` prints for cfg."""
    buf = io.StringIO()
    experiment_cli.write_rows([run_point(cfg)], buf)
    return buf.getvalue()


@pytest.mark.parametrize("scene", AGREEMENT_SCENES, ids=" ".join)
def test_every_method_accepts_or_rejects_a_scene_alike(scene):
    results = {}
    garbage = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for method in METHODS:
            # parsed outside the collector window: argparse alone leaves cycles
            args = experiment_cli.build_parser().parse_args(
                ["crb", "--theta", "0.3", *scene, "--method", method]
            )
            out, garbage[method] = cyclic_garbage(crb_csv, experiment_cli.scenario_from_args(args))
            row = parse_rows(out)[0]
            results[method] = (row["error_code"], row["crb_theta_rad2"] != "")
    assert len(set(results.values())) == 1, results
    assert garbage == dict.fromkeys(METHODS, 0)


# Planar-wave scenes and the code both exact methods give (the closed forms
# have no planar model).
PLANAR_AGREEMENT_SCENES = [
    # c_k + t_m loses the in-subarray offset against a 2**55 half-wavelength
    # gap, which the factored transmit Gram must still report
    (["--I", "55", "--r", "10"], "element_coincidence"),
]


@pytest.mark.parametrize("scene, code", PLANAR_AGREEMENT_SCENES)
@pytest.mark.parametrize("method", ["direct", "oracle"])
def test_exact_methods_give_a_planar_scene_one_code(method, scene, code):
    args = experiment_cli.build_parser().parse_args(
        ["crb", "--model", "pw", "--theta", "0.3", *scene, "--method", method]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        row = parse_rows(crb_csv(experiment_cli.scenario_from_args(args)))[0]
    assert (row["error_code"], row["crb_theta_rad2"]) == (code, "")


def test_oracle_row_scales_from_unit_gain_and_noise():
    base = ScenarioConfig(K=2, M=4, I=2, R=2.0, r=0.1, theta=0.35, N_r=2, method="oracle")
    unit = run_point(base)
    scaled = run_point(replace(base, alpha=0.5j, snr_db=-3.0))
    factor = 10.0 ** 0.3 / 0.25  # sigma^2 / |alpha|^2
    assert unit["error_code"] == scaled["error_code"] == ""
    for col in ("crb_theta_rad2", "crb_r_m2"):
        assert abs(scaled[col] - factor * unit[col]) <= 1e-12 * abs(factor * unit[col])


# (row count, count of each error code) of each preset that sweeps r or theta
PRESET_COUNTS = {
    "fig3": (200, {"singular_fisher": 1}),
    "fig4": (500, {"singular_fisher": 101}),
    "fig5": (1220, {"singular_fisher": 246, "singularity_near_pi2": 8}),
    "fig6": (177, {}),
}


@pytest.mark.parametrize("name", sorted(PRESET_COUNTS))
def test_sweep_preset_rows_and_error_codes(name):
    rows = experiment_cli.FIGURES[name]()
    codes = Counter(row["error_code"] for row in rows if row["error_code"])
    assert (len(rows), codes) == PRESET_COUNTS[name]


# (argv, the text of a --config file or None)
REJECTED_INPUTS = [
    (["crb", "--K", "0"], None),
    (["crb", "--M", "0"], None),
    (["crb", "--N_r", "0"], None),
    (["crb", "--I", "-1"], None),
    (["crb", "--frequency_hz=-1"], None),
    (["crb", "--frequency_hz", "inf"], None),
    (["crb", "--snr_db", "nan"], None),
    (["crb"], "model = spherical\n"),
    (["crb"], "layout = hexagonal\n"),
    (["crb"], "method = simpson\n"),
    (["crb"], "K = three\n"),
    (["sweep", "--axis", "K", "--start", "4", "--stop", "2"], None),
    (["sweep", "--axis", "K", "--start", "0", "--stop", "2"], None),
    (["sweep", "--axis", "I", "--start", "-1", "--stop", "2"], None),
]


@pytest.mark.parametrize("argv, config", REJECTED_INPUTS)
def test_rejected_input_exits_two(capsys, tmp_path, argv, config):
    if config is not None:
        path = tmp_path / "scenario.cfg"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_figure_script_records_each_figure_in_a_summary(monkeypatch, capsys, tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_figures.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--outdir", str(tmp_path),
                                      "--only", "fig7", "fig9", "--skip-validate"])
    assert runpy.run_path(str(script))["main"]() == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert sorted(summary["figures"]) == ["fig7", "fig9"]
    for name, record in summary["figures"].items():
        rows = experiment_cli.FIGURES[name]()
        codes = Counter(row["error_code"] for row in rows if row["error_code"])
        assert (record["rows"], record["error_codes"]) == (len(rows), dict(codes))
        assert record["seconds"] > 0.0
        want = io.StringIO()
        experiment_cli.write_rows(rows, want)
        assert (tmp_path / f"{name}.csv").read_text(encoding="utf-8") == want.getvalue()


# ua mirrors spaced near 1e152 m, where the derivative norms of the inner
# products overflow
OVERFLOWING_MIRRORS = [
    {"layout": "ua", "K": 2, "M": 2, "I": 516, "N_r": 4, "theta": 0.3},
    {"model": "pw", "layout": "ua", "K": 2, "M": 2, "I": 580, "N_r": 4, "theta": 0.3},
]


def test_route_sample_gives_each_accepted_scene_a_row_with_a_known_code(monkeypatch):
    # the first scenes of each stratum of the route scan; a RuntimeWarning
    # is an error under pytest here
    script = Path(__file__).resolve().parent.parent / "scripts" / "scan_routes.py"
    monkeypatch.setattr(sys, "path", [*sys.path])
    scan = runpy.run_path(str(script))
    scenes = [fields for _, fields in scan["scenes"](scan["SEED"], 200)] + OVERFLOWING_MIRRORS
    for fields in scenes:
        for method in METHODS:
            try:
                cfg = validate_config(ScenarioConfig(**fields, method=method))
            except ConfigError:
                continue
            row = run_point(cfg)
            assert row["method"] == method
            # KNOWN: "ok" and the error_code of each CrbEngineError subclass
            assert (row["error_code"] or "ok") in scan["KNOWN"], (fields, method)


def test_unwritable_out_path_exits_one(capsys, tmp_path):
    code = main(["crb", *DESK, "--out", str(tmp_path / "missing" / "rows.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
