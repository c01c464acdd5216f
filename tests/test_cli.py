"""Command line interface: schema, determinism, exit codes, canned sweeps."""

import csv
import io
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from nearfield_crb import (
    SceneGeometry,
    bundle_crb,
    bundle_fisher,
    crb_theta_only,
    hspw_crb_closed,
    received_gain_sq,
    sw_crb_closed,
)
from nearfield_crb.errors import (
    IllConditioned,
    SingularFisher,
    SingularityNearPi2,
    error_code,
)
from nearfield_crb.experiment_cli import (
    CSV_COLUMNS,
    METHODS,
    ScenarioConfig,
    build_layout,
    format_cell,
    main,
    run_point,
    run_sweep,
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


def test_method_closed_is_riemann_alias(capsys):
    code, out = run_cli(capsys, ["crb", *DESK, "--method", "closed"])
    assert code == 0
    assert parse_rows(out)[0]["method"] == "riemann"


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
    assert "checks passed" in out
    assert "FAIL" not in out


def test_format_cell():
    assert format_cell(None) == ""
    assert format_cell("riemann") == "riemann"
    assert format_cell(3) == "3"
    assert format_cell(0.25) == "0.25"
    assert format_cell(1.0000000000000002e-06) == "1.0000000000000002e-06"
    # numpy 2 scalars would repr as np.float64(0.1) and np.int64(3)
    assert format_cell(np.float64(0.1)) == "0.1"
    assert format_cell(np.int64(3)) == "3"


def test_error_code_names():
    assert error_code(SingularFisher("x")) == "singular_fisher"
    assert error_code(SingularityNearPi2("x")) == "singularity_near_pi2"
    assert error_code(IllConditioned("x")) == "ill_conditioned"


# A well-conditioned scene with a non-unit gain and noise power.
ROUTE_SCENE = ScenarioConfig(K=3, M=16, I=4, R=50.0, r=2.0, theta=0.4,
                             snr_db=3.0, alpha=0.5 + 0.25j)
CLOSED = {"sw": sw_crb_closed, "hspw": hspw_crb_closed}


@pytest.mark.parametrize("n_r", [1, 4])
@pytest.mark.parametrize("model, method", [
    ("sw", "direct"), ("sw", "riemann"), ("hspw", "direct"), ("hspw", "riemann"), ("pw", "direct"),
])
def test_run_point_matches_library_route(model, method, n_r):
    cfg = replace(ROUTE_SCENE, model=model, method=method, N_r=n_r)
    row = run_point(cfg)
    lay = build_layout(cfg)
    geom = SceneGeometry(r=cfg.r, theta=cfg.theta, big_r=cfg.R)
    kw = dict(alpha=cfg.alpha, sigma_n_sq=cfg.sigma_n_sq)
    try:
        if method == "direct":
            ref = bundle_crb(lay, geom, n_r, model=model, **kw)
        else:
            ref = CLOSED[model](lay, geom, n_r, method=method, **kw)
        want = (ref.crb_theta, ref.crb_r, "")
    except SingularFisher:
        # a single element leaves the planar model range-blind: the angle
        # bound is the scalar inverse
        assert (model, n_r) == ("pw", 1)
        beta_sq = received_gain_sq(cfg.alpha, n_r, lay.n_elements)
        nf = bundle_fisher(lay, geom, n_r, model=model)
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
