"""Command line interface: schema, determinism, exit codes, canned sweeps."""

import csv
import gc
import io
import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import separate_bundles as separate
from nearfield_crb import (
    SceneGeometry,
    bundle_crb,
    bundle_fisher,
    crb,
    crb_theta_only,
    d0_from_exponent,
    make_wsms,
    received_gain_sq,
    sums_fisher,
)
from nearfield_crb import experiment_cli, fisher_core
from nearfield_crb.errors import (
    CrbEngineError,
    IllConditioned,
    InvalidLayout,
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


def single_point_rows(cfg, points):
    """Direct-route rows point by point, through the single-point formulas."""
    layout = build_layout(cfg)
    rows = []
    for r, theta in points:
        try:
            geom = SceneGeometry(r=r, theta=theta, big_r=cfg.R, vartheta=cfg.vartheta)
            nf = separate.bundle_fisher(layout, geom, cfg.N_r, model=cfg.model)
            bounds = experiment_cli._bounds(cfg, layout, nf)
            rows.append(experiment_cli._row(cfg, r, theta, *bounds))
        except CrbEngineError as exc:
            rows.append(experiment_cli._row(cfg, r, theta, None, None, error_code(exc)))
    return rows


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
    assert_rows_equal(rows, single_point_rows(cfg, points))


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
    assert_rows_equal(rows, single_point_rows(cfg, points))
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
    assert_rows_equal(rows, single_point_rows(cfg, [(v, cfg.theta) for v in grid]))
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


# finite inputs whose arithmetic leaves the float range somewhere on a route
EXTREME_SCENES = [
    ["--r", "1e200", "--theta", "0.3"],  # the closed form's cell area underflows
    ["--r", "1e160"],                    # r ** 2 overflows in the aperture factors
    ["--r", "1e160", "--model", "hspw"],
    ["--r", "1e-300"],                   # r^2 cos^2(theta) underflows in the assembly
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


@pytest.mark.parametrize("method", METHODS)
def test_sweep_to_the_top_of_the_float_range_never_aborts(capsys, method):
    code, out = run_cli(capsys, ["sweep", "--method", method, "--axis", "r",
                                 "--start", "1", "--stop", "1e300", "--steps", "3"])
    assert code == 0
    codes = [row["error_code"] for row in parse_rows(out)]
    assert codes == ["", "singular_fisher", "singular_fisher"]


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
    assert_rows_equal(rows, single_point_rows(cfg, points))
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
        want = single_point_rows(cfg, points)
    assert row["error_code"] == "singular_fisher"
    assert_rows_equal([row], want[:1])
    assert_rows_equal(rows, want)


def test_error_shared_by_a_sweep_is_not_raised_per_point(monkeypatch):
    # a batch's layout error is one object for all its points; raising it
    # once a point would chain one traceback entry a point onto it
    shared = InvalidLayout("shared")
    monkeypatch.setattr(experiment_cli, "bundle_fishers",
                        lambda layout, geoms, n_r, *, model: [shared] * len(geoms))
    rows = run_sweep(ScenarioConfig(K=3, M=16, I=4, theta=0.3), "r", 1.0, 2.0, 50)
    assert [row["error_code"] for row in rows] == ["invalid_layout"] * 50
    assert shared.__traceback__ is None


@pytest.mark.parametrize("method", METHODS)
def test_error_rows_leave_no_reference_cycles(method):
    # an error kept with its traceback refers back to the frames that hold
    # it, and such a cycle keeps their vectors alive until the collector runs
    cfg = ScenarioConfig(K=3, M=16, I=4, N_r=4, theta=0.3, method=method)
    points = [(0.0, 0.3), (1.0, 0.3), (1.0, 1.5), (1.0, math.pi / 2.0)]
    gc.collect()
    gc.disable()
    try:
        rows = [row for vartheta in (0.0, 0.1)
                for row in experiment_cli._rows_on_layout(replace(cfg, vartheta=vartheta), points)]
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0
    assert sum(bool(row["error_code"]) for row in rows) >= 5


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
]


@pytest.mark.parametrize("scene", AGREEMENT_SCENES, ids=" ".join)
def test_every_method_accepts_or_rejects_a_scene_alike(capsys, scene):
    results = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for method in METHODS:
            _, out = run_cli(capsys, ["crb", "--theta", "0.3", *scene, "--method", method])
            row = parse_rows(out)[0]
            results[method] = (row["error_code"], row["crb_theta_rad2"] != "")
    assert len(set(results.values())) == 1, results


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


def test_unwritable_out_path_exits_one(capsys, tmp_path):
    code = main(["crb", *DESK, "--out", str(tmp_path / "missing" / "rows.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
