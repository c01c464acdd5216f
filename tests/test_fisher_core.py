"""Steering bundles, Schur-complement bounds, and the finite-difference oracle."""

import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from conftest import D_HALF, LAM, seeded, std_wsms
from nearfield_crb import (
    ArrayLayout,
    CrbEngineError,
    DegenerateGeometry,
    DomainError,
    ElementCoincidence,
    IllConditioned,
    InvalidLayout,
    SceneGeometry,
    SingularFisher,
    bundle_crb,
    bundle_fisher,
    crb,
    crb_theta_only,
    d0_from_exponent,
    fisher_core,
    full_fisher_oracle,
    element_positions,
    make_dua,
    make_ua,
    make_wsms,
    received_gain_sq,
)
from nearfield_crb.fisher_core import (
    NormalizedFisher,
    amfs,
    composite_bundle,
    det_floor,
    fisher_columns,
    hspw_tx_bundle,
    pw_tx_bundle,
    rx_bundle,
    sw_tx_bundle,
)
from nearfield_crb.errors import outcome
from nearfield_crb.geometry import GeometryGrid

STRONG = SceneGeometry(r=0.04, theta=0.4, big_r=2.0)


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# steering bundles
# ---------------------------------------------------------------------------

def test_bundles_are_unit_norm():
    lay = std_wsms(3, 4, 2)
    geom = SceneGeometry(r=1.5, theta=0.3, big_r=20.0)
    for bundle in (
        sw_tx_bundle(lay, geom),
        pw_tx_bundle(lay, geom),
        hspw_tx_bundle(lay, geom),
        rx_bundle(lay, 4, geom),
    ):
        assert math.isclose(np.linalg.norm(bundle.value), 1.0, rel_tol=1e-12)
    comp = composite_bundle(sw_tx_bundle(lay, geom), rx_bundle(lay, 4, geom))
    assert math.isclose(np.linalg.norm(comp.value), 1.0, rel_tol=1e-12)
    assert comp.value.shape == (lay.n_elements * 4,)


def test_bundle_derivatives_match_finite_differences():
    rng = seeded("bundle-fd")
    for model in (sw_tx_bundle, pw_tx_bundle, hspw_tx_bundle):
        for _ in range(4):
            lay = std_wsms(rng.randint(1, 4), rng.randint(1, 8), rng.randint(0, 4))
            r = rng.uniform(0.3, 5.0)
            theta = rng.uniform(-1.2, 1.2)
            geom = SceneGeometry(r=r, theta=theta, big_r=20.0)
            bundle = model(lay, geom)

            def value_at(t, rr):
                return model(lay, SceneGeometry(r=rr, theta=t, big_r=20.0)).value

            def vector_richardson(f, x, h):
                coarse = (f(x + h) - f(x - h)) / (2.0 * h)
                fine = (f(x + h / 2.0) - f(x - h / 2.0)) / h
                return (4.0 * fine - coarse) / 3.0

            fd_theta = vector_richardson(lambda t: value_at(t, r), theta, 1e-5)
            fd_r = vector_richardson(lambda rr: value_at(theta, rr), r, 1e-5 * r)
            scale_t = max(np.max(np.abs(bundle.d_theta)), 1e-6)
            scale_r = max(np.max(np.abs(bundle.d_r)), 1e-6)
            assert np.max(np.abs(bundle.d_theta - fd_theta)) / scale_t < 1e-6, model.__name__
            assert np.max(np.abs(bundle.d_r - fd_r)) / scale_r < 1e-6, model.__name__


def test_rx_bundle_derivatives_match_finite_differences():
    lay = std_wsms(1, 1, 0)
    geom = SceneGeometry(r=3.0, theta=0.25, big_r=20.0)

    def value_at(t, rr):
        return rx_bundle(lay, 6, SceneGeometry(r=rr, theta=t, big_r=20.0)).value

    bundle = rx_bundle(lay, 6, geom)
    h = 1e-6
    fd_theta = (value_at(geom.theta + h, 3.0) - value_at(geom.theta - h, 3.0)) / (2.0 * h)
    fd_r = (value_at(geom.theta, 3.0 + 3e-6) - value_at(geom.theta, 3.0 - 3e-6)) / 6e-6
    assert np.max(np.abs(bundle.d_theta - fd_theta)) / np.max(np.abs(bundle.d_theta)) < 1e-6
    assert np.max(np.abs(bundle.d_r - fd_r)) / np.max(np.abs(bundle.d_r)) < 1e-6


def test_rx_bundle_single_element_has_no_sensitivity():
    lay = std_wsms(2, 3, 1)
    geom = SceneGeometry(r=2.0, theta=0.1, big_r=20.0)
    bundle = rx_bundle(lay, 1, geom)
    assert np.all(bundle.d_theta == 0.0)
    assert np.all(bundle.d_r == 0.0)


def test_rx_bundle_validation():
    lay = std_wsms(2, 3, 1)
    geom = SceneGeometry(r=2.0, theta=0.1, big_r=20.0)
    with pytest.raises(DomainError):
        rx_bundle(lay, 0, geom)
    with pytest.raises(DomainError):
        rx_bundle(lay, 2.5, geom)
    with pytest.raises(DomainError):
        rx_bundle(lay, 3, SceneGeometry(r=2.0, theta=0.1, big_r=20.0, vartheta=0.2))
    with pytest.raises(DegenerateGeometry):
        rx_bundle(lay, 3, SceneGeometry(r=20.0, theta=0.0, big_r=20.0))


def test_hspw_bundle_requires_subarrayed_layout():
    lay = make_dua(2, 3, 0.0015, 0.003)
    with pytest.raises(InvalidLayout):
        hspw_tx_bundle(lay, SceneGeometry(r=2.0, theta=0.1, big_r=20.0))


def test_pw_bundle_has_no_range_sensitivity():
    lay = std_wsms(3, 4, 2)
    bundle = pw_tx_bundle(lay, SceneGeometry(r=2.0, theta=0.3, big_r=20.0))
    assert np.all(bundle.d_r == 0.0)


# ---------------------------------------------------------------------------
# composite inner products, factor by factor
# ---------------------------------------------------------------------------

TX_BUNDLES = {"sw": sw_tx_bundle, "hspw": hspw_tx_bundle, "pw": pw_tx_bundle}


@pytest.mark.parametrize("theta", [0.0, 0.3, -1.1])
@pytest.mark.parametrize("n_r", [1, 4, 35])
@pytest.mark.parametrize("model", ["sw", "hspw", "pw"])
def test_factored_amfs_match_explicit_composite(model, n_r, theta):
    lay = std_wsms(3, 8, 2)
    geom = SceneGeometry(r=1.5, theta=theta, big_r=20.0)
    tx = TX_BUNDLES[model](lay, geom)
    rx = rx_bundle(lay, n_r, geom)
    comp = composite_bundle(tx, rx)
    got = amfs(tx, rx)
    entries = {
        "htheta_sq": (comp.d_theta, comp.d_theta),
        "hr_sq": (comp.d_r, comp.d_r),
        "h_sq": (comp.value, comp.value),
        "htheta_h": (comp.d_theta, comp.value),
        "hr_h": (comp.d_r, comp.value),
        "htheta_hr": (comp.d_theta, comp.d_r),
    }
    for name, (u, w) in entries.items():
        # Cauchy-Schwarz bounds each entry by |u||w|: the scale of its round-off
        scale = np.linalg.norm(u) * np.linalg.norm(w)
        assert abs(getattr(got, name) - np.vdot(u, w)) <= 1e-13 * scale, name


PLANAR_LAYOUTS = {
    "wsms": lambda k, m: std_wsms(k, m, 2),
    "ua": lambda k, m: make_ua(k, m, D_HALF, d0_from_exponent(2, LAM), LAM),
    "dua": lambda k, m: make_dua(k, m, D_HALF, LAM),
}


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.5, -1.5])
@pytest.mark.parametrize("shape", [(3, 8), (1, 8), (4, 1), (12, 128)])
@pytest.mark.parametrize("kind", sorted(PLANAR_LAYOUTS))
def test_factored_planar_gram_matches_explicit_vectors(kind, shape, theta):
    # pw's transmit Gram from K- and M-length factors against the vdots of
    # the K*M vectors that pw_tx_bundle builds
    lay = PLANAR_LAYOUTS[kind](*shape)
    geom = SceneGeometry(r=1.5, theta=theta, big_r=20.0)
    tx = pw_tx_bundle(lay, geom)
    vectors = (tx.value, tx.d_theta, tx.d_r)
    gram = fisher_core._tx_grams(lay, "pw")[0](*fisher_core._targets([geom]))
    entries = dict(zip(fisher_core._TX_ENTRIES, gram))
    for i, u in enumerate(vectors):
        for j, w in enumerate(vectors):
            if (i, j) == (1, 2):
                assert (i, j) not in entries  # never read
                continue
            scale = np.linalg.norm(u) * np.linalg.norm(w)
            assert abs(complex(*entries[i, j]) - np.vdot(u, w)) <= 1e-13 * scale, (i, j)


def bits(bundle):
    return [v.view(np.uint64) for v in (bundle.value, bundle.d_theta, bundle.d_r)]


@pytest.mark.parametrize("theta", [0.0, 0.3, -1.1])
@pytest.mark.parametrize("n_r", [1, 4, 35])
@pytest.mark.parametrize("model", ["sw", "hspw", "pw"])
def test_kronecker_vectors_match_np_kron_bit_for_bit(monkeypatch, model, n_r, theta):
    lay = std_wsms(3, 8, 2)
    geom = SceneGeometry(r=1.5, theta=theta, big_r=20.0)
    rx = rx_bundle(lay, n_r, geom)
    tx = TX_BUNDLES[model](lay, geom)
    got = bits(tx) + bits(composite_bundle(tx, rx))
    monkeypatch.setattr(fisher_core, "_kron", np.kron)
    tx_kron = TX_BUNDLES[model](lay, geom)
    want = bits(tx_kron) + bits(composite_bundle(tx_kron, rx))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def word_bits(x):
    """A float or complex as its IEEE words, so that -0.0 and 0.0 differ."""
    return np.array([x]).view(np.uint64).tolist()


def gram_bits(gram, p=None):
    """A Gram's entries as IEEE words: one point's, or point p of a batch's (a float is every point's)."""
    def at(x):
        return x[p] if p is not None and isinstance(x, np.ndarray) else x

    return [word_bits(complex(at(re), at(im))) for re, im in gram]


AMF_FIELDS = ("htheta_sq", "hr_sq", "h_sq", "htheta_h", "hr_h", "htheta_hr")
NF_FIELDS = ("q11", "q12", "q22", "q11_floor", "q22_floor")


@pytest.mark.parametrize("shape", [(1, 1, 0), (2, 3, 0), (3, 8, 2), (12, 128, 3)])
@pytest.mark.parametrize("model", ["sw", "hspw", "pw"])
def test_batched_bundles_and_amfs_are_bit_identical_to_single_points(model, shape):
    # every row of one batch, and its amfs, against the one-point bundle,
    # word for word; theta = +-1.5 is near endfire
    lay = std_wsms(*shape)
    geoms = [
        SceneGeometry(r=r, theta=theta, big_r=20.0)
        for r in (0.05, 1.5, 40.0)
        for theta in (0.0, 1.5, -1.5, 0.3, -1.1)
    ]
    batch = fisher_core.tx_bundles(lay, geoms, model)
    assert len(batch) == len(geoms)
    for geom, tx in zip(geoms, batch):
        want = TX_BUNDLES[model](lay, geom)
        for g, w in zip(bits(tx), bits(want)):
            assert np.array_equal(g, w)
        for n_r in (1, 4, 35):
            rx = rx_bundle(lay, n_r, geom)
            got, ref = amfs(tx, rx), amfs(want, rx)
            for name in AMF_FIELDS:
                assert word_bits(getattr(got, name)) == word_bits(getattr(ref, name)), name
    # the transmit Grams and blocks of the bundle route, the same way
    grams = fisher_core._tx_grams(lay, model)[0]
    batch = grams(*fisher_core._targets(geoms))
    for p, geom in enumerate(geoms):
        assert gram_bits(batch, p) == gram_bits(grams(*fisher_core._targets([geom])))
    for n_r in (1, 4, 35):
        assert_columns_are_single_points(lay, geoms, n_r, model)


@pytest.mark.parametrize("points, length", [(3, 35), (21, 384), (5, 1536), (64, 128), (1, 12_288)])
def test_batched_gram_is_each_rows_vdot_bit_for_bit(points, length):
    # one np.vecdot per entry against a Python np.vdot per row, word for
    # word; a row past OpenBLAS's threading threshold is two halves, each
    # summed on one thread, and one point's 1-D rows give the same words
    rng = np.random.default_rng(points * length)
    vectors = [rng.standard_normal((points, length)) + 1j * rng.standard_normal((points, length))
               for _ in range(3)]

    def vdot(a, b):
        if length <= fisher_core._BLAS_SPLIT:
            return np.vdot(a, b)
        h = (length + 1) // 2
        return np.vdot(a[:h], b[:h]) + np.vdot(a[h:], b[h:])

    got = fisher_core._gram(fisher_core._TX_ENTRIES, vectors)
    for p in range(points):
        want = [word_bits(vdot(vectors[i][p], vectors[j][p])) for i, j in fisher_core._TX_ENTRIES]
        assert gram_bits(got, p) == want
        assert gram_bits(fisher_core._gram(fisher_core._TX_ENTRIES, [v[p] for v in vectors])) == want


@pytest.mark.parametrize("count", [7, 8, 384])  # an odd count puts an element at n = 0
@pytest.mark.parametrize("theta", [0.0, 0.3, -1.1, 1.5])
@pytest.mark.parametrize("batch", [False, True])
def test_spherical_trio_derivatives_are_the_complex_chains_bits(count, theta, batch):
    # i value times the real rates against value * (1j * k0 * ...), word for
    # word, signed zeros included, for one point's floats and (P, 1) columns
    n, k0 = fisher_core.centred_grid(count, D_HALF), 2.0 * math.pi / LAM
    geoms = [SceneGeometry(r=r, theta=theta, big_r=20.0) for r in (0.05, 1.5, 40.0)]
    for targets in ([fisher_core._targets(geoms)] if batch
                    else [fisher_core._targets([g]) for g in geoms]):
        r, sin, cos = targets
        value, d_theta, d_r = fisher_core._spherical_trio(n, r, sin, cos, k0)
        inv = 1.0 / fisher_core._element_distances(n, r, sin)
        assert np.array_equal(d_theta.view(np.uint64),
                              (value * (1j * k0 * n * r * cos * inv)).view(np.uint64))
        assert np.array_equal(d_r.view(np.uint64),
                              (value * (1j * k0 * (n * sin - r) * inv)).view(np.uint64))
        if count % 2:
            assert not d_theta[..., count // 2].any()


def assert_columns_are_single_points(lay, geoms, n_r, model):
    """Each column of the bundle route on the grid of geoms is its point alone, word for word."""
    blocks, errors = fisher_columns(GeometryGrid.of(geoms),
                                    partial(bundle_fisher, lay, n_r=n_r, model=model))
    assert blocks.shape == (5, len(geoms))
    for p, geom in enumerate(geoms):
        want = outcome(bundle_fisher, lay, geom, n_r, model=model)
        if isinstance(want, CrbEngineError):
            assert (type(errors[p]), str(errors[p])) == (type(want), str(want))
            assert np.isnan(blocks[:, p]).all()
        else:
            assert p not in errors
            assert [word_bits(v) for v in blocks[:, p].tolist()] == [
                word_bits(getattr(want, f)) for f in NF_FIELDS
            ]
    return errors


@pytest.mark.parametrize("vartheta", [0.0, 0.1])
@pytest.mark.parametrize("n_r", [1, 4])
@pytest.mark.parametrize("model", ["sw", "hspw", "pw"])
def test_grid_columns_are_each_point_alone(monkeypatch, model, n_r, vartheta):
    # batches of three points (five of pw's shorter rows) cut the sweep
    # mid-way; at theta just below pi/2 the sine rounds to 1, so a target at
    # the last element's coordinate sits on it (sw), r = 1e155 squares to
    # inf (sw and hspw): each raises alone and takes its batch with it.  At
    # r = R on broadside the target is at the receiver's centre, a column
    # that comes out NaN; a tilted receiver aperture fails every point
    lay = std_wsms(3, 4, 2)
    monkeypatch.setattr(fisher_core, "BATCH_ELEMENTS", 3 * lay.n_elements + 1)
    near = math.nextafter(math.pi / 2.0, 0.0)
    edge = float(fisher_core.element_positions(lay)[-1])
    scenes = [(0.5, 0.3), (2.0, -1.1), (edge, near), (7.0, 0.0), (1e155, 0.2), (20.0, 0.0),
              (3.0, 1.5), (40.0, -0.4), (0.05, 0.0), (11.0, 0.7), (60.0, 0.0)]
    geoms = [SceneGeometry(r=r, theta=theta, big_r=20.0, vartheta=vartheta) for r, theta in scenes]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        errors = assert_columns_are_single_points(lay, geoms, n_r, model)
    codes = {p: type(e) for p, e in errors.items()}
    if model == "sw":
        assert codes[2] is ElementCoincidence
    if model != "pw":
        assert codes[4] is SingularFisher
    if n_r > 1 and vartheta == 0.0:
        assert codes[5] is DegenerateGeometry
    if n_r > 1 and vartheta != 0.0:
        assert set(codes.values()) <= {DomainError, ElementCoincidence, SingularFisher}
        assert len(codes) == len(geoms)
    assert len(codes) < len(geoms) or n_r > 1 and vartheta != 0.0


def test_reduction_gives_floats_and_arrays_the_same_bits():
    # random Gram entries over 60 orders of magnitude, where libm's hypot
    # and pow(x, 2) part from math.hypot and x * x; one point's floats and
    # the arrays of all of them go through the same lines
    rng = np.random.default_rng(7)
    size = 4000

    def entries():
        parts = rng.standard_normal((8, 2, size)) * np.exp(rng.uniform(-30.0, 30.0, (8, 2, size)))
        parts[0, 0], parts[0, 1] = abs(parts[0, 0]), 0.0  # the value's norm: h_sq > 0
        return [tuple(pair) for pair in parts]

    t, r = entries(), entries()
    t[4][0][:3] = (math.inf, math.nan, 1.0)  # t11 not finite: SingularFisher alone
    t[0][0][3], t[0][1][3] = 0.0, 0.0  # h_sq = 0: DomainError alone
    with np.errstate(all="ignore"):
        products = fisher_core._inner_products(t, r)
        grid = fisher_core._schur(*products)
    columns = np.array([getattr(grid, f) for f in NF_FIELDS])
    raised = {}
    for p in range(size):
        def at(gram):
            return [(float(re[p]), float(im[p])) for re, im in gram]

        alone = outcome(lambda: fisher_core._schur(*fisher_core._inner_products(at(t), at(r))))
        if isinstance(alone, CrbEngineError):
            raised[p] = type(alone)
            assert not np.isfinite(columns[:, p]).all(), p
        else:
            assert [word_bits(v) for v in columns[:, p].tolist()] == [
                word_bits(getattr(alone, f)) for f in NF_FIELDS
            ], p
    assert raised == {0: SingularFisher, 1: SingularFisher, 3: DomainError}
    # the entries reach both traps
    re, im = products[3]
    hyp = np.hypot(re, im)
    assert any(math.hypot(x, y) != h for x, y, h in zip(re.tolist(), im.tolist(), hyp.tolist()))
    squares = [h ** 2 for h in hyp.tolist() if h < 1e150]
    assert any(sq != h * h for sq, h in zip(squares, [h for h in hyp.tolist() if h < 1e150]))


def test_a_transmit_batch_raises_what_a_point_raises():
    # K=1, M=2: at theta just below pi/2 the sine rounds to 1, so the
    # target at r = d/2 sits on an element; r = 1e155 squares to inf
    lay = std_wsms(1, 2, 0)
    theta = math.nextafter(math.pi / 2.0, 0.0)
    on_element, far = (SceneGeometry(r=r, theta=theta, big_r=20.0) for r in (lay.d / 2.0, 1e155))
    fine = SceneGeometry(r=1e3, theta=theta, big_r=20.0)
    for geoms, error in (([fine, on_element], ElementCoincidence), ([on_element, far, fine], SingularFisher)):
        with pytest.raises(error):
            sw_tx_bundle(lay, geoms[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(error):
                fisher_core.tx_bundles(lay, geoms, "sw")
    geoms = [SceneGeometry(r=r, theta=0.2, big_r=20.0) for r in (1.0, 2.0)]
    with pytest.raises(InvalidLayout):
        fisher_core.tx_bundles(make_dua(2, 3, 0.0015, 0.003), geoms, "hspw")
    with pytest.raises(DomainError):
        fisher_core.tx_bundles(std_wsms(2, 3, 1), geoms, "nope")


@pytest.mark.parametrize("model", ["sw", "hspw", "pw"])
def test_empty_batch_gives_no_bundles(model):
    lay = std_wsms(2, 3, 0)
    assert fisher_core.tx_bundles(lay, [], model) == []
    empty = GeometryGrid(np.empty(0), np.empty(0), 20.0, 0.0, 0)
    blocks, errors = fisher_columns(empty, partial(bundle_fisher, lay, n_r=4, model=model))
    assert blocks.shape == (5, 0) and errors == {}


@pytest.mark.parametrize("model", ["sw", "hspw", "pw"])
def test_bundle_fisher_allocates_no_composite_vector(model):
    # one composite vector at K=48, M=256, N_r=256 holds 3.1 M complex
    # entries (50 MB); the per-side bundles need well under 1 MB each
    lay = std_wsms(48, 256, 3)
    geom = SceneGeometry(r=10.0, theta=0.3, big_r=50.0)
    tracemalloc.start()
    try:
        bundle_fisher(lay, geom, 256, model=model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("vartheta", [0.0, 0.1])
@pytest.mark.parametrize("model", ["sw", "hspw", "pw"])
def test_bundle_fisher_grid_releases_each_batch(model, vartheta):
    # K=12, M=128: a batch holds 5 points (58 of pw's, whose rows hold the
    # K + M factor entries), so 4 * step points are four batches; a batch
    # still alive when the next is built would raise the peak.  A tilted
    # receiver makes every point a receive-side error.
    lay = std_wsms(12, 128, 3)
    step = fisher_core.BATCH_ELEMENTS // fisher_core._tx_grams(lay, model)[1]
    geoms = [SceneGeometry(r=2.0 + 0.5 * p, theta=0.4, big_r=50.0, vartheta=vartheta)
             for p in range(4 * step)]

    def peak(points):
        tracemalloc.start()
        try:
            fisher_columns(GeometryGrid.of(points), partial(bundle_fisher, lay, n_r=4, model=model))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(geoms[:step])
    assert peak(geoms) <= 1.1 * peak(geoms[:step])


# ---------------------------------------------------------------------------
# normalized Fisher block and bounds
# ---------------------------------------------------------------------------

def test_fisher_block_frozen_strong_curvature():
    # reference values from an independent finite-difference Fisher matrix
    # built from raw element coordinates (Richardson extrapolated, then the
    # gain block eliminated numerically); q22 carries the worst cancellation
    # and is only certified to ~1e-9
    lay = std_wsms(2, 3, 2)
    nf = bundle_fisher(lay, STRONG, 2, model="sw")
    assert rel(nf.q11, 80.22273802542975) < 1e-13
    assert rel(nf.q12, 13.348995680777875) < 1e-11
    assert rel(nf.q22, 39.52235655579716) < 1e-9

    res = bundle_crb(lay, STRONG, 2, model="sw")
    assert rel(res.crb_theta, 0.0005503164931245901) < 1e-10
    assert rel(res.crb_r, 0.001117036019769716) < 1e-9
    assert math.isclose(res.root_crb_theta, math.sqrt(res.crb_theta), rel_tol=1e-15)
    assert math.isclose(res.root_crb_r, math.sqrt(res.crb_r), rel_tol=1e-15)


def test_crb_matches_explicit_two_by_two_inverse():
    rng = seeded("crb-inverse")
    for _ in range(50):
        q11 = rng.uniform(0.1, 100.0)
        q22 = rng.uniform(0.1, 100.0)
        q12 = rng.uniform(-0.9, 0.9) * math.sqrt(q11 * q22)
        beta_sq = rng.uniform(0.5, 50.0)
        sigma = rng.uniform(0.1, 10.0)
        nf = NormalizedFisher(q11=q11, q12=q12, q22=q22)
        got = crb(nf, beta_sq, sigma)
        inv = np.linalg.inv(2.0 * beta_sq / sigma * np.array([[q11, q12], [q12, q22]]))
        assert math.isclose(got.crb_theta, inv[0, 0], rel_tol=1e-10)
        assert math.isclose(got.crb_r, inv[1, 1], rel_tol=1e-10)


def assert_crb_columns_match_points(blocks):
    """crb and crb_theta_only on the blocks stacked as (5, P) columns.

    Each column is its point's bounds, word for word, or NaN where the
    point's call raises.  The gain and noise make sigma^2 / (2 beta^2)
    inexact, so the order of the products shows in the bits.
    """
    columns = NormalizedFisher(*np.array([[getattr(nf, f) for f in NF_FIELDS] for nf in blocks]).T)
    got = crb(columns, 3.0, 0.7)
    theta_only = crb_theta_only(columns, 3.0, 0.7)
    for p, nf in enumerate(blocks):
        want = outcome(crb, nf, 3.0, 0.7)
        cols = (got.crb_theta[p], got.crb_r[p])
        if isinstance(want, SingularFisher):
            assert np.isnan(cols).all(), p
        else:
            assert word_bits(cols) == word_bits((want.crb_theta, want.crb_r)), p
        want = outcome(crb_theta_only, nf, 3.0, 0.7)
        if isinstance(want, (DomainError, SingularFisher)):
            assert np.isnan(theta_only[p]), p
        else:
            assert word_bits(theta_only[p]) == word_bits(want), p


def test_crb_validation_and_floors():
    nf = NormalizedFisher(q11=5.0, q12=0.1, q22=2.0)
    with pytest.raises(DomainError):
        crb(nf, 0.0, 1.0)
    with pytest.raises(DomainError):
        crb(nf, 1.0, -1.0)
    singular = NormalizedFisher(q11=5.0, q12=0.0, q22=0.0)
    with pytest.raises(SingularFisher, match="range information"):
        crb(singular, 1.0, 1.0)
    coupled = NormalizedFisher(q11=5.0, q12=3.2, q22=2.048)
    with pytest.raises(SingularFisher, match="block is singular"):
        crb(coupled, 1.0, 1.0)

    # information at or below the stated round-off floor must not be
    # inverted into a bound, however large the determinant looks
    noisy = NormalizedFisher(q11=5.0, q12=0.0, q22=1e-9, q22_floor=2e-9)
    with pytest.raises(SingularFisher, match="range information"):
        crb(noisy, 1.0, 1.0)
    ok = NormalizedFisher(q11=5.0, q12=0.0, q22=1e-9, q22_floor=5e-10)
    assert crb(ok, 1.0, 1.0).crb_r > 0.0
    # the tests run in the order q11, q22, det: this block and ``noisy`` fail
    # the det test too, and each raises for its diagonal entry
    floored = NormalizedFisher(q11=1e-9, q12=0.0, q22=5.0, q11_floor=2e-9)
    with pytest.raises(SingularFisher, match="theta information"):
        crb(floored, 1.0, 1.0)
    # a negative-definite block passes the det test, but not q11's
    negative = NormalizedFisher(q11=-5.0, q12=0.1, q22=-2.0)
    with pytest.raises(SingularFisher, match="theta information"):
        crb(negative, 1.0, 1.0)
    # a grid's columns get each point's bounds, and NaN where it raises
    assert_crb_columns_match_points([nf, singular, coupled, noisy, ok, floored, negative])
    with pytest.raises(DomainError):
        crb(NormalizedFisher(*np.ones((5, 2))), 0.0, 1.0)


def test_determinant_floor_rests_on_the_diagonal_floors():
    # det = 4 - q12^2 = 5e-6 is positive, but errors of the floors' size in
    # the entries move det by up to about 9e-6
    q12 = math.sqrt(4.0 - 5e-6)
    assert det_floor(4.0, q12, 1.0, 1e-6, 1e-6) > NormalizedFisher(4.0, q12, 1.0).det
    floored = NormalizedFisher(q11=4.0, q12=q12, q22=1.0, q11_floor=1e-6, q22_floor=1e-6)
    with pytest.raises(SingularFisher, match="block is singular"):
        crb(floored, 1.0, 1.0)
    # zero floors leave a plain sign check
    plain = NormalizedFisher(q11=4.0, q12=q12, q22=1.0)
    assert crb(plain, 1.0, 1.0).crb_r > 0.0
    # the rule reads alike on a grid's arrays
    q = np.array([4.0, 4.0])
    assert det_floor(q, np.array([q12, 0.0]), q / 4.0, 1e-6, 1e-6).tolist() == [
        det_floor(4.0, q12, 1.0, 1e-6, 1e-6), det_floor(4.0, 0.0, 1.0, 1e-6, 1e-6)]
    decoupled = NormalizedFisher(q11=4.0, q12=0.0, q22=1.0, q11_floor=1e-6, q22_floor=1e-6)
    q11, q12, q22 = np.random.default_rng(7).uniform(0.5, 2.0, (3, 20))
    drawn = [NormalizedFisher(*entries, 1e-6, 1e-6) for entries in zip(q11, q12, q22)]
    assert_crb_columns_match_points([floored, plain, decoupled, *drawn])


def test_crb_theta_only_scalar_inverse():
    nf = NormalizedFisher(q11=8.0, q12=0.0, q22=0.0)
    assert math.isclose(crb_theta_only(nf, 2.0, 0.5), 0.5 / (2.0 * 2.0 * 8.0), rel_tol=1e-15)
    coupled = NormalizedFisher(q11=8.0, q12=0.1, q22=3.0)
    with pytest.raises(DomainError):
        crb_theta_only(coupled, 1.0, 1.0)
    floored = NormalizedFisher(q11=1e-12, q12=0.0, q22=0.0, q11_floor=1e-10)
    with pytest.raises(SingularFisher):
        crb_theta_only(floored, 1.0, 1.0)
    # round-off residue relative to q11 is tolerated
    residue = NormalizedFisher(q11=8.0, q12=8e-13, q22=0.0)
    assert crb_theta_only(residue, 1.0, 1.0) > 0.0
    # a grid's columns get each point's bound, and NaN where it raises; a
    # gain that is not positive raises for the whole grid, as for a point
    assert_crb_columns_match_points([nf, coupled, floored, residue])
    with pytest.raises(DomainError):
        crb_theta_only(NormalizedFisher(*np.ones((5, 2))), 0.0, 1.0)
    with pytest.raises(DomainError):
        crb_theta_only(nf, 0.0, 1.0)


def test_nan_block_is_singular():
    # an overflowed assembly yields NaN entries; no comparison may let them
    # through as a bound
    nan = float("nan")
    with pytest.raises(SingularFisher):
        crb(NormalizedFisher(q11=nan, q12=nan, q22=nan), 1.0, 1.0)
    with pytest.raises(SingularFisher):
        crb(NormalizedFisher(q11=5.0, q12=0.0, q22=nan), 1.0, 1.0)
    with pytest.raises(SingularFisher):
        crb_theta_only(NormalizedFisher(q11=nan, q12=0.0, q22=nan), 1.0, 1.0)
    # a NaN q12 is not found coupled (abs(nan) > ... is false), so the angle
    # bound stands, on a grid's columns as for a point
    assert crb_theta_only(NormalizedFisher(q11=5.0, q12=nan, q22=0.0), 1.0, 1.0) > 0.0
    assert_crb_columns_match_points([
        NormalizedFisher(q11=nan, q12=nan, q22=nan), NormalizedFisher(q11=5.0, q12=0.0, q22=nan),
        NormalizedFisher(q11=nan, q12=0.0, q22=nan), NormalizedFisher(q11=5.0, q12=nan, q22=0.0),
    ])


def test_received_gain_sq():
    assert received_gain_sq(1.0 + 0.0j, 2, 6) == 12.0
    assert math.isclose(received_gain_sq(0.5 - 0.5j, 3, 4), 0.5 * 12.0, rel_tol=1e-15)


def test_planar_model_keeps_angle_loses_range():
    # with a single receive element the planar block has no range row at
    # all: the pair bound must refuse, the angle-only bound must work
    lay = std_wsms(3, 8, 3)
    geom = SceneGeometry(r=10.0, theta=0.3, big_r=50.0)
    nf = bundle_fisher(lay, geom, 1, model="pw")
    assert nf.q22 <= nf.q22_floor
    with pytest.raises(SingularFisher):
        crb(nf, 24.0, 1.0)
    bound = crb_theta_only(nf, 24.0, 1.0)
    assert bound > 0.0
    # the planar angle information must converge to the spherical one as
    # the range grows (quadratically: 5x the range, ~25x smaller gap)
    def q11_gap(r):
        g = SceneGeometry(r=r, theta=0.3, big_r=2.0 * r)
        return rel(bundle_fisher(lay, g, 1, model="pw").q11,
                   bundle_fisher(lay, g, 1, model="sw").q11)

    assert q11_gap(50.0) < 1e-6
    assert q11_gap(2.0) > 100.0 * q11_gap(50.0)


def test_hybrid_model_singular_for_flat_centre_geometry():
    # one subarray centre (K = 1): the centre sum carries no curvature, so
    # the hybrid block is range-blind regardless of angle
    lay1 = std_wsms(1, 16, 0)
    geom = SceneGeometry(r=5.0, theta=0.2, big_r=50.0)
    nf = bundle_fisher(lay1, geom, 1, model="hspw")
    with pytest.raises(SingularFisher):
        crb(nf, 16.0, 1.0)
    # two centres on broadside: the even range summand is constant across
    # the pair, again zero variance
    lay2 = std_wsms(2, 8, 3)
    nf2 = bundle_fisher(lay2, SceneGeometry(r=5.0, theta=0.0, big_r=50.0), 1, model="hspw")
    with pytest.raises(SingularFisher):
        crb(nf2, 16.0, 1.0)
    assert crb_theta_only(nf2, 16.0, 1.0) > 0.0
    # off broadside the two-centre hybrid block regains range information
    nf3 = bundle_fisher(lay2, SceneGeometry(r=0.5, theta=0.3, big_r=50.0), 1, model="hspw")
    assert crb(nf3, 16.0, 1.0).crb_r > 0.0


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def test_oracle_agrees_with_schur_route():
    rng = seeded("oracle-vs-schur")
    for model, k_min in (("sw", 1), ("hspw", 3)):
        for _ in range(3):
            lay = std_wsms(rng.randint(k_min, 4), rng.randint(2, 12), rng.randint(0, 3))
            geom = SceneGeometry(
                r=rng.uniform(0.05, 0.5),
                theta=rng.uniform(0.1, 1.0),
                big_r=rng.uniform(1.0, 10.0),
            )
            n_r = rng.randint(1, 6)
            res = full_fisher_oracle(lay, geom, n_r, model=model)
            ref = bundle_crb(lay, geom, n_r, model=model)
            assert rel(res.crb_theta, ref.crb_theta) < 1e-5, model
            assert rel(res.crb_r, ref.crb_r) < 1e-5, model
            assert abs(res.alpha_cross) < 1e-12
            assert res.inversion_residual < 1e-6


def test_oracle_training_map_is_transparent():
    lay = std_wsms(2, 4, 2)
    geom = SceneGeometry(r=0.1, theta=0.35, big_r=2.0)
    implicit = full_fisher_oracle(lay, geom, 2, model="sw", training="implicit")
    dft = full_fisher_oracle(lay, geom, 2, model="sw", training="dft")
    assert rel(dft.crb_theta, implicit.crb_theta) < 1e-9
    assert rel(dft.crb_r, implicit.crb_r) < 1e-9


def test_oracle_training_map_builds_no_square_matrix():
    # N_t = 2,048: a dense N_t x N_t DFT matrix alone would take 67 MB
    lay = std_wsms(16, 128, 3)
    geom = SceneGeometry(r=10.0, theta=0.3, big_r=50.0)
    implicit = full_fisher_oracle(lay, geom, 1, model="sw", training="implicit")
    tracemalloc.start()
    try:
        dft = full_fisher_oracle(lay, geom, 1, model="sw", training="dft")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert rel(dft.crb_theta, implicit.crb_theta) < 1e-9
    assert rel(dft.crb_r, implicit.crb_r) < 1e-9


def test_oracle_validation():
    lay = std_wsms(2, 4, 2)
    geom = SceneGeometry(r=0.1, theta=0.35, big_r=2.0)
    with pytest.raises(DomainError):
        full_fisher_oracle(lay, geom, 2, model="nope")
    with pytest.raises(DomainError):
        full_fisher_oracle(lay, geom, 2, training="hadamard")


def test_oracle_at_a_huge_range_raises_without_a_warning(monkeypatch):
    # the range information is ~(aperture/r)^4, far below the gain terms: the
    # inversion fails its residual check, and its covariance would overflow
    lay = std_wsms(3, 128, 3)
    geom = SceneGeometry(r=1e150, theta=0.3, big_r=50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(IllConditioned):
            full_fisher_oracle(lay, geom, 1, model="hspw")
        # past the residual check, an overflowing covariance is singular, not an inf bound
        monkeypatch.setattr(fisher_core, "ORACLE_RESIDUAL_TOL", math.inf)
        with pytest.raises(SingularFisher, match="covariance overflows"):
            full_fisher_oracle(lay, geom, 1, model="hspw")


def _order_verdict(check, layout):
    try:
        check(layout)
    except ElementCoincidence:
        return "element_coincidence"
    return "ok"


def _order_scenes():
    """Layouts around the wide-gap edge, where c_k + t_m starts to lose t_m, and random ones."""
    for i in (40, 52, 53, 54, 55, 56, 60, 100, 300, 600):
        for k, m in ((1, 2), (2, 1), (2, 2), (3, 3), (48, 256)):
            yield make_wsms(k, m, D_HALF, d0_from_exponent(i, LAM), LAM)
    for i in range(516, 601, 21):  # uniform mirrors spaced near 1e152 m and beyond
        yield make_ua(2, 2, D_HALF, d0_from_exponent(i, LAM), LAM)
    for d0 in (0.0, -D_HALF):  # subarrays that touch or overlap, past the layout checks
        yield ArrayLayout("wsms", 3, 4, D_HALF, d0, LAM)
    rng = seeded("element order")
    for _ in range(400):
        k, m = rng.randint(1, 64), rng.choice((1, 2, 3, 16, 128, 256))
        d = D_HALF * 2.0 ** rng.uniform(-20.0, 20.0)
        d0 = d0_from_exponent(rng.randint(0, 600), LAM)
        kind = rng.choice(("wsms", "ua", "dua"))
        if kind == "dua":
            yield make_dua(k, m, d, LAM)
        elif kind == "ua" and k * m > 1:
            yield make_ua(k, m, d, max(d, d0), LAM)
        else:
            yield make_wsms(k, m, d, max(d, d0), LAM)


def test_planar_order_check_gives_the_positions_verdict(monkeypatch):
    fallbacks = []
    monkeypatch.setattr(fisher_core, "element_positions",
                        lambda layout: fallbacks.append(layout) or element_positions(layout))
    verdicts = []
    for layout in _order_scenes():
        verdict = _order_verdict(element_positions, layout)
        assert _order_verdict(fisher_core._pw_tx_grams, layout) == verdict, layout
        verdicts.append(verdict)
    # both verdicts occur, and the full check ran on some layouts (ordered
    # ones among them), not on most
    assert {"ok", "element_coincidence"} <= set(verdicts)
    assert 0 < len(fallbacks) < len(verdicts) // 2
    assert any(_order_verdict(element_positions, layout) == "ok" for layout in fallbacks)
