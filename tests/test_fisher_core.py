"""Steering bundles, Schur-complement bounds, and the finite-difference oracle."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import separate_bundles as separate
from conftest import seeded, std_wsms
from nearfield_crb import (
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
    fisher_core,
    full_fisher_oracle,
    make_dua,
    received_gain_sq,
)
from nearfield_crb.fisher_core import (
    NormalizedFisher,
    amfs,
    composite_bundle,
    hspw_tx_bundle,
    normalized_fisher,
    pw_tx_bundle,
    rx_bundle,
    sw_tx_bundle,
)

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


AMF_FIELDS = ("htheta_sq", "hr_sq", "h_sq", "htheta_h", "hr_h", "htheta_hr")


@pytest.mark.parametrize("shape", [(1, 1, 0), (2, 3, 0), (3, 8, 2), (12, 128, 3)])
@pytest.mark.parametrize("model", ["sw", "hspw", "pw"])
def test_batched_bundles_and_amfs_are_bit_identical_to_single_points(model, shape):
    # every row of one batch against the single-point formulas of
    # separate_bundles, word for word; theta = +-1.5 is near endfire
    lay = std_wsms(*shape)
    geoms = [
        SceneGeometry(r=r, theta=theta, big_r=20.0)
        for r in (0.05, 1.5, 40.0)
        for theta in (0.0, 1.5, -1.5, 0.3, -1.1)
    ]
    batch = fisher_core.tx_bundles(lay, geoms, model)
    assert len(batch) == len(geoms)
    for geom, tx in zip(geoms, batch):
        want = separate.TX_BUNDLES[model](lay, geom)
        single = TX_BUNDLES[model](lay, geom)
        for g, s, w in zip(bits(tx), bits(single), bits(want)):
            assert np.array_equal(g, w) and np.array_equal(s, w)
        assert tx.model == single.model == want.model
        for n_r in (1, 4, 35):
            rx = rx_bundle(lay, n_r, geom)
            got, ref = amfs(tx, rx), separate.amfs(want, rx)
            for name in AMF_FIELDS:
                assert word_bits(getattr(got, name)) == word_bits(getattr(ref, name)), name


def test_batched_bundles_give_each_point_its_own_error():
    # K=1, M=2: at theta just below pi/2 the sine rounds to 1, so the
    # target at r = d/2 sits on an element; r = 1e155 squares to inf
    lay = std_wsms(1, 2, 0)
    theta = math.nextafter(math.pi / 2.0, 0.0)
    rs = (lay.d / 4.0, lay.d / 2.0, 1e155, lay.d, 1e3)
    geoms = [SceneGeometry(r=r, theta=theta, big_r=20.0) for r in rs]
    for model, codes in (
        ("sw", (None, ElementCoincidence, SingularFisher, None, None)),
        ("hspw", (None, None, SingularFisher, None, None)),
        ("pw", (None,) * 5),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batch = fisher_core.tx_bundles(lay, geoms, model)
        for geom, tx, code in zip(geoms, batch, codes):
            if code is not None:
                assert type(tx) is code
                with pytest.raises(code):
                    separate.TX_BUNDLES[model](lay, geom)
            else:
                want = separate.TX_BUNDLES[model](lay, geom)
                for g, w in zip(bits(tx), bits(want)):
                    assert np.array_equal(g, w)


@pytest.mark.parametrize("model", ["sw", "hspw", "pw"])
def test_empty_batch_gives_no_bundles(model):
    lay = std_wsms(2, 3, 0)
    assert fisher_core.tx_bundles(lay, [], model) == []
    assert fisher_core.bundle_fishers(lay, [], 4, model=model) == []


def test_batched_bundles_give_every_point_a_layout_error():
    geoms = [SceneGeometry(r=r, theta=0.2, big_r=20.0) for r in (1.0, 2.0)]
    dense = make_dua(2, 3, 0.0015, 0.003)
    assert [type(tx) for tx in fisher_core.tx_bundles(dense, geoms, "hspw")] == [InvalidLayout] * 2
    lay = std_wsms(2, 3, 1)
    assert [type(tx) for tx in fisher_core.tx_bundles(lay, geoms, "nope")] == [DomainError] * 2


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
def test_bundle_fishers_releases_each_batch(model, vartheta):
    # K=12, M=128: a batch holds 10 points, so 40 points are four batches;
    # a batch still alive when the next is built would raise the peak.  A
    # tilted receiver makes every point a receive-side error.
    lay = std_wsms(12, 128, 3)
    step = fisher_core.BATCH_ELEMENTS // lay.n_elements
    geoms = [SceneGeometry(r=2.0 + 0.5 * p, theta=0.4, big_r=50.0, vartheta=vartheta)
             for p in range(4 * step)]

    def peak(points):
        tracemalloc.start()
        try:
            fisher_core.bundle_fishers(lay, points, 4, model=model)
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


def test_crb_validation_and_floors():
    nf = NormalizedFisher(q11=5.0, q12=0.1, q22=2.0)
    with pytest.raises(DomainError):
        crb(nf, 0.0, 1.0)
    with pytest.raises(DomainError):
        crb(nf, 1.0, -1.0)
    with pytest.raises(SingularFisher):
        crb(NormalizedFisher(q11=5.0, q12=0.0, q22=0.0), 1.0, 1.0)
    with pytest.raises(SingularFisher):
        crb(NormalizedFisher(q11=5.0, q12=3.2, q22=2.048), 1.0, 1.0)

    # information at or below the stated round-off floor must not be
    # inverted into a bound, however large the determinant looks
    noisy = NormalizedFisher(q11=5.0, q12=0.0, q22=1e-9, q22_floor=2e-9)
    with pytest.raises(SingularFisher):
        crb(noisy, 1.0, 1.0)
    ok = NormalizedFisher(q11=5.0, q12=0.0, q22=1e-9, q22_floor=5e-10)
    assert crb(ok, 1.0, 1.0).crb_r > 0.0
    with pytest.raises(SingularFisher):
        crb(NormalizedFisher(q11=1e-9, q12=0.0, q22=5.0, q11_floor=2e-9), 1.0, 1.0)


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
