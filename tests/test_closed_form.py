"""Sum formulas: brute-force loops, quadrature values, and identities.

The antiderivative certificates (finite differences and ``quad``) are A8's,
in test_acceptance.py; the midpoint error's decay over K is ``validate``'s
``closed_sums_convergence``, run case by case in test_cli.py.  The one-pass
evaluators on arrays and grids are held to each formula's own float at
every point, bit for bit; the exact blocks' values are test_truth.py's.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    D_HALF,
    brute_sums,
    layout_shapes,
    seeded,
    std_wsms,
    target_ranges,
)
from nearfield_crb import (
    DomainError,
    SceneGeometry,
    SingularityNearPi2,
    element_positions,
    psi_from_x,
    subarray_centers,
)
from nearfield_crb import closed_form
from nearfield_crb.geometry import GeometryGrid
from nearfield_crb.closed_form import (
    THETA_RIEMANN_CAP,
    f_artanh_shift,
    f_x_over_sqrt_nu1,
    g_r,
    g_theta,
    g_theta2,
    g_theta2_psi0,
    g_thetar,
    hspw_sums_closed,
    hspw_sums_direct,
    hspw_theta0_sums,
    riemann_bounds,
    sw_sums_direct,
    sw_sums_riemann,
    sw_theta0_sums,
)

GEOM = SceneGeometry(r=4.0, theta=0.35, big_r=50.0)


def unpack(sums):
    return (sums.s_theta2, sums.s_theta, sums.s_r, sums.s_r2, sums.s_thetar)


# ---------------------------------------------------------------------------
# exact (direct) sums
# ---------------------------------------------------------------------------

def test_direct_sums_frozen():
    # brute python loop over the six elements of a (K=2, M=3, I=2) layout
    lay = std_wsms(2, 3, 2)
    got = sw_sums_direct(lay, SceneGeometry(r=5.0, theta=0.4, big_r=50.0))
    expected = (
        5.212777793115537e-06,
        2.029949671477054e-06,
        -5.999997788860722,
        5.999995577722472,
        -2.0299468454821907e-06,
    )
    for g, e in zip(unpack(got), expected):
        assert math.isclose(g, e, rel_tol=1e-11)
    assert got.n == 6


@given(shape=layout_shapes)
@settings(deadline=None)
def test_direct_sums_match_brute_loop(shape):
    k, m, i = shape
    lay = std_wsms(k, m, i)
    rng = seeded(("brute", shape))
    r = rng.uniform(0.5, 60.0)
    theta = rng.uniform(-1.3, 1.3)
    geom = SceneGeometry(r=r, theta=theta, big_r=50.0)

    got = sw_sums_direct(lay, geom)
    expected = brute_sums(element_positions(lay), r, theta)
    for g, e in zip(unpack(got), expected):
        assert math.isclose(g, e, rel_tol=1e-9, abs_tol=1e-12)

    got_h = hspw_sums_direct(lay, geom)
    expected_h = brute_sums(subarray_centers(lay), r, theta)
    for g, e in zip(unpack(got_h), expected_h):
        assert math.isclose(g, e, rel_tol=1e-9, abs_tol=1e-12)
    assert got.n == k * m and got_h.n == k


def fsum_loop(positions, r, theta):
    """The five sums one element at a time, each term list summed by fsum."""
    s = math.sin(theta)
    terms = ([], [], [], [], [])
    for x in (positions / r).tolist():
        v = 1.0 - 2.0 * x * s + x * x
        q = math.sqrt(v)
        u = x * s - 1.0
        for acc, term in zip(terms, (x * x / v, x / q, u / q, u * u / v, x * u / v)):
            acc.append(term)
    return tuple(math.fsum(t) for t in terms)


@given(
    shape=layout_shapes,
    r=target_ranges,
    theta=st.one_of(st.just(0.0), st.floats(min_value=-1.55, max_value=1.55)),
)
@example(shape=(6, 24, 8), r=0.5, theta=0.0)
@settings(deadline=None)
def test_direct_sums_are_bit_identical_to_scalar_fsum(shape, r, theta):
    # fsum rounds exactly, so the vectorised terms must give the very same
    # bits as the per-element loop, not merely close values
    lay = std_wsms(*shape)
    geom = SceneGeometry(r=r, theta=theta, big_r=50.0)
    for direct, positions in (
        (sw_sums_direct, element_positions(lay)),
        (hspw_sums_direct, subarray_centers(lay)),
    ):
        got = direct(lay, geom)
        assert unpack(got) == fsum_loop(positions, r, theta)
        assert got.n == positions.size
        if theta == 0.0:
            assert got.s_theta == got.s_thetar == 0.0


def test_direct_sums_overflow_silently_like_the_scalar_loop():
    # subarray centres near 3e177 m: x * x overflows, and the scalar loop's
    # inf / inf terms give NaN sums without a warning (warnings are errors
    # under the test settings)
    lay = std_wsms(2, 4, 600)
    got = hspw_sums_direct(lay, GEOM)
    assert repr(unpack(got)) == repr(fsum_loop(subarray_centers(lay), GEOM.r, GEOM.theta))
    assert math.isnan(got.s_theta2)


def test_direct_sums_name_the_first_element_where_nu1_vanishes():
    # K=1, M=2 puts the elements at x = -1 and x = 1 when r = d/2; just
    # below pi/2 the sine rounds to 1.0, so nu1(1) = 1 - 2 + 1 = 0 exactly
    lay = std_wsms(1, 2, 0)
    theta = math.nextafter(math.pi / 2.0, 0.0)
    assert math.sin(theta) == 1.0
    geom = SceneGeometry(r=D_HALF / 2.0, theta=theta, big_r=50.0)
    with pytest.raises(DomainError) as info:
        sw_sums_direct(lay, geom)
    assert str(info.value) == "nu1 <= 0 at x = 1.0, theta = 1.5707963267948963"


@given(shape=layout_shapes)
@settings(deadline=None)
def test_range_sum_identity(shape):
    # s_r2 + cos^2(theta) * s_theta2 telescopes to the term count exactly
    k, m, i = shape
    lay = std_wsms(k, m, i)
    rng = seeded(("identity", shape))
    geom = SceneGeometry(r=rng.uniform(0.5, 60.0), theta=rng.uniform(-1.3, 1.3), big_r=50.0)
    c2 = math.cos(geom.theta) ** 2
    sums = sw_sums_direct(lay, geom)
    assert math.isclose(sums.s_r2, sums.n - c2 * sums.s_theta2, rel_tol=1e-12)
    sums_h = hspw_sums_direct(lay, geom)
    assert math.isclose(sums_h.s_r2, sums_h.n - c2 * sums_h.s_theta2, rel_tol=1e-12)


def test_broadside_odd_sums_vanish_exactly():
    rng = seeded("broadside-zeros")
    for _ in range(20):
        lay = std_wsms(rng.randint(1, 6), rng.randint(1, 24), rng.randint(0, 8))
        geom = SceneGeometry(r=rng.uniform(0.5, 60.0), theta=0.0, big_r=50.0)
        for sums in (sw_sums_direct(lay, geom), hspw_sums_direct(lay, geom),
                     sw_sums_riemann(lay, geom), hspw_sums_closed(lay, geom)):
            assert sums.s_theta == 0.0
            assert sums.s_thetar == 0.0


# ---------------------------------------------------------------------------
# midpoint-sum closed forms against adaptive quadrature
# ---------------------------------------------------------------------------

def test_sw_riemann_matches_double_quadrature():
    # frozen scipy.integrate.dblquad values (epsabs = epsrel = 1e-13) of the
    # five integrands over the subarray and centre extents, divided by the
    # cell area; with spans comparable to the range the four-point form
    # agrees to ~1e-13 relative
    lay = std_wsms(3, 4, 6)
    got = sw_sums_riemann(lay, SceneGeometry(r=0.35, theta=0.35, big_r=50.0))
    expected = (
        0.6966325715340517,
        0.22343187033449508,
        -11.68493002401815,
        11.385276724360113,
        -0.19242149461485758,
    )
    for g, e in zip(unpack(got), expected):
        assert math.isclose(g, e, rel_tol=1e-11)


def test_sw_riemann_far_field_cancellation_floor():
    # same certificate in a far-field case (spans much smaller than the
    # range): the tiny angle sums emerge from a ~1e9-fold cancellation in
    # the four-point combination, so they only carry ~1e-6 relative float
    # accuracy; the range sums stay tight
    lay = std_wsms(3, 4, 3)
    got = sw_sums_riemann(lay, GEOM)
    angle_expected = (
        ("s_theta2", 0.0001551737492272866),
        ("s_theta", 5.320788479122165e-05),
        ("s_thetar", -5.3206214323812514e-05),
    )
    for name, e in angle_expected:
        assert math.isclose(getattr(got, name), e, rel_tol=1e-5)
    assert math.isclose(got.s_r, -11.999931535347002, rel_tol=1e-9)
    assert math.isclose(got.s_r2, 11.999863071410502, rel_tol=1e-9)


def test_hspw_closed_matches_single_quadrature():
    # frozen scipy.integrate.quad values (epsabs = epsrel = 1e-14) of the
    # centre-level integrands over the centre extent, divided by the step
    lay = std_wsms(3, 4, 6)
    got = hspw_sums_closed(lay, SceneGeometry(r=0.35, theta=0.35, big_r=50.0))
    expected = (
        0.1740994664993,
        0.055841859929985735,
        -2.9212607651334794,
        2.8463709583691563,
        -0.048097511883584076,
    )
    for g, e in zip(unpack(got), expected):
        assert math.isclose(g, e, rel_tol=1e-12)


def test_riemann_bounds_structure():
    lay = std_wsms(3, 4, 2)
    b = riemann_bounds(lay, 2.0)
    assert b.x4 == -b.x1
    assert b.x3 == -b.x2
    assert b.x1 < b.x2 <= b.x3 < b.x4
    assert math.isclose(b.x4, (3 * lay.big_d + 4 * lay.d) / (2 * 2.0), rel_tol=1e-15)
    with pytest.raises(DomainError):
        riemann_bounds(lay, 0.0)


def test_riemann_theta_cap():
    lay = std_wsms(3, 4, 2)
    ok = SceneGeometry(r=4.0, theta=THETA_RIEMANN_CAP, big_r=50.0)
    sw_sums_riemann(lay, ok)
    with pytest.raises(SingularityNearPi2):
        sw_sums_riemann(lay, SceneGeometry(r=4.0, theta=1.46, big_r=50.0))
    with pytest.raises(SingularityNearPi2):
        sw_sums_riemann(lay, SceneGeometry(r=4.0, theta=-1.5, big_r=50.0))


# ---------------------------------------------------------------------------
# span-angle representation
# ---------------------------------------------------------------------------

def test_four_point_sums_survive_span_substitution():
    # rewriting every partition edge through its span angle and back must
    # leave the four-point combinations unchanged
    rng = seeded("span-roundtrip")
    for _ in range(25):
        lay = std_wsms(rng.randint(1, 5), rng.randint(1, 16), rng.randint(0, 6))
        r = rng.uniform(0.5, 40.0)
        theta = rng.uniform(-1.4, 1.4)
        b = riemann_bounds(lay, r)
        edges = (b.x1, b.x2, b.x3, b.x4)
        rebuilt = []
        for x in edges:
            psi = psi_from_x(x, theta)
            rebuilt.append(math.sin(psi) / math.cos(theta - psi))
        for g in (g_theta2, g_theta, g_r, g_thetar):
            direct = g(edges[3], theta) - g(edges[2], theta) - g(edges[1], theta) + g(edges[0], theta)
            via_psi = g(rebuilt[3], theta) - g(rebuilt[2], theta) - g(rebuilt[1], theta) + g(rebuilt[0], theta)
            assert math.isclose(via_psi, direct, rel_tol=1e-10, abs_tol=1e-12), g.__name__


def test_g_theta2_psi0_matches_cartesian_form():
    rng = seeded("psi0-form")
    for _ in range(50):
        psi = rng.uniform(-1.5, 1.5)
        assert math.isclose(
            g_theta2_psi0(psi), g_theta2(math.tan(psi), 0.0), rel_tol=1e-11, abs_tol=1e-13
        )
    with pytest.raises(DomainError):
        g_theta2_psi0(math.pi / 2.0)


def test_g_theta2_psi0_strictly_increasing():
    grid = [i / 100.0 for i in range(1, 150)]
    values = [g_theta2_psi0(p) for p in grid]
    for a, b in zip(values, values[1:]):
        assert b > a


# ---------------------------------------------------------------------------
# broadside specializations
# ---------------------------------------------------------------------------

def test_broadside_specializations_match_general_forms():
    # strong-span draws: with the aperture comparable to the range the
    # four-point rounding stays far below the tolerance
    rng = seeded("broadside-special")
    for _ in range(15):
        lay = std_wsms(rng.randint(1, 5), rng.randint(1, 16), rng.randint(4, 8))
        r = rng.uniform(0.2, 2.0)
        geom = SceneGeometry(r=r, theta=0.0, big_r=50.0)

        # the two routes share the antiderivatives but cancel differently,
        # so agreement is limited by four-point rounding, not exact
        general = sw_sums_riemann(lay, geom)
        special = sw_theta0_sums(lay, r)
        for g, e in zip(unpack(general), unpack(special)):
            assert math.isclose(g, e, rel_tol=1e-9, abs_tol=1e-12)

        psi0 = 2.0 * math.atan(0.5 * lay.K * lay.big_d / r)
        general_h = hspw_sums_closed(lay, geom)
        special_h = hspw_theta0_sums(lay.K, psi0)
        for g, e in zip(unpack(general_h), unpack(special_h)):
            assert math.isclose(g, e, rel_tol=1e-11, abs_tol=1e-15)


def test_artanh_argument_rounding_onto_one_is_a_domain_error():
    # analytically (x - sin theta) / sqrt(nu1) < 1, but at x = 1e9 it
    # rounds to 1
    with pytest.raises(DomainError):
        f_x_over_sqrt_nu1(1e9, 0.3)
    with pytest.raises(DomainError):
        f_artanh_shift(1e9, 0.3)


def test_hspw_theta0_sums_domain():
    with pytest.raises(DomainError):
        hspw_theta0_sums(2, 0.0)
    with pytest.raises(DomainError):
        hspw_theta0_sums(2, math.pi)
    with pytest.raises(DomainError):
        hspw_theta0_sums(0, 1.0)


# ---------------------------------------------------------------------------
# arrays and grids against each formula's float at each point
# ---------------------------------------------------------------------------

SEPARATE_FORMULAS = (
    "nu1", "nu2",
    "f_x2_over_nu1", "f_x_over_sqrt_nu1", "f_one_over_sqrt_nu1", "f_x_over_nu1",
    "f_log_nu1", "f_atan_nu2", "f_sqrt_nu1", "f_artanh_shift", "f_log_shift",
    "g_theta2", "g_theta", "g_thetar", "g_r",
)

# both signs of x - sin(theta), so both branches of ln(sqrt(nu1) + x - sin theta)
edge_offsets = st.one_of(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-1e12, max_value=1e12),
)
closed_angles = st.one_of(
    st.just(0.0), st.floats(min_value=-THETA_RIEMANN_CAP, max_value=THETA_RIEMANN_CAP)
)


def assert_entry_is_float(got, f, *point):
    """got is f's float at point, bit for bit, or NaN exactly where f raises DomainError."""
    try:
        want = f(*point)
    except DomainError:
        assert math.isnan(got), (f.__name__, point)
    else:
        assert repr(got) == repr(want), (f.__name__, point)


@given(x=edge_offsets, theta=closed_angles)
@example(x=1e9, theta=0.3)    # artanh's argument rounds onto 1
@example(x=-1e9, theta=0.3)   # ... and onto -1
@example(x=-2.5, theta=0.0)
@settings(deadline=None)
def test_antiderivatives_are_bit_identical_to_separate_formulas(x, theta):
    # each public formula on one-element arrays against its float
    for name in SEPARATE_FORMULAS:
        f = getattr(closed_form, name)
        (got,) = f(np.array([x]), np.array([theta])).tolist()
        assert_entry_is_float(got, f, x, theta)


# where each public formula sits in the one-pass tuples
FIRST_LEVEL_ENTRIES = {
    "f_x2_over_nu1": 0, "f_x_over_sqrt_nu1": 1, "f_one_over_sqrt_nu1": 2, "f_x_over_nu1": 3,
}
SECOND_LEVEL_ENTRIES = {
    "g_theta2": 0, "g_theta": 1, "g_thetar": 2, "g_r": 3, "f_log_shift": 3,
    "f_log_nu1": 4, "f_atan_nu2": 5, "f_sqrt_nu1": 6, "f_artanh_shift": 7,
}


def assert_entries_match_separate(xs, thetas, x_arr, angle):
    """Each array entry is the public formula's float at its point, or NaN where it raises."""
    for level, entries in ((closed_form._first_level, FIRST_LEVEL_ENTRIES),
                           (closed_form._second_level, SECOND_LEVEL_ENTRIES)):
        out = level(x_arr, angle, True)
        for name, i in entries.items():
            assert out[i].shape == x_arr.shape
            for x, theta, got in zip(xs, thetas, out[i].tolist()):
                assert_entry_is_float(got, getattr(closed_form, name), x, theta)


@given(xs=st.lists(edge_offsets, min_size=1, max_size=8), theta=closed_angles)
@example(xs=[1e9, -1e9, 2.5, -2.5, 0.0], theta=0.3)  # artanh rounds onto +-1 at two edges
@example(xs=[-2.5, 0.5], theta=0.0)
@settings(deadline=None)
def test_one_pass_on_an_array_of_edges_matches_separate_formulas(xs, theta):
    assert_entries_match_separate(xs, [theta] * len(xs), np.array(xs), closed_form._angle(theta))


@given(points=st.lists(st.tuples(edge_offsets, closed_angles), min_size=1, max_size=8))
@example(points=[(1e9, 0.3), (1e9, 0.0), (2.5, -1.2), (-2.5, 1.45)])
@settings(deadline=None)
def test_one_pass_on_a_grid_of_edges_and_angles_matches_separate_formulas(points):
    xs, thetas = [x for x, _ in points], [t for _, t in points]
    angle = closed_form._angle(np.array(thetas))
    assert_entries_match_separate(xs, thetas, np.array(xs), angle)


@given(
    shape=layout_shapes,
    r=st.one_of(target_ranges, st.floats(min_value=1e-3, max_value=0.5)),
    theta=closed_angles,
)
@example(shape=(2, 4, 30), r=1e-3, theta=0.3)  # edges near 1.6e9: artanh raises
@example(shape=(3, 8, 2), r=2.0, theta=0.0)
@settings(deadline=None)
def test_closed_sums_are_bit_identical_to_separate_formulas(shape, r, theta):
    # the drawn scene in a grid with two others, so that at least two
    # differ (a grid of one scene runs as floats), against each alone
    lay = std_wsms(*shape)
    scenes = [SceneGeometry(r=r, theta=theta, big_r=50.0), GEOM,
              SceneGeometry(r=0.7, theta=-1.2, big_r=50.0)]
    for sums in (sw_sums_riemann, hspw_sums_closed):
        assert_grid_matches_points(sums, lay, GeometryGrid.of(scenes), scenes)
    ranges = [g.r for g in scenes]
    assert_grid_matches_points(sw_theta0_sums, lay, np.array(ranges), ranges)


def assert_grid_matches_points(sums, lay, grid, points):
    """Each point's entries of sums on the grid are its float sums alone, bit for bit.

    A point whose float sums raise has a NaN among its entries instead.
    """
    with np.errstate(all="ignore"):
        cols = [np.broadcast_to(v, (len(points),)).tolist() for v in unpack(sums(lay, grid))]
    for point, got in zip(points, zip(*cols)):
        try:
            want = tuple(float(v) for v in unpack(sums(lay, point)))
        except DomainError:
            assert any(math.isnan(v) for v in got), (sums.__name__, point)
        else:
            assert repr(got) == repr(want), (sums.__name__, point)


def test_artanh_rounding_onto_one_raises_in_the_sums_as_before():
    lay = std_wsms(2, 4, 30)
    geom = SceneGeometry(r=1e-3, theta=0.3, big_r=50.0)
    for sums in (sw_sums_riemann, hspw_sums_closed):
        with pytest.raises(DomainError, match="artanh needs"):
            sums(lay, geom)
