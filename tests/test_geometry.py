"""Scene geometry against raw coordinate constructions and finite differences."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    coordinate_angle_at_rx,
    coordinate_rx_range,
    richardson_diff,
    scene_angles,
    seeded,
    std_wsms,
    target_ranges,
)
from nearfield_crb import (
    DegenerateGeometry,
    DomainError,
    SceneGeometry,
    angular_spans,
    aoa_from_geometry,
    dsinphi_dr,
    dsinphi_dtheta,
    psi_from_x,
    rx_range,
    sums_fisher,
)
from nearfield_crb import geometry
from nearfield_crb.fisher_core import rx_bundle
from nearfield_crb.geometry import GeometryGrid


def test_rx_range_matches_frozen_coordinates():
    geom = SceneGeometry(r=10.0, theta=0.3, big_r=50.0)
    assert math.isclose(rx_range(geom), 40.55445118448028, rel_tol=1e-15)
    geom = SceneGeometry(r=5.0, theta=0.4, big_r=50.0)
    assert math.isclose(rx_range(geom), 45.4364336518455, rel_tol=1e-15)


@given(r=target_ranges, theta=scene_angles, big_r=st.floats(min_value=1.0, max_value=200.0),
       vartheta=st.floats(min_value=-1.0, max_value=1.0))
# targets next to the receiver, where the law of cosines cancels
@example(r=9.0, theta=1.192092896e-07, big_r=9.0, vartheta=0.0)
@example(r=3.0, theta=0.0, big_r=3.0, vartheta=1e-5)
def test_rx_range_matches_coordinates(r, theta, big_r, vartheta):
    geom = SceneGeometry(r=r, theta=theta, big_r=big_r, vartheta=vartheta)
    expected = coordinate_rx_range(r, theta, big_r, vartheta)
    assert math.isclose(rx_range(geom), expected, rel_tol=1e-12, abs_tol=1e-12)


def test_aoa_matches_frozen_coordinates():
    geom = SceneGeometry(r=10.0, theta=0.3, big_r=50.0)
    assert math.isclose(aoa_from_geometry(geom), 0.07293462542629708, rel_tol=1e-14)


@given(r=st.floats(min_value=0.5, max_value=40.0), theta=scene_angles,
       big_r=st.floats(min_value=45.0, max_value=200.0),
       vartheta=st.floats(min_value=-1.0, max_value=1.0))
def test_aoa_is_triangle_angle_plus_offset(r, theta, big_r, vartheta):
    # keep the target well inside the receiver's transverse plane so the
    # principal arcsine and the vertex angle agree
    geom = SceneGeometry(r=r, theta=theta, big_r=big_r, vartheta=vartheta)
    gamma = coordinate_angle_at_rx(r, theta, big_r, vartheta)
    assert math.isclose(
        aoa_from_geometry(geom), gamma + vartheta, rel_tol=1e-9, abs_tol=1e-12
    )


def test_aoa_degenerate_at_receiver_centre():
    geom = SceneGeometry(r=50.0, theta=0.0, big_r=50.0)
    assert rx_range(geom) == 0.0
    with pytest.raises(DegenerateGeometry):
        aoa_from_geometry(geom)


def test_arrival_derivatives_frozen():
    # reference values from Richardson-extrapolated central differences of
    # the coordinate arrival angle, good to about 1e-10
    geom = SceneGeometry(r=5.0, theta=0.4, big_r=50.0)
    assert math.isclose(dsinphi_dtheta(geom), 0.09933626450788398, rel_tol=1e-9)
    assert math.isclose(dsinphi_dr(geom), 0.009422774614314492, rel_tol=1e-9)


def test_arrival_derivatives_match_finite_differences():
    rng = seeded("aoa-derivs")
    for _ in range(25):
        r = rng.uniform(0.5, 30.0)
        big_r = rng.uniform(r + 5.0, 120.0)
        theta = rng.uniform(-1.2, 1.2)

        def sinphi_of_theta(t):
            g = SceneGeometry(r=r, theta=t, big_r=big_r)
            return math.sin(aoa_from_geometry(g))

        def sinphi_of_r(rr):
            g = SceneGeometry(r=rr, theta=theta, big_r=big_r)
            return math.sin(aoa_from_geometry(g))

        geom = SceneGeometry(r=r, theta=theta, big_r=big_r)
        fd_theta = richardson_diff(sinphi_of_theta, theta, h=1e-5)
        fd_r = richardson_diff(sinphi_of_r, r, h=1e-5 * r)
        assert math.isclose(dsinphi_dtheta(geom), fd_theta, rel_tol=1e-7, abs_tol=1e-10)
        assert math.isclose(dsinphi_dr(geom), fd_r, rel_tol=1e-7, abs_tol=1e-10)


def test_arrival_derivatives_on_broadside():
    # at theta = 0 the range sensitivity vanishes identically and the angle
    # sensitivity collapses to r / (big_r - r)
    geom = SceneGeometry(r=10.0, theta=0.0, big_r=50.0)
    assert dsinphi_dr(geom) == 0.0
    assert math.isclose(dsinphi_dtheta(geom), 10.0 / 40.0, rel_tol=1e-12)


def test_arrival_derivatives_isosceles_closed_forms():
    # with r = R the triangle is isosceles and sin(phi) = cos(theta / 2), so
    # both derivatives have exact closed forms even as the target nears the
    # receiver (theta -> 0), where the law of cosines loses every digit
    for big_r in (0.5, 3.0, 9.0, 50.0):
        for theta in np.geomspace(1e-8, 1.3, 41):
            geom = SceneGeometry(r=big_r, theta=float(theta), big_r=big_r)
            half = 0.5 * float(theta)
            assert math.isclose(dsinphi_dtheta(geom), -0.5 * math.sin(half), rel_tol=1e-12)
            assert math.isclose(dsinphi_dr(geom), math.cos(half) / (2.0 * big_r), rel_tol=1e-12)


def test_arrival_derivatives_reject_offset_receiver():
    geom = SceneGeometry(r=5.0, theta=0.2, big_r=50.0, vartheta=0.1)
    with pytest.raises(DomainError):
        dsinphi_dtheta(geom)
    with pytest.raises(DomainError):
        dsinphi_dr(geom)


def count_triangles(monkeypatch) -> list:
    """The arguments of each receiver-distance evaluation from now on."""
    calls = []
    real = geometry._rx_range_sq

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, "_rx_range_sq", counted)
    return calls


@pytest.mark.parametrize("n_r, triangles", [(1, 0), (4, 1), (35, 1)])
def test_receive_bundle_evaluates_the_triangle_once(monkeypatch, n_r, triangles):
    geom = SceneGeometry(r=5.0, theta=0.2, big_r=50.0)
    calls = count_triangles(monkeypatch)
    rx_bundle(std_wsms(3, 4, 2), n_r, geom)
    assert len(calls) == triangles


@pytest.mark.parametrize("model", ["sw", "hspw"])
@pytest.mark.parametrize("axis", ["r", "theta"])
def test_closed_form_grid_evaluates_the_triangle_once(monkeypatch, model, axis):
    lay = std_wsms(3, 4, 2)
    values = (-0.4, 0.0, 0.3) if axis == "theta" else (2.0, 5.0, 9.0)
    geoms = [SceneGeometry(**{"r": 5.0, "theta": 0.2, axis: v, "big_r": 50.0}) for v in values]
    calls = count_triangles(monkeypatch)
    grid = sums_fisher(lay, GeometryGrid.of(geoms), 4, model=model, method="riemann")
    assert len(calls) == 1
    assert np.isfinite(grid.q11).all() and np.isfinite(grid.q22).all()
    sums_fisher(lay, geoms[0], 4, model=model, method="riemann")
    assert len(calls) == 2


def test_scene_validation():
    with pytest.raises(DomainError):
        SceneGeometry(r=0.0, theta=0.0, big_r=50.0)
    with pytest.raises(DomainError):
        SceneGeometry(r=-1.0, theta=0.0, big_r=50.0)
    with pytest.raises(DomainError):
        SceneGeometry(r=5.0, theta=math.pi / 2.0, big_r=50.0)
    with pytest.raises(DomainError):
        SceneGeometry(r=5.0, theta=0.0, big_r=0.0)
    with pytest.raises(DomainError):
        SceneGeometry(r=5.0, theta=0.0, big_r=50.0, vartheta=math.inf)


def test_psi_from_x_frozen_roots():
    # reference values found by root-solving x = sin(psi) / cos(theta - psi)
    # with an independent bracketing solver
    assert math.isclose(psi_from_x(0.7, 0.3), 0.7005060640000547, rel_tol=1e-14)
    assert math.isclose(psi_from_x(-1.4, 0.55), -0.6034423248299903, rel_tol=1e-14)
    assert math.isclose(psi_from_x(2.5, -0.8), 0.5575426118429826, rel_tol=1e-14)
    assert psi_from_x(0.0, 0.99) == 0.0


@given(x=st.floats(min_value=-3.0, max_value=3.0), theta=scene_angles)
def test_psi_from_x_roundtrip_and_branch(x, theta):
    psi = psi_from_x(x, theta)
    assert abs(psi - theta) < math.pi / 2.0 + 1e-12
    back = math.sin(psi) / math.cos(theta - psi)
    assert math.isclose(back, x, rel_tol=1e-12, abs_tol=1e-12)
    lhs = 1.0 - 2.0 * x * math.sin(theta) + x * x
    rhs = math.cos(theta) ** 2 / math.cos(theta - psi) ** 2
    assert math.isclose(lhs, rhs, rel_tol=1e-10, abs_tol=1e-12)


def test_psi_from_x_rejects_endfire():
    with pytest.raises(DomainError):
        psi_from_x(0.5, math.pi / 2.0)


def test_angular_spans_broadside():
    lay = std_wsms(3, 4, 2)
    geom = SceneGeometry(r=2.0, theta=0.0, big_r=50.0)
    spans = angular_spans(lay, geom)
    half_outer = 0.5 * lay.K * lay.big_d / geom.r
    half_inner = 0.5 * lay.M * lay.d / geom.r
    assert spans.x == (
        -half_outer - half_inner,
        -half_outer + half_inner,
        half_outer - half_inner,
        half_outer + half_inner,
    )
    # on broadside each span angle is a plain arctangent of its offset
    for xi, psii in zip(spans.x, spans.psi):
        assert math.isclose(psii, math.atan(xi), rel_tol=1e-15)
    assert math.isclose(spans.psi0, spans.psi[3] + spans.psi[2], rel_tol=1e-15)
    assert math.isclose(spans.delta_psi, spans.psi[3] - spans.psi[2], rel_tol=1e-15)
    assert spans.psi0 > 0.0
    assert spans.psi_at(spans.x[3]) == spans.psi[3]


def test_angular_spans_off_broadside_has_no_aggregate():
    lay = std_wsms(3, 4, 2)
    spans = angular_spans(lay, SceneGeometry(r=2.0, theta=0.3, big_r=50.0))
    assert spans.psi0 is None
    assert spans.delta_psi is None
