"""Layout construction against brute-force coordinate building."""

import math

import pytest
from hypothesis import given

from conftest import D_HALF, LAM, layout_shapes, std_wsms
from nearfield_crb import (
    InvalidLayout,
    aperture,
    d0_from_exponent,
    element_positions,
    make_dua,
    make_ua,
    make_wsms,
    subarray_centers,
)


def brute_positions(k, m, d, d0):
    """Element coordinates built the long way: centre each subarray, then
    place its elements symmetrically around that centre."""
    big_d = (m - 1) * d + d0
    out = []
    for kk in range(k):
        centre = (kk - (k - 1) / 2.0) * big_d
        for mm in range(m):
            out.append(centre + (mm - (m - 1) / 2.0) * d)
    return out


def test_positions_frozen():
    lay = std_wsms(2, 3, 2)
    expected = [
        -0.00599584916,
        -0.00449688687,
        -0.00299792458,
        0.00299792458,
        0.00449688687,
        0.00599584916,
    ]
    got = element_positions(lay)
    assert len(got) == 6
    for g, e in zip(got, expected):
        assert math.isclose(g, e, rel_tol=1e-12, abs_tol=1e-18)
    assert math.isclose(lay.big_d, 0.00899377374, rel_tol=1e-12)


@given(shape=layout_shapes)
def test_positions_match_brute_construction(shape):
    k, m, i = shape
    lay = std_wsms(k, m, i)
    got = element_positions(lay)
    expected = brute_positions(k, m, lay.d, lay.d0)
    assert len(got) == k * m == lay.n_elements
    for g, e in zip(got, expected):
        assert math.isclose(g, e, rel_tol=1e-12, abs_tol=1e-18)


@given(shape=layout_shapes)
def test_positions_symmetric_and_increasing(shape):
    k, m, i = shape
    pos = element_positions(std_wsms(k, m, i))
    for a, b in zip(pos, reversed(pos)):
        assert a == -b
    for a, b in zip(pos, pos[1:]):
        assert a < b


@given(shape=layout_shapes)
def test_subarray_centres_are_block_means(shape):
    k, m, i = shape
    lay = std_wsms(k, m, i)
    pos = list(element_positions(lay))
    centres = subarray_centers(lay)
    assert len(centres) == k
    for kk, c in enumerate(centres):
        block = pos[kk * m:(kk + 1) * m]
        assert math.isclose(c, math.fsum(block) / m, rel_tol=1e-12, abs_tol=1e-18)
    for a, b in zip(centres, reversed(centres)):
        assert a == -b


def test_big_d_and_aperture():
    lay = std_wsms(3, 4, 2)
    assert math.isclose(lay.big_d, (lay.M - 1) * lay.d + lay.d0, rel_tol=1e-15)
    pos = element_positions(lay)
    assert math.isclose(aperture(lay), pos[-1] - pos[0], rel_tol=1e-12)
    assert math.isclose(
        aperture(lay), (lay.K - 1) * lay.big_d + (lay.M - 1) * lay.d, rel_tol=1e-12
    )


def test_d0_from_exponent():
    assert d0_from_exponent(0, LAM) == LAM / 2.0
    assert d0_from_exponent(3, LAM) == 8.0 * LAM / 2.0
    assert d0_from_exponent(10, LAM) == 1024.0 * LAM / 2.0
    with pytest.raises(InvalidLayout):
        d0_from_exponent(-1, LAM)
    with pytest.raises(InvalidLayout):
        d0_from_exponent(1.5, LAM)


def test_d0_from_exponent_overflow_is_invalid_layout():
    assert math.isfinite(d0_from_exponent(1023, LAM))
    with pytest.raises(InvalidLayout):
        d0_from_exponent(1100, LAM)


def test_dua_is_contiguous_half_wave_grid():
    lay = make_dua(3, 4, D_HALF, LAM)
    pos = element_positions(lay)
    assert len(pos) == 12
    for a, b in zip(pos, pos[1:]):
        assert math.isclose(b - a, D_HALF, rel_tol=1e-12)
    assert lay.d0 == lay.d


def test_ua_matches_wsms_aperture():
    base = std_wsms(3, 128, 3)
    ua = make_ua(base.K, base.M, base.d, base.d0, base.lam)
    assert ua.n_elements == base.n_elements
    assert math.isclose(aperture(ua), aperture(base), rel_tol=1e-12)
    pos = element_positions(ua)
    spacing = pos[1] - pos[0]
    expected = ((base.K - 1) * base.big_d + (base.M - 1) * base.d) / (base.n_elements - 1)
    assert math.isclose(spacing, expected, rel_tol=1e-12)
    for a, b in zip(pos, pos[1:]):
        assert math.isclose(b - a, spacing, rel_tol=1e-9)


def test_layout_validation():
    with pytest.raises(InvalidLayout):
        make_wsms(0, 4, D_HALF, D_HALF, LAM)
    with pytest.raises(InvalidLayout):
        make_wsms(3, 0, D_HALF, D_HALF, LAM)
    with pytest.raises(InvalidLayout):
        make_wsms(3, 4, -D_HALF, D_HALF, LAM)
    with pytest.raises(InvalidLayout):
        make_wsms(3, 4, D_HALF, D_HALF, 0.0)
    with pytest.raises(InvalidLayout):
        make_wsms(3, 4, D_HALF, 0.25 * LAM, LAM)
    with pytest.raises(InvalidLayout):
        make_wsms(2.5, 4, D_HALF, D_HALF, LAM)
    with pytest.raises(InvalidLayout):
        make_wsms(3, 4, 0.0, D_HALF, LAM)
    # every length is finite: an infinite wavelength (a carrier near 1e-300 Hz)
    # would put the elements at infinite or NaN coordinates
    for bad in (math.inf, math.nan):
        for args in ((bad, D_HALF, LAM), (D_HALF, bad, LAM), (D_HALF, D_HALF, bad),
                     (bad, bad, bad)):
            with pytest.raises(InvalidLayout):
                make_wsms(3, 4, *args)
            with pytest.raises(InvalidLayout):
                make_ua(3, 4, *args)
        with pytest.raises(InvalidLayout):
            make_dua(3, 4, bad, LAM)
        with pytest.raises(InvalidLayout):
            make_dua(3, 4, D_HALF, bad)
