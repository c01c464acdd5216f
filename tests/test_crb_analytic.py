"""Sum-formula Fisher assembly against the first-principles bundle route."""

import math

import numpy as np
import pytest

from conftest import seeded, std_wsms
from nearfield_crb import (
    DomainError,
    InvalidLayout,
    SceneGeometry,
    bundle_crb,
    bundle_fisher,
    compare_wsms_ua,
    crb,
    crb_theta_only,
    hspw_crb_asymptotes,
    hspw_crb_closed,
    hspw_crb_theta0,
    make_dua,
    make_ua,
    ratio_check,
    received_gain_sq,
    sw_crb_closed,
    sw_crb_theta0,
)
from nearfield_crb.closed_form import hspw_sums_direct, sw_sums_direct, sw_theta0_sums
from nearfield_crb.crb_analytic import (
    chi_factors,
    hspw_fisher_from_sums,
    sums_fisher,
    sw_fisher_from_sums,
)
from nearfield_crb.fisher_core import NOISE_FLOOR_MULT

EPS = float(np.finfo(float).eps)


def rel(a, b):
    return abs(a - b) / abs(b)


def assert_blocks_agree(got, ref):
    # scale-aware comparison: the stated round-off floors encode each
    # entry's pre-cancellation magnitude, so use them to set the absolute
    # slack alongside a relative term
    pre11 = ref.q11_floor / (NOISE_FLOOR_MULT * EPS)
    pre22 = ref.q22_floor / (NOISE_FLOOR_MULT * EPS)
    assert abs(got.q11 - ref.q11) <= 1e-12 * pre11 + 1e-10 * abs(ref.q11)
    assert abs(got.q22 - ref.q22) <= 1e-12 * pre22 + 1e-10 * abs(ref.q22)
    pre12 = math.sqrt(pre11 * pre22)
    assert abs(got.q12 - ref.q12) <= 1e-12 * pre12 + 1e-10 * abs(ref.q12)


def test_chi_factors_formulas():
    lay = std_wsms(3, 8, 2)
    geom = SceneGeometry(r=4.0, theta=0.35, big_r=50.0)
    chi = chi_factors(lay, geom, 5)
    c = math.cos(geom.theta)
    assert math.isclose(
        chi.chi_nt, 4.0 * math.pi ** 2 * geom.r ** 2 * c * c / lay.lam ** 2, rel_tol=1e-13
    )
    assert math.isclose(
        chi.chi_nr,
        math.pi ** 2 * lay.d ** 2 * (5 ** 2 - 1) / (3.0 * lay.lam ** 2),
        rel_tol=1e-13,
    )
    assert math.isclose(
        chi.chi_m,
        math.pi ** 2 * lay.d ** 2 * (lay.M ** 2 - 1) / (3.0 * lay.lam ** 2),
        rel_tol=1e-13,
    )
    single = chi_factors(lay, geom, 1)
    assert single.chi_nr == 0.0


def test_sw_assembly_matches_bundle_route():
    # exact sums through the assembly algebra must reproduce the
    # inner-product Fisher block entry by entry
    rng = seeded("assembly-sw")
    cases = [(rng.randint(1, 5), rng.randint(1, 16), rng.randint(0, 6),
              rng.uniform(0.05, 20.0), rng.uniform(-1.3, 1.3), rng.randint(1, 8))
             for _ in range(12)]
    cases.append((12, 128, 3, 10.0, math.pi / 4.0, 1))
    for k, m, i, r, theta, n_r in cases:
        lay = std_wsms(k, m, i)
        geom = SceneGeometry(r=r, theta=theta, big_r=50.0)
        got = sw_fisher_from_sums(sw_sums_direct(lay, geom), lay, geom, n_r)
        ref = bundle_fisher(lay, geom, n_r, model="sw")
        assert_blocks_agree(got, ref)


def test_hspw_assembly_matches_bundle_route():
    rng = seeded("assembly-hspw")
    for _ in range(12):
        k, m, i = rng.randint(1, 5), rng.randint(1, 16), rng.randint(0, 6)
        lay = std_wsms(k, m, i)
        geom = SceneGeometry(
            r=rng.uniform(0.05, 20.0), theta=rng.uniform(-1.3, 1.3), big_r=50.0
        )
        n_r = rng.randint(1, 8)
        got = hspw_fisher_from_sums(hspw_sums_direct(lay, geom), lay, geom, n_r)
        ref = bundle_fisher(lay, geom, n_r, model="hspw")
        assert_blocks_agree(got, ref)


def test_assembly_rejects_mismatched_sums():
    lay = std_wsms(3, 4, 2)
    geom = SceneGeometry(r=4.0, theta=0.35, big_r=50.0)
    with pytest.raises(DomainError):
        sw_fisher_from_sums(hspw_sums_direct(lay, geom), lay, geom, 1)
    with pytest.raises(DomainError):
        hspw_fisher_from_sums(sw_sums_direct(lay, geom), lay, geom, 1)


def test_closed_crb_methods_agree_with_bundle():
    # strong curvature keeps the q22 cancellation mild on every route
    lay = std_wsms(3, 16, 4)
    geom = SceneGeometry(r=0.3, theta=0.4, big_r=50.0)
    ref = bundle_crb(lay, geom, 2, model="sw")
    direct = sw_crb_closed(lay, geom, 2, method="direct")
    assert rel(direct.crb_theta, ref.crb_theta) < 1e-9
    assert rel(direct.crb_r, ref.crb_r) < 1e-9
    # the midpoint approximation carries an intrinsic error of roughly
    # 1 / (K^2 - 1) on the angle sums, so judge it at a higher centre count
    lay12 = std_wsms(12, 16, 4)
    ref12 = bundle_crb(lay12, geom, 2, model="sw")
    riemann = sw_crb_closed(lay12, geom, 2, method="riemann")
    assert rel(riemann.crb_theta, ref12.crb_theta) < 0.02
    assert rel(riemann.crb_r, ref12.crb_r) < 0.06

    ref_h = bundle_crb(lay, geom, 2, model="hspw")
    direct_h = hspw_crb_closed(lay, geom, 2, method="direct")
    assert rel(direct_h.crb_theta, ref_h.crb_theta) < 1e-9
    assert rel(direct_h.crb_r, ref_h.crb_r) < 1e-9

    with pytest.raises(DomainError):
        sw_crb_closed(lay, geom, 2, method="simpson")


def test_broadside_closed_forms():
    lay = std_wsms(3, 16, 4)
    geom = SceneGeometry(r=0.3, theta=0.0, big_r=50.0)
    general = sw_crb_closed(lay, geom, 2, method="riemann")
    special = sw_crb_theta0(lay, geom, 2)
    assert rel(special.crb_theta, general.crb_theta) < 1e-9
    assert rel(special.crb_r, general.crb_r) < 1e-9
    with pytest.raises(DomainError):
        sw_crb_theta0(lay, SceneGeometry(r=0.3, theta=0.1, big_r=50.0), 2)

    general_h = hspw_crb_closed(lay, geom, 2, method="riemann")
    special_h = hspw_crb_theta0(lay, geom, 2)
    assert rel(special_h.crb_theta, general_h.crb_theta) < 1e-9
    assert rel(special_h.crb_r, general_h.crb_r) < 1e-9


def test_broadside_range_bound_ignores_receiver_size():
    # on broadside the arrival angle is insensitive to range, so at fixed
    # aggregate gain the range bound cannot depend on the receiver aperture
    lay = std_wsms(3, 16, 4)
    geom = SceneGeometry(r=1.2, theta=0.0, big_r=50.0)
    sums = sw_theta0_sums(lay, geom.r)
    a, b = (crb(sw_fisher_from_sums(sums, lay, geom, n_r), 48.0, 0.5) for n_r in (1, 12))
    assert rel(a.crb_r, b.crb_r) < 1e-12
    assert b.crb_theta < a.crb_theta


def test_scaling_law_ratios():
    # splitting each centre step in half while doubling the centre count
    # preserves the partition edges, so sums double and bounds halve
    lay = std_wsms(3, 4, 4)
    geom = SceneGeometry(r=2.0, theta=0.25, big_r=50.0)
    check = ratio_check(lay, geom, 1, factor=2)
    assert check.expected == 0.5
    for name, ratio in check.sum_ratios.items():
        assert math.isclose(ratio, 0.5, rel_tol=1e-9), name
    assert math.isclose(check.crb_theta_ratio, 0.5, rel_tol=1e-9)
    assert math.isclose(check.crb_r_ratio, 0.5, rel_tol=1e-9)
    with pytest.raises(DomainError):
        ratio_check(lay, geom, 1, factor=1)


def test_wide_spacing_beats_uniform_mirror():
    lay = std_wsms(3, 32, 6)
    geom = SceneGeometry(r=10.0, theta=0.0, big_r=50.0)
    comp = compare_wsms_ua(lay, geom, 1)
    assert comp.wsms.crb_theta < comp.ua.crb_theta
    assert comp.wsms.crb_theta < comp.dua.crb_theta
    with pytest.raises(InvalidLayout):
        compare_wsms_ua(
            __import__("nearfield_crb").make_dua(3, 32, lay.d, lay.lam), geom, 1
        )


def test_hybrid_span_asymptotes_bracket_finite_spans():
    geom = SceneGeometry(r=10.0, theta=0.0, big_r=50.0)
    n_r = 12
    lay0 = std_wsms(2, 16, 0)
    limits = hspw_crb_asymptotes(lay0, geom, n_r)
    assert limits.crb_theta_span_pi < limits.crb_theta_span_zero
    values = []
    for i in (0, 6, 12, 20):
        lay = std_wsms(2, 16, i)
        nf = bundle_fisher(lay, geom, n_r, model="hspw")
        beta_sq = received_gain_sq(1.0 + 0.0j, n_r, lay.n_elements)
        values.append(crb_theta_only(nf, beta_sq, 1.0))
    for a, b in zip(values, values[1:]):
        assert b < a
    for v in values:
        assert limits.crb_theta_span_pi < v < limits.crb_theta_span_zero
    # wide spacing pushes the bound onto its floor
    assert rel(values[-1], limits.crb_theta_span_pi) < 1e-3


def test_asymptotes_reject_off_broadside():
    lay = std_wsms(2, 16, 3)
    with pytest.raises(DomainError):
        hspw_crb_asymptotes(lay, SceneGeometry(r=10.0, theta=0.2, big_r=50.0), 12)


@pytest.mark.parametrize("model, method", [
    ("pw", "riemann"), ("pw", "direct"), ("sw", "simpson"), ("hspw", "oracle"),
])
def test_sums_table_rejects_unknown_pairs(model, method):
    lay = std_wsms(3, 4, 2)
    geom = SceneGeometry(r=4.0, theta=0.35, big_r=50.0)
    with pytest.raises(DomainError, match="no sum formulas"):
        sums_fisher(lay, geom, 1, model=model, method=method)


@pytest.mark.parametrize("n_r", [0, 2.5])
def test_sums_route_rejects_a_receiver_size_as_the_bundle_route_does(n_r):
    lay = std_wsms(3, 4, 2)
    geom = SceneGeometry(r=4.0, theta=0.35, big_r=50.0)
    for route in (
        lambda: bundle_fisher(lay, geom, n_r),
        lambda: sums_fisher(lay, geom, n_r, model="sw", method="direct"),
        lambda: sums_fisher(lay, geom, n_r, model="hspw", method="riemann"),
        lambda: sw_crb_closed(lay, geom, n_r),
        lambda: hspw_crb_closed(lay, geom, n_r),
    ):
        with pytest.raises(DomainError, match="receiver size"):
            route()


@pytest.mark.parametrize("kind", ["ua", "dua"])
def test_hybrid_sums_route_needs_a_widely_spaced_layout(kind):
    base = std_wsms(3, 4, 2)
    lay = {"ua": make_ua(3, 4, base.d, base.d0, base.lam),
           "dua": make_dua(3, 4, base.d, base.lam)}[kind]
    geom = SceneGeometry(r=4.0, theta=0.0, big_r=50.0)
    for route in (
        lambda: bundle_fisher(lay, geom, 1, model="hspw"),
        lambda: sums_fisher(lay, geom, 1, model="hspw", method="direct"),
        lambda: sums_fisher(lay, geom, 1, model="hspw", method="riemann"),
        lambda: hspw_crb_theta0(lay, geom, 1),
        lambda: hspw_crb_asymptotes(lay, geom, 12),
        lambda: ratio_check(lay, geom, 1),
    ):
        with pytest.raises(InvalidLayout, match="widely spaced"):
            route()
    # the spherical model takes every layout
    sums_fisher(lay, geom, 1, model="sw", method="riemann")
