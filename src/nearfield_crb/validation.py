"""Self-validation checks: engine results against independent oracles.

Each check recomputes something the engine claims from first principles
(plane geometry, finite differences, brute-force loops) and reports the
worst deviation against a tolerance.  The `validate` CLI subcommand runs
them all and fails (exit 1) if any check fails.  Grid points that violate a
documented precondition are skipped and counted, not failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import closed_form as cf
from .array_layouts import (
    aperture,
    d0_from_exponent,
    element_positions,
    make_dua,
    make_ua,
    make_wsms,
)
from .crb_analytic import (
    compare_wsms_ua,
    hspw_crb_asymptotes,
    hspw_crb_closed,
    hspw_crb_theta0,
    ratio_check,
    sums_fisher,
    sw_crb_closed,
    sw_crb_theta0,
    sw_fisher_from_sums,
)
from .errors import SingularityNearPi2
from .fisher_core import (
    bundle_crb,
    bundle_fisher,
    composite_bundle,
    crb,
    crb_theta_only,
    full_fisher_oracle,
    hspw_tx_bundle,
    pw_tx_bundle,
    received_gain_sq,
    rx_bundle,
    sw_tx_bundle,
)
from .geometry import (
    SceneGeometry,
    aoa_from_geometry,
    dsinphi_dr,
    dsinphi_dtheta,
    psi_from_x,
    rx_range,
)

C_LIGHT = 299792458.0
LAM_100GHZ = C_LIGHT / 100e9


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    worst: float
    tol: float
    note: str = ""


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _std_layout(k: int = 3, m: int = 128, i: int = 3, lam: float = LAM_100GHZ):
    return make_wsms(k, m, lam / 2.0, d0_from_exponent(i, lam), lam)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def check_triangle_range() -> CheckOutcome:
    """rx_range against an explicit planar coordinate construction."""
    worst = 0.0
    for big_r in (5.0, 31.0, 80.0):
        for r in (1.0, 10.0, 29.0):
            for theta in (-1.2, -0.4, 0.0, 0.7, 1.3):
                for vt in (-0.3, 0.0, 0.2):
                    geom = SceneGeometry(r=r, theta=theta, big_r=big_r, vartheta=vt)
                    target = (r * math.sin(theta), r * math.cos(theta))
                    rx = (-big_r * math.sin(vt), big_r * math.cos(vt))
                    by_coords = math.hypot(target[0] - rx[0], target[1] - rx[1])
                    worst = max(worst, _rel(rx_range(geom), by_coords))
    return CheckOutcome("triangle_range_vs_coordinates", worst <= 1e-12, worst, 1e-12)


def check_arrival_angle() -> CheckOutcome:
    """aoa_from_geometry against a signed-angle coordinate construction."""
    worst = 0.0
    for big_r in (10.0, 31.0, 80.0):
        for r in (1.0, 5.0, 0.6 * big_r):
            for theta in (-1.2, -0.4, 0.0, 0.7, 1.3):
                for vt in (-0.3, 0.0, 0.2):
                    geom = SceneGeometry(r=r, theta=theta, big_r=big_r, vartheta=vt)
                    target = np.array([r * math.sin(theta), r * math.cos(theta)])
                    rx = np.array([-big_r * math.sin(vt), big_r * math.cos(vt)])
                    u = -rx            # receiver -> transmitter
                    v = target - rx    # receiver -> target
                    ang = math.atan2(u[0] * v[1] - u[1] * v[0], float(u @ v))
                    worst = max(worst, _rel(aoa_from_geometry(geom), ang + vt))
    return CheckOutcome("arrival_angle_vs_coordinates", worst <= 1e-12, worst, 1e-12)


def check_aoa_derivatives() -> CheckOutcome:
    """dsinphi_dtheta / dsinphi_dr against central finite differences."""
    worst = 0.0

    def sinphi(r, theta, big_r):
        g = SceneGeometry(r=r, theta=theta, big_r=big_r)
        return r * math.sin(theta) / rx_range(g)

    for big_r in (12.0, 31.0):
        for r in (2.0, 9.0, 0.9 * big_r):
            for theta in (-1.1, -0.5, 0.0, 0.4, 1.2):
                geom = SceneGeometry(r=r, theta=theta, big_r=big_r)
                h = 1e-6
                fd_t = (sinphi(r, theta + h, big_r) - sinphi(r, theta - h, big_r)) / (2 * h)
                fd_r = (sinphi(r + h * r, theta, big_r) - sinphi(r - h * r, theta, big_r)) / (2 * h * r)
                worst = max(worst, _rel(dsinphi_dtheta(geom), fd_t))
                worst = max(worst, _rel(dsinphi_dr(geom), fd_r))
    return CheckOutcome("arrival_angle_derivatives_vs_fd", worst <= 1e-7, worst, 1e-7)


def check_span_roundtrip() -> CheckOutcome:
    """psi_from_x round trip and the nu1 / span-angle identity."""
    worst = 0.0
    for theta in (-1.4, -1.2, -0.7, -0.3, 0.0, 0.3, 0.7, 1.2, 1.4):
        for x in np.linspace(-3.0, 3.0, 25):
            psi = psi_from_x(float(x), theta)
            back = math.sin(psi) / math.cos(theta - psi)
            worst = max(worst, _rel(back, float(x)))
            lhs = cf.nu1(float(x), theta) * math.cos(theta - psi) ** 2
            worst = max(worst, _rel(lhs, math.cos(theta) ** 2))
    return CheckOutcome("span_angle_roundtrip", worst <= 1e-12, worst, 1e-12)


# ---------------------------------------------------------------------------
# layouts
# ---------------------------------------------------------------------------

def check_layout_positions() -> CheckOutcome:
    """Position formula against an index loop; symmetry; aperture span."""
    worst = 0.0
    for k, m, i in ((1, 1, 0), (2, 3, 1), (3, 128, 3), (12, 16, 10)):
        lay = _std_layout(k, m, i)
        pos = element_positions(lay)
        by_loop = np.array(
            [
                (2 * kk - k + 1) / 2.0 * lay.big_d + (2 * mm - m + 1) / 2.0 * lay.d
                for kk in range(k)
                for mm in range(m)
            ]
        )
        worst = max(worst, float(np.max(np.abs(pos - by_loop))))
        worst = max(worst, float(np.max(np.abs(pos + pos[::-1]))))
        if pos.size > 1:
            span = float(pos[-1] - pos[0])
            worst = max(worst, _rel(span, aperture(lay)))
    return CheckOutcome("layout_positions", worst <= 1e-12, worst, 1e-12)


def check_uniform_mirrors() -> CheckOutcome:
    """Sparse mirror spacing/aperture; dense mirror equals the gap-d layout."""
    worst = 0.0
    for k, m, i in ((2, 8, 2), (3, 128, 3), (6, 32, 8)):
        lay = _std_layout(k, m, i)
        ua = make_ua(k, m, lay.d, lay.d0, lay.lam)
        worst = max(worst, _rel(aperture(ua), aperture(lay)))
        diffs = np.diff(element_positions(ua))
        worst = max(worst, float(np.max(np.abs(diffs - ua.d))) / ua.d)
        dua = make_dua(k, m, lay.d, lay.lam)
        manual = make_wsms(k, m, lay.d, lay.d, lay.lam)
        worst = max(
            worst,
            float(np.max(np.abs(element_positions(dua) - element_positions(manual)))),
        )
    return CheckOutcome("uniform_mirrors", worst <= 1e-12, worst, 1e-12)


# ---------------------------------------------------------------------------
# steering bundles
# ---------------------------------------------------------------------------

def _bundle_set(lay, geom, n_r):
    tx_sw = sw_tx_bundle(lay, geom)
    tx_h = hspw_tx_bundle(lay, geom)
    tx_p = pw_tx_bundle(lay, geom)
    rx = rx_bundle(lay, n_r, geom)
    comp = composite_bundle(tx_sw, rx)
    return {"sw": tx_sw, "hspw": tx_h, "pw": tx_p, "rx": rx, "composite": comp}


def check_steering_norms() -> CheckOutcome:
    worst = 0.0
    lay = _std_layout(3, 8, 4)
    for theta in (-0.9, 0.0, 0.5):
        geom = SceneGeometry(r=5.0, theta=theta, big_r=20.0)
        for b in _bundle_set(lay, geom, 6).values():
            worst = max(worst, abs(float(np.linalg.norm(b.value)) - 1.0))
    return CheckOutcome("steering_unit_norm", worst <= 1e-12, worst, 1e-12)


def check_steering_derivatives() -> CheckOutcome:
    """Analytic bundle derivatives against central finite differences."""
    worst = 0.0
    lay = _std_layout(3, 8, 4)
    n_r = 6
    builders = {
        "sw": lambda g: sw_tx_bundle(lay, g),
        "hspw": lambda g: hspw_tx_bundle(lay, g),
        "pw": lambda g: pw_tx_bundle(lay, g),
        "rx": lambda g: rx_bundle(lay, n_r, g),
        "composite": lambda g: composite_bundle(sw_tx_bundle(lay, g), rx_bundle(lay, n_r, g)),
    }
    h = 1e-7
    for theta in (-0.9, 0.0, 0.5):
        geom = SceneGeometry(r=5.0, theta=theta, big_r=20.0)
        for build in builders.values():
            b = build(geom)
            fd_t = (
                build(replace(geom, theta=theta + h)).value
                - build(replace(geom, theta=theta - h)).value
            ) / (2 * h)
            fd_r = (
                build(replace(geom, r=geom.r + h * geom.r)).value
                - build(replace(geom, r=geom.r - h * geom.r)).value
            ) / (2 * h * geom.r)
            err_t = float(np.linalg.norm(b.d_theta - fd_t)) / (1.0 + float(np.linalg.norm(b.d_theta)))
            err_r = float(np.linalg.norm(b.d_r - fd_r)) / (1.0 + float(np.linalg.norm(b.d_r)))
            worst = max(worst, err_t, err_r)
    return CheckOutcome("steering_derivatives_vs_fd", worst <= 1e-6, worst, 1e-6)


def check_planar_limit() -> CheckOutcome:
    """Spherical phases converge to planar phases as r grows (fixed aperture)."""
    lay = _std_layout(2, 8, 3)
    ap = aperture(lay)
    theta = 0.4
    devs = []
    for scale in (1e2, 1e3, 1e4):
        r = scale * ap
        geom = SceneGeometry(r=r, theta=theta, big_r=10 * r)
        sw = sw_tx_bundle(lay, geom).value
        pw = pw_tx_bundle(lay, geom).value
        k0 = 2.0 * math.pi / lay.lam
        align = np.exp(1j * k0 * r)
        devs.append(float(np.max(np.abs(np.angle(sw * np.conj(pw) * align)))))
    ok = devs[0] > devs[1] > devs[2]
    return CheckOutcome(
        "planar_limit_decay",
        ok,
        devs[-1],
        devs[0],
        note=f"phase deviation {devs[0]:.2e} -> {devs[1]:.2e} -> {devs[2]:.2e}",
    )


# ---------------------------------------------------------------------------
# sum formulas
# ---------------------------------------------------------------------------

def check_direct_sum_identity() -> CheckOutcome:
    """s_r2 = n - cos^2(theta) s_theta2 and the s_theta2 range bound."""
    rng = np.random.default_rng(20260801)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 13))
        m = int(rng.integers(1, 65))
        i = int(rng.integers(0, 11))
        lay = _std_layout(k, m, i)
        theta = float(rng.uniform(-1.4, 1.4))
        r = float(rng.uniform(0.5, 50.0))
        geom = SceneGeometry(r=r, theta=theta, big_r=100.0)
        for sums in (cf.sw_sums_direct(lay, geom), cf.hspw_sums_direct(lay, geom)):
            ident = sums.n - math.cos(theta) ** 2 * sums.s_theta2
            worst = max(worst, _rel(sums.s_r2, ident))
            bound = sums.n / math.cos(theta) ** 2
            if not 0.0 <= sums.s_theta2 <= bound * (1 + 1e-12):
                worst = max(worst, 1.0)
    return CheckOutcome("direct_sum_identity", worst <= 1e-12, worst, 1e-12)


def check_broadside_odd_sums() -> CheckOutcome:
    """s_theta and s_thetar vanish on broadside (exactly for direct sums)."""
    rng = np.random.default_rng(20260802)
    worst_direct = 0.0
    worst_riemann = 0.0
    for _ in range(20):
        lay = _std_layout(int(rng.integers(1, 13)), int(rng.integers(2, 129)), int(rng.integers(0, 11)))
        geom = SceneGeometry(r=float(rng.uniform(1.0, 40.0)), theta=0.0, big_r=100.0)
        sd = cf.sw_sums_direct(lay, geom)
        worst_direct = max(worst_direct, abs(sd.s_theta), abs(sd.s_thetar))
        sr = cf.sw_sums_riemann(lay, geom)
        worst_riemann = max(worst_riemann, abs(sr.s_theta), abs(sr.s_thetar))
    ok = worst_direct <= 1e-12 and worst_riemann <= 1e-10
    return CheckOutcome(
        "broadside_odd_sums_vanish",
        ok,
        max(worst_direct, worst_riemann),
        1e-10,
        note=f"direct worst {worst_direct:.1e}, closed worst {worst_riemann:.1e}",
    )


def check_riemann_tracks_direct() -> CheckOutcome:
    """Closed-form sum error shrinks as K grows (outer midpoint rule).

    The outer rule integrates across K subarray cells, so the x^2-shaped
    angle sums carry an irreducible relative error of about 1/(K^2 - 1)
    (12.5% at K=3) however dense the subarrays are; the range sums stay
    near-exact at every K.  Checked: angle-sum error non-increasing over K
    in {3, 6, 9, 12}, within 1% at K=12 and the 13% ceiling at K=3, and
    range-sum error below 1e-4 throughout.
    """
    geom = SceneGeometry(r=10.0, theta=math.pi / 4.0, big_r=50.0)
    angle_names = ("s_theta2", "s_theta", "s_thetar")
    range_names = ("s_r", "s_r2")
    errs = {name: [] for name in angle_names + range_names}
    for k in (3, 6, 9, 12):
        lay = _std_layout(k, 128, 3)
        exact = cf.sw_sums_direct(lay, geom)
        approx = cf.sw_sums_riemann(lay, geom)
        for name in errs:
            errs[name].append(
                abs(getattr(approx, name) - getattr(exact, name)) / abs(getattr(exact, name))
            )
    shrinking = all(
        a >= b - 1e-12 for name in angle_names for a, b in zip(errs[name], errs[name][1:])
    )
    range_flat = max(e for name in range_names for e in errs[name])
    worst_k12 = max(errs[name][-1] for name in angle_names)
    worst_k3 = max(errs[name][0] for name in angle_names)
    ok = shrinking and worst_k12 <= 0.01 and worst_k3 <= 0.13 and range_flat <= 1e-4
    return CheckOutcome(
        "closed_sums_convergence",
        ok,
        worst_k3,
        0.13,
        note=f"K=3 worst {worst_k3:.3f} (intrinsic ~1/(K^2-1)), K=12 worst {worst_k12:.4f}, shrinking={shrinking}",
    )


def check_broadside_specializations() -> CheckOutcome:
    """Broadside closed forms equal the general closed forms at theta = 0."""
    worst = 0.0
    for k, m, i, r in ((2, 128, 10, 10.0), (3, 64, 5, 7.0), (6, 16, 8, 20.0)):
        lay = _std_layout(k, m, i)
        geom = SceneGeometry(r=r, theta=0.0, big_r=100.0)
        a = cf.sw_theta0_sums(lay, r)
        b = cf.sw_sums_riemann(lay, geom)
        for name in ("s_theta2", "s_theta", "s_r", "s_r2", "s_thetar"):
            worst = max(worst, _rel(getattr(a, name), getattr(b, name)))
        psi0 = 2.0 * math.atan(0.5 * k * lay.big_d / r)
        c = cf.hspw_theta0_sums(k, psi0)
        d = cf.hspw_sums_closed(lay, geom)
        for name in ("s_theta2", "s_theta", "s_r", "s_r2", "s_thetar"):
            worst = max(worst, _rel(getattr(c, name), getattr(d, name)))
    return CheckOutcome("broadside_sum_specializations", worst <= 1e-12, worst, 1e-12)


# ---------------------------------------------------------------------------
# Fisher assembly and bounds
# ---------------------------------------------------------------------------

def check_assembly_equals_bundles() -> CheckOutcome:
    """Direct sums through the analytic assembly == bundle inner products."""
    worst = 0.0
    cases = [
        (2, 8, 3, 4.0, 0.3, 15.0, 4),
        (3, 16, 5, 9.0, -0.8, 31.0, 7),
        (12, 128, 3, 2.0, math.pi / 4.0, 60.0, 1),
    ]
    for k, m, i, r, theta, big_r, n_r in cases:
        lay = _std_layout(k, m, i)
        geom = SceneGeometry(r=r, theta=theta, big_r=big_r)
        for model in ("sw", "hspw"):
            by_bundle = bundle_fisher(lay, geom, n_r, model=model)
            by_sums = sums_fisher(lay, geom, n_r, model=model, method="direct")
            for attr in ("q11", "q12", "q22"):
                worst = max(worst, _rel(getattr(by_bundle, attr), getattr(by_sums, attr)))
    return CheckOutcome(
        "sum_assembly_equals_bundles",
        worst <= 1e-6,
        worst,
        1e-6,
        note="identity is algebraic; float gap grows with the far-field q22 cancellation",
    )


def check_oracle_agreement() -> CheckOutcome:
    """Engine bounds against the finite-difference Fisher oracle."""
    worst = 0.0
    cases = [
        ("sw", 2, 8, 3, 4.0, 0.3, 15.0, 4),
        ("sw", 3, 12, 4, 8.0, -0.6, 25.0, 6),
        ("hspw", 4, 8, 5, 6.0, 0.2, 20.0, 3),
    ]
    for model, k, m, i, r, theta, big_r, n_r in cases:
        lay = _std_layout(k, m, i)
        geom = SceneGeometry(r=r, theta=theta, big_r=big_r)
        mine = bundle_crb(lay, geom, n_r, model=model)
        orc = full_fisher_oracle(lay, geom, n_r, model=model)
        worst = max(worst, _rel(mine.crb_theta, orc.crb_theta))
        worst = max(worst, _rel(mine.crb_r, orc.crb_r))
        orc2 = full_fisher_oracle(lay, geom, n_r, model=model, training="dft")
        worst = max(worst, _rel(orc.crb_theta, orc2.crb_theta))
        if abs(orc.alpha_cross) > 1e-12:
            worst = max(worst, 1.0)
    return CheckOutcome("bounds_vs_fd_oracle", worst <= 1e-4, worst, 1e-4)


def check_scaling_law() -> CheckOutcome:
    """(cK, big_d/c) rescale multiplies the closed sums by c, bounds by 1/c."""
    lay = _std_layout(3, 128, 8)
    geom = SceneGeometry(r=10.0, theta=math.pi / 4.0, big_r=50.0)
    rc = ratio_check(lay, geom, 1, factor=2)
    worst = 0.0
    for v in rc.sum_ratios.values():
        worst = max(worst, abs(v - rc.expected))
    worst = max(worst, abs(rc.crb_theta_ratio - rc.expected))
    worst = max(worst, abs(rc.crb_r_ratio - rc.expected))
    return CheckOutcome("kd_scaling_law", worst <= 1e-9, worst, 1e-9)


def check_broadside_crbs() -> CheckOutcome:
    """Broadside bound specializations and receiver-independence of crb_r."""
    worst = 0.0
    lay = _std_layout(12, 128, 10)
    geom = SceneGeometry(r=10.0, theta=0.0, big_r=31.0)
    a = sw_crb_theta0(lay, geom, 18)
    b = sw_crb_closed(lay, geom, 18, method="riemann")
    worst = max(worst, _rel(a.crb_theta, b.crb_theta), _rel(a.crb_r, b.crb_r))
    # at one fixed gain: the unit-gain helpers' beta^2 = N_r N_t grows with n_r
    sums = cf.sw_theta0_sums(lay, geom.r)
    rs = [crb(sw_fisher_from_sums(sums, lay, geom, n_r), 128.0, 1.0).crb_r for n_r in (1, 18, 35)]
    worst = max(worst, _rel(min(rs), max(rs)))
    lay2 = _std_layout(2, 128, 10)
    geom2 = SceneGeometry(r=10.0, theta=0.0, big_r=50.0)
    c = hspw_crb_theta0(lay2, geom2, 12)
    d = hspw_crb_closed(lay2, geom2, 12, method="riemann")
    worst = max(worst, _rel(c.crb_theta, d.crb_theta), _rel(c.crb_r, d.crb_r))
    return CheckOutcome("broadside_bound_specializations", worst <= 1e-10, worst, 1e-10)


def check_span_asymptotes() -> CheckOutcome:
    """Hybrid broadside angle bound: monotone in the gap, bracketed by limits."""
    m, n_r, r, big_r = 128, 12, 10.0, 50.0
    geom = SceneGeometry(r=r, theta=0.0, big_r=big_r)
    lay0 = _std_layout(2, m, 0)
    asym = hspw_crb_asymptotes(lay0, geom, n_r)
    values = []
    for i in range(0, 21, 2):
        lay = _std_layout(2, m, i)
        # K=2 at broadside has an exactly singular (theta, r) block: the
        # range bound is lost but the scalar angle bound stays finite.
        nf = bundle_fisher(lay, geom, n_r, model="hspw")
        beta_sq = received_gain_sq(1.0 + 0.0j, n_r, lay.n_elements)
        values.append(crb_theta_only(nf, beta_sq, 1.0))
    monotone = all(a > b for a, b in zip(values, values[1:]))
    bracketed = all(asym.crb_theta_span_pi < v < asym.crb_theta_span_zero for v in values)
    tail = (values[-1] - asym.crb_theta_span_pi) / asym.crb_theta_span_pi
    ok = monotone and bracketed and tail < 0.01
    return CheckOutcome(
        "hybrid_span_asymptotes",
        ok,
        tail,
        0.01,
        note=f"monotone={monotone}, bracketed={bracketed}, tail gap {tail:.2e}",
    )


def check_riemann_theta_cap() -> CheckOutcome:
    """Angles beyond the closed-form cap are skipped, not silently wrong."""
    lay = _std_layout(3, 128, 3)
    skipped = 0
    failed = 0
    for theta in (1.3, 1.38, 1.45, 1.5):
        geom = SceneGeometry(r=10.0, theta=theta, big_r=50.0)
        try:
            cf.sw_sums_riemann(lay, geom)
        except SingularityNearPi2:
            skipped += 1
            if theta <= cf.THETA_RIEMANN_CAP:
                failed += 1
    ok = failed == 0 and skipped == 1
    return CheckOutcome(
        "closed_form_theta_cap",
        ok,
        float(skipped),
        1.0,
        note=f"{skipped} grid point(s) skipped by precondition |theta| <= {cf.THETA_RIEMANN_CAP}",
    )


def check_wide_spacing_wins() -> CheckOutcome:
    """Broadside: wide spacing beats the sparse uniform mirror; the span-angle
    antiderivative behind that ordering is strictly increasing."""
    geom = SceneGeometry(r=10.0, theta=0.0, big_r=50.0)
    ok = True
    margin = math.inf
    for i in (2, 6, 10):
        lay = _std_layout(3, 128, i)
        comp = compare_wsms_ua(lay, geom, 1)
        ok = ok and comp.wsms.crb_theta < comp.ua.crb_theta
        margin = min(margin, comp.ua.crb_theta / comp.wsms.crb_theta - 1.0)
    grid = np.linspace(0.05, 1.5, 40)
    vals = [cf.g_theta2_psi0(float(p)) for p in grid]
    increasing = all(a < b for a, b in zip(vals, vals[1:]))
    ok = ok and increasing
    return CheckOutcome(
        "wide_spacing_beats_sparse_mirror",
        ok,
        margin,
        0.0,
        note=f"min margin {margin:.2e}, span antiderivative increasing={increasing}",
    )


ALL_CHECKS = (
    check_triangle_range,
    check_arrival_angle,
    check_aoa_derivatives,
    check_span_roundtrip,
    check_layout_positions,
    check_uniform_mirrors,
    check_steering_norms,
    check_steering_derivatives,
    check_planar_limit,
    check_direct_sum_identity,
    check_broadside_odd_sums,
    check_riemann_tracks_direct,
    check_broadside_specializations,
    check_assembly_equals_bundles,
    check_oracle_agreement,
    check_scaling_law,
    check_broadside_crbs,
    check_span_asymptotes,
    check_riemann_theta_cap,
    check_wide_spacing_wins,
)


def run_all(stream) -> int:
    """Run every check, print one line each, return 0/1 like a process."""
    outcomes = [fn() for fn in ALL_CHECKS]
    width = max(len(o.name) for o in outcomes) + 2
    failures = 0
    for o in outcomes:
        status = "PASS" if o.passed else "FAIL"
        if not o.passed:
            failures += 1
        line = f"{o.name:<{width}} {status}  worst={o.worst:.3e}  tol={o.tol:.1e}"
        if o.note:
            line += f"  [{o.note}]"
        print(line, file=stream)
    print(
        f"{len(outcomes) - failures}/{len(outcomes)} checks passed",
        file=stream,
    )
    return 0 if failures == 0 else 1
