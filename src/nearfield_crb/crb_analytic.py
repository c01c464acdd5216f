"""Closed-form bound assemblies built on the aperture sum formulas.

The normalized (theta, r) Fisher block for the spherical-wave model is

    q11 = chi_nt (s_theta2/N - (s_theta/N)^2)            + chi_nr phi_theta^2
    q12 = chi_nt/(r cos t) (s_thetar/N - s_theta s_r/N^2) + chi_nr phi_theta phi_r
    q22 = chi_nt/(r^2 cos^2 t) (s_r2/N - (s_r/N)^2)       + chi_nr phi_r^2

with chi_nt = 4 pi^2 r^2 cos^2(theta)/lambda^2 the transmit curvature factor
and chi_nr = pi^2 d^2 (N_r^2 - 1)/(3 lambda^2) the receive aperture
factor of an N_r-element receiver at the transmit spacing d (phi_* are the
arrival-angle sensitivities).  The hybrid model swaps
in the subarray-centre sums (N -> K) and adds the within-subarray planar
term chi_m cos^2(theta) to q11 only, since a planar subarray carries angle
but no range information.

Feeding the *direct* sums through these assemblies reproduces the
first-principles bundle route exactly (same inner products, rearranged);
feeding the closed-form sums gives the fast approximations.

Every bound here is at unit gain (alpha = 1, so beta^2 = N_r N_t) and unit
noise; ``fisher_core.crb(nf, beta_sq, sigma_n_sq)`` scales a block to any
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .array_layouts import ArrayLayout, make_dua, make_ua, make_wsms, require_widely_spaced
from .closed_form import (
    SumFormulas,
    hspw_sums_closed,
    hspw_sums_direct,
    hspw_theta0_sums,
    sw_sums_direct,
    sw_sums_riemann,
    sw_theta0_sums,
)
from .errors import DomainError, SingularFisher
from .fisher_core import (
    _EPS,
    NOISE_FLOOR_MULT,
    CrbResult,
    NormalizedFisher,
    _unit_crb,
    bundle_crb,
    received_gain_sq,
    require_receiver_size,
)
from .geometry import SceneGeometry, dsinphi_dr, dsinphi_dtheta


@dataclass(frozen=True)
class ChiFactors:
    """Aperture prefactors of the Fisher assemblies."""

    chi_nt: float  # transmit curvature factor, 4 pi^2 r^2 cos^2(theta) / lambda^2
    chi_nr: float  # receive factor, pi^2 d^2 (N_r^2 - 1) / (3 lambda^2)
    chi_m: float   # within-subarray planar factor, pi^2 d^2 (M^2 - 1) / (3 lambda^2)


@dataclass(frozen=True)
class Theta0Asymptotes:
    """Broadside hybrid angle-bound limits for extreme aggregate spans."""

    crb_theta_span_pi: float    # aggregate span -> pi (floor: best possible)
    crb_theta_span_zero: float  # aggregate span -> 0 (ceiling for the TX part)


@dataclass(frozen=True)
class RatioCheck:
    """Scaling-law comparison between a layout and its (cK, D/c) rescale."""

    factor: int
    sum_ratios: dict
    crb_theta_ratio: float
    crb_r_ratio: float
    expected: float


@dataclass(frozen=True)
class LayoutComparison:
    """Bounds for a widely spaced layout and its two uniform mirrors."""

    wsms: CrbResult
    ua: CrbResult
    dua: CrbResult


def chi_factors(layout: ArrayLayout, geom: SceneGeometry, n_r: int) -> ChiFactors:
    require_receiver_size(n_r)
    lam = layout.lam
    c = math.cos(geom.theta)
    try:
        curvature = 4.0 * math.pi ** 2 * geom.r ** 2 * c * c / lam ** 2
        chi_nr = math.pi ** 2 * layout.d ** 2 * (n_r ** 2 - 1) / (3.0 * lam ** 2)
        chi_m = math.pi ** 2 * layout.d ** 2 * (layout.M ** 2 - 1) / (3.0 * lam ** 2)
    except (OverflowError, ZeroDivisionError):
        # a range beyond ~1e154 m, or a wavelength whose square underflows
        raise SingularFisher("the aperture factors overflow") from None
    return ChiFactors(chi_nt=curvature, chi_nr=chi_nr, chi_m=chi_m)


def _rx_sensitivities(geom: SceneGeometry, chi_nr: float):
    # a single receive element (zero receive factor) has no aperture, so its
    # placement never enters: skip the arrival-angle derivatives, as
    # fisher_core.rx_bundle does, rather than constrain big_r and vartheta
    if chi_nr == 0.0:
        return 0.0, 0.0
    return dsinphi_dtheta(geom), dsinphi_dr(geom)


def _assemble(
    sums: SumFormulas,
    chi_tx: float,
    geom: SceneGeometry,
    chi_nr: float,
    phi_theta: float,
    phi_r: float,
    planar_11: float = 0.0,
) -> NormalizedFisher:
    n = sums.n
    r, c = geom.r, math.cos(geom.theta)
    if r * r * c * c == 0.0:
        # below a range of ~1e-154 m the range terms divide by zero
        raise SingularFisher("r^2 cos^2(theta) underflows: the range is too small")
    q11 = chi_tx * (sums.s_theta2 / n - (sums.s_theta / n) ** 2) + planar_11 + chi_nr * phi_theta ** 2
    q12 = (
        chi_tx / (r * c) * (sums.s_thetar / n - sums.s_theta * sums.s_r / n ** 2)
        + chi_nr * phi_theta * phi_r
    )
    q22 = (
        chi_tx / (r * r * c * c) * (sums.s_r2 / n - (sums.s_r / n) ** 2)
        + chi_nr * phi_r ** 2
    )
    # Round-off floors from the pre-cancellation magnitudes: the variance
    # factors subtract same-sign quantities, so anything below these is
    # numerically zero information, not a usable bound.
    floor_mult = NOISE_FLOOR_MULT * _EPS
    q11_floor = floor_mult * (
        chi_tx * (abs(sums.s_theta2) / n + (sums.s_theta / n) ** 2)
        + abs(planar_11)
        + chi_nr * phi_theta ** 2
    )
    q22_floor = floor_mult * (
        chi_tx / (r * r * c * c) * (abs(sums.s_r2) / n + (sums.s_r / n) ** 2)
        + chi_nr * phi_r ** 2
    )
    return NormalizedFisher(
        q11=q11, q12=q12, q22=q22, q11_floor=q11_floor, q22_floor=q22_floor
    )


def sw_fisher_from_sums(
    sums: SumFormulas,
    layout: ArrayLayout,
    geom: SceneGeometry,
    n_r: int,
) -> NormalizedFisher:
    """Spherical-wave normalized Fisher block from element-level sums."""
    if sums.n != layout.n_elements:
        raise DomainError(
            f"sums cover {sums.n} terms but the layout has {layout.n_elements} elements"
        )
    chi = chi_factors(layout, geom, n_r)
    phi_theta, phi_r = _rx_sensitivities(geom, chi.chi_nr)
    return _assemble(sums, chi.chi_nt, geom, chi.chi_nr, phi_theta, phi_r)


def hspw_fisher_from_sums(
    sums: SumFormulas,
    layout: ArrayLayout,
    geom: SceneGeometry,
    n_r: int,
) -> NormalizedFisher:
    """Hybrid normalized Fisher block from subarray-centre sums."""
    if sums.n != layout.K:
        raise DomainError(
            f"sums cover {sums.n} terms but the layout has {layout.K} subarrays"
        )
    chi = chi_factors(layout, geom, n_r)
    phi_theta, phi_r = _rx_sensitivities(geom, chi.chi_nr)
    planar = chi.chi_m * math.cos(geom.theta) ** 2
    return _assemble(sums, chi.chi_nt, geom, chi.chi_nr, phi_theta, phi_r, planar_11=planar)


# (wave model, method) -> the sums that feed the model's assembly: "direct"
# sums reproduce the bundle route, "riemann" sums are the closed forms.
_SUMS = {
    ("sw", "direct"): sw_sums_direct,
    ("sw", "riemann"): sw_sums_riemann,
    ("hspw", "direct"): hspw_sums_direct,
    ("hspw", "riemann"): hspw_sums_closed,
}


def sums_fisher(
    layout: ArrayLayout, geom: SceneGeometry, n_r: int, *, model: str, method: str
) -> NormalizedFisher:
    """Normalized Fisher block from the sums ``method`` gives for ``model``."""
    if (model, method) not in _SUMS:
        raise DomainError(
            f"no sum formulas for model {model!r} with method {method!r} "
            f"(expected one of {sorted(_SUMS)})"
        )
    if model == "hspw":
        require_widely_spaced(layout, "the hybrid model")
    sums = _SUMS[model, method](layout, geom)
    assemble = sw_fisher_from_sums if model == "sw" else hspw_fisher_from_sums
    return assemble(sums, layout, geom, n_r)


def sw_crb_closed(
    layout: ArrayLayout, geom: SceneGeometry, n_r: int, *, method: str = "riemann"
) -> CrbResult:
    """Spherical-wave bounds via the sum formulas (exact or closed form)."""
    return _unit_crb(sums_fisher(layout, geom, n_r, model="sw", method=method), layout, n_r)


def hspw_crb_closed(
    layout: ArrayLayout, geom: SceneGeometry, n_r: int, *, method: str = "riemann"
) -> CrbResult:
    """Hybrid-model bounds via the subarray-centre sums."""
    return _unit_crb(sums_fisher(layout, geom, n_r, model="hspw", method=method), layout, n_r)


def sw_crb_theta0(layout: ArrayLayout, geom: SceneGeometry, n_r: int) -> CrbResult:
    """Broadside spherical-wave bounds from the two-point closed form.

    The cross term vanishes on broadside, so the angle and range bounds
    decouple; the range bound carries no receive-side contribution at all
    (it is independent of the receiver size at fixed gain).
    """
    if geom.theta != 0.0:
        raise DomainError(f"broadside form needs theta = 0, got {geom.theta!r}")
    nf = sw_fisher_from_sums(sw_theta0_sums(layout, geom.r), layout, geom, n_r)
    return _unit_crb(nf, layout, n_r)


def hspw_crb_theta0(layout: ArrayLayout, geom: SceneGeometry, n_r: int) -> CrbResult:
    """Broadside hybrid bounds through the layout's aggregate span.

    The span is psi0 = 2 arctan(K big_d / (2 r)); ``hspw_crb_asymptotes``
    gives its limits.
    """
    if geom.theta != 0.0:
        raise DomainError(f"broadside form needs theta = 0, got {geom.theta!r}")
    require_widely_spaced(layout, "the hybrid model")
    psi0 = 2.0 * math.atan(0.5 * layout.K * layout.big_d / geom.r)
    nf = hspw_fisher_from_sums(hspw_theta0_sums(layout.K, psi0), layout, geom, n_r)
    return _unit_crb(nf, layout, n_r)


def hspw_crb_asymptotes(layout: ArrayLayout, geom: SceneGeometry, n_r: int) -> Theta0Asymptotes:
    """Limits of the broadside hybrid angle bound for extreme spans.

    As the aggregate span approaches pi the subarray-centre sum saturates
    (s_theta2 -> K) and the angle bound reaches its floor; as the span
    approaches 0 the curvature term drops out entirely and only the
    within-subarray and receive apertures remain.  The range bound diverges
    in both limits, so only the angle values are reported.
    """
    if geom.theta != 0.0:
        raise DomainError(f"broadside form needs theta = 0, got {geom.theta!r}")
    require_widely_spaced(layout, "the hybrid model")
    chi = chi_factors(layout, geom, n_r)
    phi_theta, _ = _rx_sensitivities(geom, chi.chi_nr)
    rx_term = chi.chi_nr * phi_theta ** 2
    pref = 1.0 / (2.0 * received_gain_sq(1.0, n_r, layout.n_elements))
    q11_floor = chi.chi_nt + chi.chi_m + rx_term  # span -> pi: s_theta2/K -> 1
    q11_ceiling = chi.chi_m + rx_term             # span -> 0: s_theta2/K -> 0
    if q11_ceiling <= 0.0:
        raise SingularFisher("angle information vanishes in the zero-span limit for this setup")
    return Theta0Asymptotes(
        crb_theta_span_pi=pref / q11_floor,
        crb_theta_span_zero=pref / q11_ceiling,
    )


def ratio_check(
    layout: ArrayLayout,
    geom: SceneGeometry,
    n_r: int,
    *,
    factor: int = 2,
) -> RatioCheck:
    """Verify the K*big_d scaling law on the closed-form route.

    Rescaling a layout to (factor*K, big_d/factor) preserves the partition
    edges, so every closed-form sum scales by exactly `factor` and both
    bounds scale by exactly 1/factor (the gain grows with the element
    count).  Returns base/scaled sum ratios and scaled/base bound ratios,
    all of which should equal 1/factor.
    """
    require_widely_spaced(layout, "the scaling law")
    if not (isinstance(factor, int) and factor >= 2):
        raise DomainError(f"factor must be an integer >= 2, got {factor!r}")
    big_d_scaled = layout.big_d / factor
    d0_scaled = big_d_scaled - (layout.M - 1) * layout.d
    scaled = make_wsms(layout.K * factor, layout.M, layout.d, d0_scaled, layout.lam)

    sums_base = sw_sums_riemann(layout, geom)
    sums_scaled = sw_sums_riemann(scaled, geom)
    names = ("s_theta2", "s_theta", "s_r", "s_r2", "s_thetar")
    sum_ratios = {}
    for name in names:
        a = getattr(sums_base, name)
        b = getattr(sums_scaled, name)
        if a == 0.0 and b == 0.0:
            # odd sums on broadside: identically zero on both sides, the
            # law holds vacuously
            sum_ratios[name] = 1.0 / factor
        else:
            sum_ratios[name] = a / b

    crb_base = sw_crb_closed(layout, geom, n_r, method="riemann")
    crb_scaled = sw_crb_closed(scaled, geom, n_r, method="riemann")
    return RatioCheck(
        factor=factor,
        sum_ratios=sum_ratios,
        crb_theta_ratio=crb_scaled.crb_theta / crb_base.crb_theta,
        crb_r_ratio=crb_scaled.crb_r / crb_base.crb_r,
        expected=1.0 / factor,
    )


def compare_wsms_ua(layout: ArrayLayout, geom: SceneGeometry, n_r: int) -> LayoutComparison:
    """Bounds for a widely spaced layout and its two uniform mirrors.

    Uses the first-principles bundle route.
    """
    require_widely_spaced(layout, "the mirror comparison")
    ua = make_ua(layout.K, layout.M, layout.d, layout.d0, layout.lam)
    dua = make_dua(layout.K, layout.M, layout.d, layout.lam)
    return LayoutComparison(
        wsms=bundle_crb(layout, geom, n_r, model="sw"),
        ua=bundle_crb(ua, geom, n_r, model="sw"),
        dua=bundle_crb(dua, geom, n_r, model="sw"),
    )
