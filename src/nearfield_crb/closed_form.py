"""Sum formulas for spherical-wave Fisher assemblies, exact and closed form.

Five scalar sums over normalized element offsets x = position / r capture
everything the spherical-wave Fisher block needs:

    s_theta2 = sum x^2 / nu1          s_theta = sum x / sqrt(nu1)
    s_r      = sum (x s - 1) / sqrt(nu1)
    s_r2     = sum (x s - 1)^2 / nu1  s_thetar = sum x (x s - 1) / nu1

with nu1 = 1 - 2 x sin(theta) + x^2 and s = sin(theta).  The "direct"
functions evaluate them exactly (exactly rounded summation, so the odd sums
vanish exactly on broadside).  The "riemann" / "closed" functions treat each
sum as a midpoint Riemann approximation of an integral over the aperture and
evaluate antiderivatives at the partition edges: for the element-level sums
a double integral (over the subarray extent and the subarray-centre extent,
hence second-level antiderivatives g_*), for the subarray-level sums a
single integral (first-level antiderivatives f_*).

Each partition edge is evaluated once: one pass computes every
antiderivative a sum needs there, sharing sin(theta), cos(theta), nu1,
sqrt(nu1), arctan(nu2) and the logarithms between them.  The public f_* /
g_* functions each return one entry of that pass, so every formula is
written once and the sums use exactly the arithmetic the functions do.

Since nu1 = (x - sin theta)^2 + cos^2(theta) >= cos^2(theta) > 0 for
|theta| < pi/2, every logarithm and inverse hyperbolic tangent below is
well defined on that whole strip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .array_layouts import ArrayLayout, element_positions, subarray_centers
from .errors import DomainError, SingularFisher, SingularityNearPi2
from .geometry import SceneGeometry

# Above this |theta| the closed-form evaluation loses accuracy fast as the
# integrands pile up near the theta -> pi/2 singularity; callers get an error
# instead of quietly degrading numbers.  The direct sums have no such cap.
THETA_RIEMANN_CAP = 1.45


@dataclass(frozen=True)
class SumFormulas:
    """The five aperture sums plus the number of summed terms."""

    s_theta2: float
    s_theta: float
    s_r: float
    s_r2: float
    s_thetar: float
    n: int


@dataclass(frozen=True)
class RiemannBounds:
    """Partition-edge offsets (normalized by r) for the double midpoint sum.

    x1 < x2 <= x3 < x4 whenever the subarray extent is smaller than the
    centre extent; x4 = -x1 and x3 = -x2 exactly.
    """

    x1: float
    x2: float
    x3: float
    x4: float
    delta_d: float
    delta_big_d: float


# ---------------------------------------------------------------------------
# scalar building blocks
# ---------------------------------------------------------------------------

def _nu1(x, s):
    # s = sin(theta); x may be a float or an ndarray of offsets
    return 1.0 - 2.0 * x * s + x * x


def nu1(x: float, theta: float) -> float:
    return _nu1(x, math.sin(theta))


def nu2(x: float, theta: float) -> float:
    return (x - math.sin(theta)) / math.cos(theta)


def _artanh(z: float) -> float:
    # The analytic arguments here satisfy |z| < 1, but for an aperture far
    # wider than the range they round onto 1 (or overflow to NaN).
    if not abs(z) < 1.0:
        raise DomainError(f"artanh needs |z| < 1, got {z!r}")
    return 0.5 * math.log((1.0 + z) / (1.0 - z))


def _angle(theta: float) -> tuple:
    """The antiderivatives' constants at one angle: sin, cos, cos(2 theta) / cos, tan."""
    s, c = math.sin(theta), math.cos(theta)
    return s, c, math.cos(2.0 * theta) / c, math.tan(theta)


def _edge(x: float, s: float, c: float) -> tuple:
    """The values every antiderivative draws on at one edge x.

    Returns u = x - sin(theta), nu2 = u / cos(theta), q = sqrt(nu1),
    ln(nu1), arctan(nu2) and ln(q + u).  For u < 0 the sum q + u cancels,
    so its logarithm is taken through (q + u)(q - u) = cos^2(theta), which
    keeps it stable for large negative x.  nu1 >= cos^2(theta) > 0 in
    exact arithmetic, but where sin(theta) rounds to 1 an edge at x = 1
    gives nu1 = 0: a DomainError, as in the direct sums.
    """
    u = x - s
    nu = _nu1(x, s)
    if nu <= 0.0:
        raise DomainError(f"nu1 <= 0 at x = {x!r}, sin(theta) = {s!r}")
    q = math.sqrt(nu)
    v = u / c
    if u >= 0.0:
        log_q_plus_u = math.log(q + u)
    else:
        log_q_plus_u = 2.0 * math.log(c) - math.log(q - u)
    return u, v, q, math.log(nu), math.atan(v), log_q_plus_u


# ---------------------------------------------------------------------------
# antiderivatives, each edge evaluated in one pass
#
# ``_first_level`` and ``_second_level`` are the only place each formula is
# written; the sums take whole tuples from them, and every public f_* / g_*
# below is a projection of one entry.  ``odd`` False skips the one entry
# that needs artanh (None in its place): the sums skip it on broadside,
# where its four-point combination vanishes.
# ---------------------------------------------------------------------------

def _first_level(x: float, angle: tuple, odd: bool) -> tuple:
    """First-level antiderivatives (single integral over the aperture) at x.

    Returns the antiderivatives of x^2 / nu1, x / sqrt(nu1) (the artanh
    entry), 1 / sqrt(nu1) and x / nu1, in that order.
    """
    s, c, cos2_over_c, tan = angle
    u, v, q, log_nu1, atan_nu2, log_q_plus_u = _edge(x, s, c)
    x2_over_nu1 = x + s * log_nu1 - cos2_over_c * atan_nu2
    x_over_sqrt_nu1 = q + s * _artanh(u / q) if odd else None
    x_over_nu1 = tan * atan_nu2 + 0.5 * log_nu1
    return x2_over_nu1, x_over_sqrt_nu1, log_q_plus_u, x_over_nu1


def _second_level(x: float, angle: tuple, odd: bool) -> tuple:
    """Second-level antiderivatives (subarray x centre extents) at x.

    Returns g_theta2, g_theta (the artanh entry), g_thetar and g_r, then
    the first-level helpers they compose from: the antiderivatives of
    ln(nu1), arctan(nu2), sqrt(nu1) and artanh((x - sin theta) / sqrt(nu1))
    (None with g_theta).  g_r is itself the helper antiderivative of
    ln(sqrt(nu1) + x - sin theta).
    """
    s, c, cos2_over_c, tan = angle
    u, v, q, log_nu1, atan_nu2, log_q_plus_u = _edge(x, s, c)
    f_log = u * log_nu1 - 2.0 * x + 2.0 * c * atan_nu2
    f_atan = c * (v * atan_nu2 - 0.5 * math.log(v * v + 1.0))
    f_sqrt = 0.5 * u * q + 0.5 * c * c * log_q_plus_u
    f_log_shift = u * log_q_plus_u - q
    g2 = 0.5 * x * x + s * f_log - cos2_over_c * f_atan
    gtr = tan * f_atan + 0.5 * f_log
    if odd:
        f_artanh = u * _artanh(u / q) - q
        gt = f_sqrt + s * f_artanh
    else:
        f_artanh = gt = None
    return g2, gt, gtr, f_log_shift, f_log, f_atan, f_sqrt, f_artanh


def f_x2_over_nu1(x: float, theta: float) -> float:
    """Antiderivative of x^2 / nu1."""
    return _first_level(x, _angle(theta), odd=False)[0]


def f_x_over_sqrt_nu1(x: float, theta: float) -> float:
    """Antiderivative of x / sqrt(nu1)."""
    return _first_level(x, _angle(theta), odd=True)[1]


def f_one_over_sqrt_nu1(x: float, theta: float) -> float:
    """Antiderivative of 1 / sqrt(nu1)."""
    return _first_level(x, _angle(theta), odd=False)[2]


def f_x_over_nu1(x: float, theta: float) -> float:
    """Antiderivative of x / nu1."""
    return _first_level(x, _angle(theta), odd=False)[3]


# helper antiderivatives the second level composes from

def f_log_nu1(x: float, theta: float) -> float:
    """Antiderivative of ln(nu1)."""
    return _second_level(x, _angle(theta), odd=False)[4]


def f_atan_nu2(x: float, theta: float) -> float:
    """Antiderivative of arctan(nu2)."""
    return _second_level(x, _angle(theta), odd=False)[5]


def f_sqrt_nu1(x: float, theta: float) -> float:
    """Antiderivative of sqrt(nu1)."""
    return _second_level(x, _angle(theta), odd=False)[6]


def f_artanh_shift(x: float, theta: float) -> float:
    """Antiderivative of artanh((x - sin theta) / sqrt(nu1))."""
    return _second_level(x, _angle(theta), odd=True)[7]


def f_log_shift(x: float, theta: float) -> float:
    """Antiderivative of ln(sqrt(nu1) + x - sin theta)."""
    return _second_level(x, _angle(theta), odd=False)[3]


def g_theta2(x: float, theta: float) -> float:
    """Antiderivative of f_x2_over_nu1."""
    return _second_level(x, _angle(theta), odd=False)[0]


def g_theta(x: float, theta: float) -> float:
    """Antiderivative of f_x_over_sqrt_nu1."""
    return _second_level(x, _angle(theta), odd=True)[1]


def g_thetar(x: float, theta: float) -> float:
    """Antiderivative of f_x_over_nu1."""
    return _second_level(x, _angle(theta), odd=False)[2]


def g_r(x: float, theta: float) -> float:
    """Antiderivative of f_one_over_sqrt_nu1."""
    return _second_level(x, _angle(theta), odd=False)[3]


def g_theta2_psi0(psi: float) -> float:
    """Broadside form of g_theta2 in span-angle coordinates (x = tan psi).

    Strictly increasing on (0, pi/2): its derivative is
    (tan(psi) - psi) sec^2(psi) > 0.
    """
    if not abs(psi) < math.pi / 2.0:
        raise DomainError(f"|psi| < pi/2 required, got {psi!r}")
    t = math.tan(psi)
    return 0.5 * t * t - psi * t - math.log(math.cos(psi))


# ---------------------------------------------------------------------------
# direct (exact) sums
# ---------------------------------------------------------------------------

def _direct_sums(x: np.ndarray, theta: float) -> SumFormulas:
    """The five sums over the normalized offsets x, each exactly rounded.

    Every term is formed with the operations of ``nu1`` in the same order,
    and numpy rounds each of them correctly, so the terms are the ones a
    per-element loop would give; ``math.fsum`` rounds each sum of
    them exactly, whatever their order.  Broadside odd sums are therefore
    exact zeros.  Like scalar float arithmetic, the terms overflow to inf or
    NaN silently.
    """
    s = math.sin(theta)
    with np.errstate(over="ignore", invalid="ignore"):
        v = _nu1(x, s)
        bad = np.flatnonzero(v <= 0.0)
        if bad.size:
            raise DomainError(f"nu1 <= 0 at x = {float(x[bad[0]])!r}, theta = {theta!r}")
        q = np.sqrt(v)
        u = x * s - 1.0
        terms = (x * x / v, x / q, u / q, u * u / v, x * u / v)
    return SumFormulas(*(math.fsum(t.tolist()) for t in terms), n=x.size)


def sw_sums_direct(layout: ArrayLayout, geom: SceneGeometry) -> SumFormulas:
    """Exact element-level sums for the spherical-wave model."""
    return _direct_sums(element_positions(layout) / geom.r, geom.theta)


def hspw_sums_direct(layout: ArrayLayout, geom: SceneGeometry) -> SumFormulas:
    """Exact subarray-centre sums for the hybrid spherical/planar model."""
    return _direct_sums(subarray_centers(layout) / geom.r, geom.theta)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def riemann_bounds(layout: ArrayLayout, r: float) -> RiemannBounds:
    """Partition edges of the double midpoint sum, normalized by r."""
    if not r > 0.0:
        raise DomainError(f"range must be positive, got {r!r}")
    delta_d = layout.d / r
    delta_big_d = layout.big_d / r
    half_inner = 0.5 * layout.M * delta_d
    half_outer = 0.5 * layout.K * delta_big_d
    return RiemannBounds(
        x1=-half_outer - half_inner,
        x2=-half_outer + half_inner,
        x3=half_outer - half_inner,
        x4=half_outer + half_inner,
        delta_d=delta_d,
        delta_big_d=delta_big_d,
    )


def _cell_weight(b: RiemannBounds, weight: float) -> float:
    """weight / (delta_d delta_big_d), the double midpoint sum's prefactor.

    The cell area underflows to zero at a range beyond ~1e154 cell sizes,
    where the sums carry no usable information.
    """
    try:
        return weight / (b.delta_d * b.delta_big_d)
    except ZeroDivisionError:
        raise SingularFisher("the closed form's cell area underflows against the range") from None


def _check_riemann_theta(theta: float) -> None:
    # The slack keeps grid points that should sit exactly on the cap (for
    # example linspace hitting 1.4500000000000002) from being rejected.
    if abs(theta) > THETA_RIEMANN_CAP + 1e-9:
        raise SingularityNearPi2(
            f"closed-form sums need |theta| <= {THETA_RIEMANN_CAP}, got {theta!r}; "
            "use the direct sums instead"
        )


def sw_sums_riemann(layout: ArrayLayout, geom: SceneGeometry) -> SumFormulas:
    """Closed-form element-level sums via the double midpoint approximation."""
    _check_riemann_theta(geom.theta)
    b = riemann_bounds(layout, geom.r)
    pref = _cell_weight(b, 1.0)
    angle = _angle(geom.theta)
    s, c = angle[0], angle[1]
    # The odd-symmetry sums vanish identically on broadside; evaluating
    # the four-point combination there returns only rounding noise
    # amplified by pref, so they are exact zeros and their terms are skipped.
    odd = geom.theta != 0.0
    g4 = _second_level(b.x4, angle, odd)
    g3 = _second_level(b.x3, angle, odd)
    g2 = _second_level(b.x2, angle, odd)
    g1 = _second_level(b.x1, angle, odd)

    def four_point(i):
        return g4[i] - g3[i] - g2[i] + g1[i]

    s_theta2 = pref * four_point(0)
    if odd:
        s_theta = pref * four_point(1)
        s_thetar = s * s_theta2 - pref * four_point(2)
    else:
        s_theta = 0.0
        s_thetar = 0.0
    s_r = s * s_theta - pref * four_point(3)
    n = layout.n_elements
    s_r2 = n - c ** 2 * s_theta2
    return SumFormulas(s_theta2, s_theta, s_r, s_r2, s_thetar, n)


def hspw_sums_closed(layout: ArrayLayout, geom: SceneGeometry) -> SumFormulas:
    """Closed-form subarray-centre sums via the single midpoint approximation."""
    b = riemann_bounds(layout, geom.r)
    a = 0.5 * layout.K * b.delta_big_d
    angle = _angle(geom.theta)
    s, c = angle[0], angle[1]
    hi, lo = _first_level(a, angle, True), _first_level(-a, angle, True)

    def edge_diff(i):
        return (hi[i] - lo[i]) / b.delta_big_d

    s_theta2 = edge_diff(0)
    s_theta = edge_diff(1)
    s_r = s * s_theta - edge_diff(2)
    s_thetar = s * s_theta2 - edge_diff(3)
    s_r2 = layout.K - c ** 2 * s_theta2
    return SumFormulas(s_theta2, s_theta, s_r, s_r2, s_thetar, layout.K)


# ---------------------------------------------------------------------------
# broadside specializations
# ---------------------------------------------------------------------------

def sw_theta0_sums(layout: ArrayLayout, r: float) -> SumFormulas:
    """Closed-form element-level sums on broadside (theta = 0).

    Even/odd symmetry collapses the four-point combination to twice the
    difference of the two positive partition edges and zeroes the odd sums.
    """
    b = riemann_bounds(layout, r)
    pref = _cell_weight(b, 2.0)
    angle = _angle(0.0)
    g4 = _second_level(b.x4, angle, odd=False)
    g3 = _second_level(b.x3, angle, odd=False)
    s_theta2 = pref * (g4[0] - g3[0])
    s_r = -pref * (g4[3] - g3[3])
    n = layout.n_elements
    return SumFormulas(
        s_theta2=s_theta2,
        s_theta=0.0,
        s_r=s_r,
        s_r2=n - s_theta2,
        s_thetar=0.0,
        n=n,
    )


def hspw_theta0_sums(k: int, psi0: float) -> SumFormulas:
    """Subarray-centre sums on broadside as functions of the aggregate span.

    psi0 is the full angle subtended at the target by the subarray-centre
    extent (psi0 = 2 arctan(K big_d / (2 r))); valid on (0, pi).  Note s_r
    is strictly negative.
    """
    if not (isinstance(k, int) and k >= 1):
        raise DomainError(f"subarray count must be an integer >= 1, got {k!r}")
    if not 0.0 < psi0 < math.pi:
        raise DomainError(f"aggregate span must lie in (0, pi), got {psi0!r}")
    half = 0.5 * psi0
    t = math.tan(half)
    ratio = psi0 / (2.0 * t)
    sp = math.sin(half)
    big_l = math.log((1.0 + sp) / (1.0 - sp))
    return SumFormulas(
        s_theta2=k * (1.0 - ratio),
        s_theta=0.0,
        s_r=-k * big_l / (2.0 * t),
        s_r2=k * ratio,
        s_thetar=0.0,
        n=k,
    )
