"""The antiderivatives and closed-form sums as separate formulas.

Each function below re-derives sin(theta), cos(theta), nu1, sqrt(nu1),
atan(nu2) and log(nu1) itself, as the package did before it evaluated each
partition edge in one pass.  The code is kept verbatim as the reference
for ``test_closed_form``: the one-pass evaluators must give the very same
bits, and raise the same errors, as these.
"""

import math

from nearfield_crb.array_layouts import ArrayLayout
from nearfield_crb.closed_form import SumFormulas, _check_riemann_theta, riemann_bounds
from nearfield_crb.errors import DomainError
from nearfield_crb.geometry import SceneGeometry


def nu1(x: float, theta: float) -> float:
    return 1.0 - 2.0 * x * math.sin(theta) + x * x


def nu2(x: float, theta: float) -> float:
    return (x - math.sin(theta)) / math.cos(theta)


def _artanh(z: float) -> float:
    # The analytic arguments here satisfy |z| < 1, but for an aperture far
    # wider than the range they round onto 1 (or overflow to NaN).
    if not abs(z) < 1.0:
        raise DomainError(f"artanh needs |z| < 1, got {z!r}")
    return 0.5 * math.log((1.0 + z) / (1.0 - z))


def _log_q_plus_u(x: float, theta: float) -> float:
    """ln(sqrt(nu1) + x - sin theta), stable for large negative x.

    For u = x - sin(theta) < 0 the direct sum cancels; use
    (q + u)(q - u) = cos^2(theta) to rewrite it.
    """
    u = x - math.sin(theta)
    q = math.sqrt(nu1(x, theta))
    if u >= 0.0:
        return math.log(q + u)
    c = math.cos(theta)
    return 2.0 * math.log(c) - math.log(q - u)


# ---------------------------------------------------------------------------
# first-level antiderivatives (single integral over the aperture)
# ---------------------------------------------------------------------------

def f_x2_over_nu1(x: float, theta: float) -> float:
    """Antiderivative of x^2 / nu1."""
    s, c = math.sin(theta), math.cos(theta)
    return x + s * math.log(nu1(x, theta)) - (math.cos(2.0 * theta) / c) * math.atan(nu2(x, theta))


def f_x_over_sqrt_nu1(x: float, theta: float) -> float:
    """Antiderivative of x / sqrt(nu1)."""
    s = math.sin(theta)
    q = math.sqrt(nu1(x, theta))
    return q + s * _artanh((x - s) / q)


def f_one_over_sqrt_nu1(x: float, theta: float) -> float:
    """Antiderivative of 1 / sqrt(nu1)."""
    return _log_q_plus_u(x, theta)


def f_x_over_nu1(x: float, theta: float) -> float:
    """Antiderivative of x / nu1."""
    return math.tan(theta) * math.atan(nu2(x, theta)) + 0.5 * math.log(nu1(x, theta))


# helper antiderivatives the second level composes from

def f_log_nu1(x: float, theta: float) -> float:
    """Antiderivative of ln(nu1)."""
    s, c = math.sin(theta), math.cos(theta)
    return (x - s) * math.log(nu1(x, theta)) - 2.0 * x + 2.0 * c * math.atan(nu2(x, theta))


def f_atan_nu2(x: float, theta: float) -> float:
    """Antiderivative of arctan(nu2)."""
    c = math.cos(theta)
    v = nu2(x, theta)
    return c * (v * math.atan(v) - 0.5 * math.log(v * v + 1.0))


def f_sqrt_nu1(x: float, theta: float) -> float:
    """Antiderivative of sqrt(nu1)."""
    s, c = math.sin(theta), math.cos(theta)
    q = math.sqrt(nu1(x, theta))
    return 0.5 * (x - s) * q + 0.5 * c * c * _log_q_plus_u(x, theta)


def f_artanh_shift(x: float, theta: float) -> float:
    """Antiderivative of artanh((x - sin theta) / sqrt(nu1))."""
    s = math.sin(theta)
    q = math.sqrt(nu1(x, theta))
    u = x - s
    return u * _artanh(u / q) - q


def f_log_shift(x: float, theta: float) -> float:
    """Antiderivative of ln(sqrt(nu1) + x - sin theta)."""
    s = math.sin(theta)
    q = math.sqrt(nu1(x, theta))
    return (x - s) * _log_q_plus_u(x, theta) - q


# ---------------------------------------------------------------------------
# second-level antiderivatives (double integral: subarray x centre extents)
# ---------------------------------------------------------------------------

def g_theta2(x: float, theta: float) -> float:
    """Antiderivative of f_x2_over_nu1."""
    s, c = math.sin(theta), math.cos(theta)
    return 0.5 * x * x + s * f_log_nu1(x, theta) - (math.cos(2.0 * theta) / c) * f_atan_nu2(x, theta)


def g_theta(x: float, theta: float) -> float:
    """Antiderivative of f_x_over_sqrt_nu1."""
    return f_sqrt_nu1(x, theta) + math.sin(theta) * f_artanh_shift(x, theta)


def g_r(x: float, theta: float) -> float:
    """Antiderivative of f_one_over_sqrt_nu1."""
    return f_log_shift(x, theta)


def g_thetar(x: float, theta: float) -> float:
    """Antiderivative of f_x_over_nu1."""
    return math.tan(theta) * f_atan_nu2(x, theta) + 0.5 * f_log_nu1(x, theta)




def sw_sums_riemann(layout: ArrayLayout, geom: SceneGeometry) -> SumFormulas:
    """Closed-form element-level sums via the double midpoint approximation."""
    _check_riemann_theta(geom.theta)
    b = riemann_bounds(layout, geom.r)
    pref = 1.0 / (b.delta_d * b.delta_big_d)
    s = math.sin(geom.theta)
    theta = geom.theta

    def four_point(g):
        return g(b.x4, theta) - g(b.x3, theta) - g(b.x2, theta) + g(b.x1, theta)

    s_theta2 = pref * four_point(g_theta2)
    if theta == 0.0:
        # The odd-symmetry sums vanish identically on broadside; evaluating
        # the four-point combination there returns only rounding noise
        # amplified by pref, so return the exact zeros.
        s_theta = 0.0
        s_thetar = 0.0
    else:
        s_theta = pref * four_point(g_theta)
        s_thetar = s * s_theta2 - pref * four_point(g_thetar)
    s_r = s * s_theta - pref * four_point(g_r)
    n = layout.n_elements
    s_r2 = n - math.cos(theta) ** 2 * s_theta2
    return SumFormulas(s_theta2, s_theta, s_r, s_r2, s_thetar, n)


def hspw_sums_closed(layout: ArrayLayout, geom: SceneGeometry) -> SumFormulas:
    """Closed-form subarray-centre sums via the single midpoint approximation."""
    b = riemann_bounds(layout, geom.r)
    a = 0.5 * layout.K * b.delta_big_d
    s = math.sin(geom.theta)
    theta = geom.theta

    def edge_diff(f):
        return (f(a, theta) - f(-a, theta)) / b.delta_big_d

    s_theta2 = edge_diff(f_x2_over_nu1)
    s_theta = edge_diff(f_x_over_sqrt_nu1)
    s_r = s * s_theta - edge_diff(f_one_over_sqrt_nu1)
    s_thetar = s * s_theta2 - edge_diff(f_x_over_nu1)
    s_r2 = layout.K - math.cos(theta) ** 2 * s_theta2
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
    pref = 2.0 / (b.delta_d * b.delta_big_d)
    s_theta2 = pref * (g_theta2(b.x4, 0.0) - g_theta2(b.x3, 0.0))
    s_r = -pref * (g_r(b.x4, 0.0) - g_r(b.x3, 0.0))
    n = layout.n_elements
    return SumFormulas(
        s_theta2=s_theta2,
        s_theta=0.0,
        s_r=s_r,
        s_r2=n - s_theta2,
        s_thetar=0.0,
        n=n,
    )
