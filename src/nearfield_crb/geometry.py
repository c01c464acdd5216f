"""Bistatic scene geometry: ranges, arrival angles, span angles.

Scene convention (all angles radians, all lengths metres):

* the transmit array lies on a line through the origin; element coordinates
  are signed offsets along that line;
* the target sits at distance ``r`` and angle ``theta`` measured from the
  transmit broadside, with ``|theta| < pi/2``;
* the receive array centre sits at distance ``big_r`` from the transmit
  centre, offset from broadside by ``vartheta`` (0 for a broadside receiver).

The receiver-side derivative expressions are only defined for a broadside
receiver; operations that need them raise DomainError when vartheta != 0.
They take one scene, or a ``GeometryGrid`` of many as arrays, which they
treat element by element exactly as each scene alone (see ``pointwise``).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, DomainError, SingularFisher, SpanSingularity
from .pointwise import checked, power, sin, some

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class SceneGeometry:
    """Target and receiver placement relative to the transmit array centre."""

    r: float
    theta: float
    big_r: float
    vartheta: float = 0.0

    def __post_init__(self):
        holds = _scene_checks(self.r, self.theta, self.big_r, self.vartheta)
        if not all(holds):
            for ok, (name, requirement) in zip(holds, _SCENE_REQUIREMENTS):
                if not ok:
                    raise DomainError(f"{requirement}, got {getattr(self, name)!r}")


# the field each scene check tests, and what it requires, in order
_SCENE_REQUIREMENTS = (
    ("r", "target range must be positive and finite"),
    ("big_r", "receiver range must be positive and finite"),
    ("theta", "target angle must satisfy |theta| < pi/2"),
    ("vartheta", "receiver offset angle must be finite"),
)


def _scene_checks(r, theta, big_r, vartheta) -> tuple:
    """Whether each of ``_SCENE_REQUIREMENTS`` holds.

    The fields are one scene's floats or a grid's arrays (see ``pointwise``),
    and each entry a bool or a bool per point: the comparisons read alike
    for both.  NaN fails every check.
    """
    return (
        (r > 0.0) & (r < math.inf),
        (big_r > 0.0) & (big_r < math.inf),
        abs(theta) < HALF_PI,
        abs(vartheta) < math.inf,
    )


def scenes_hold(r, theta, big_r, vartheta):
    """Where scenes with these fields pass ``SceneGeometry``'s checks.

    For a grid's arrays (a field may be one float for every point) this is
    a bool per point: the checks run once on the arrays, not per scene.
    """
    return functools.reduce(operator.and_, _scene_checks(r, theta, big_r, vartheta))


def _one_or_each(col):
    """col as one float where every entry holds the same bits, else as it is."""
    if not isinstance(col, np.ndarray):
        return float(col)
    bits = col.view(np.int64)
    return float(col[0]) if (bits == bits[0]).all() else col


@dataclass(frozen=True)
class GeometryGrid:
    """Many scenes at once, for the functions that take one scene or a grid.

    Each field is an array over the scenes, or one float where every scene
    holds the same bits (the fixed axes of a sweep), so that what depends
    on it alone is computed once.  size is the number of scenes.
    """

    r: float | np.ndarray
    theta: float | np.ndarray
    big_r: float | np.ndarray
    vartheta: float | np.ndarray
    size: int

    @classmethod
    def of(cls, geoms: list) -> "GeometryGrid":
        """The grid of scenes that each passed ``SceneGeometry``'s checks."""
        cols = np.array([(g.r, g.theta, g.big_r, g.vartheta) for g in geoms], dtype=float).T.copy()
        return cls.of_columns(*cols)

    @classmethod
    def of_columns(cls, r, theta, big_r, vartheta) -> "GeometryGrid":
        """The grid of the scenes whose fields these are, built from the columns.

        Each field is a float64 array with one entry per scene, or one number
        for all of them; every scene must pass the checks (``scenes_hold``).
        """
        size = np.broadcast(r, theta, big_r, vartheta).size
        return cls(*map(_one_or_each, (r, theta, big_r, vartheta)), size)

    def scene(self, p: int) -> SceneGeometry:
        """Scene p of the grid, for a point that must run alone."""
        fields = (self.r, self.theta, self.big_r, self.vartheta)
        return SceneGeometry(*(float(f[p]) if isinstance(f, np.ndarray) else f for f in fields))


@dataclass(frozen=True)
class AngularSpans:
    """Span angles subtended at the target by the transmit-array edges.

    x holds the four normalized lateral offsets (aperture edges over r),
    psi the corresponding span angles.  psi0 (the aggregate span) and
    delta_psi are only defined on broadside (theta == 0) and are None
    otherwise.
    """

    theta: float
    x: tuple[float, float, float, float]
    psi: tuple[float, float, float, float]
    psi0: float | None
    delta_psi: float | None

    def psi_at(self, x: float) -> float:
        return psi_from_x(x, self.theta)


def _rx_range_sq(r: float, big_r: float, half_sin: float) -> float:
    """Squared receiver-to-target distance; half_sin is sin(a/2) of the TX vertex angle a.

    The law of cosines R^2 + r^2 - 2 R r cos(a) cancels catastrophically when
    the target is near the receiver.  The equivalent
    (R - r)^2 + 4 R r sin^2(a/2) adds two non-negative terms, so every digit
    survives (Kahan, "Miscalculating Area and Angles of a Needle-like
    Triangle").  A distance whose square overflows leaves the arrival-angle
    terms no usable digits, so it raises SingularFisher.
    """
    try:
        return power(big_r - r, 2) + 4.0 * big_r * r * half_sin * half_sin
    except OverflowError:
        raise SingularFisher("the receiver-to-target distance overflows") from None


def rx_range(geom: SceneGeometry) -> float:
    """Receiver-to-target distance on the TX/target/RX triangle."""
    half_sin = sin(0.5 * (geom.theta + geom.vartheta))
    return math.sqrt(_rx_range_sq(geom.r, geom.big_r, half_sin))


def aoa_from_geometry(geom: SceneGeometry) -> float:
    """Angle of arrival at the receive array, measured from its broadside.

    Uses the sine rule on the TX/target/RX triangle; the principal-branch
    arcsine is taken, which covers scenarios where the target is on the
    transmitter side of the receiver's transverse plane
    (r * cos(theta + vartheta) < big_r).
    """
    rbar = rx_range(geom)
    if rbar == 0.0:
        raise DegenerateGeometry("target coincides with the receiver centre")
    s = geom.r * math.sin(geom.theta + geom.vartheta) / rbar
    s = min(1.0, max(-1.0, s))
    return math.asin(s) + geom.vartheta


def arrival_triangle(geom: SceneGeometry) -> tuple:
    """rbar^2, d sin(phi) / d theta and d sin(phi) / d r, from one pass over the triangle.

    For a broadside receiver the arrival-angle rates are

        d sin(phi) / d theta = r (R - r cos theta)(R cos theta - r) / rbar^3
        d sin(phi) / d r     = R sin(theta) (R - r cos theta) / rbar^3

    The cosine gaps are written as (R - r) + 2 r sin^2(theta/2) and
    (R - r) - 2 R sin^2(theta/2), so that a target close to the receiver
    keeps its digits; the one subtraction left is between accurately
    computed terms and loses only what the value's own conditioning loses.
    A target at the receiver centre raises DegenerateGeometry.
    """
    if some(geom.vartheta != 0.0):
        raise DomainError(
            "the arrival-angle derivatives are defined for a broadside receiver "
            f"(vartheta = 0), got vartheta = {geom.vartheta!r}"
        )
    r, big_r = geom.r, geom.big_r
    half_sin = sin(0.5 * geom.theta)
    rho_sq = _rx_range_sq(r, big_r, half_sin)
    rho_sq = checked(rho_sq, rho_sq <= 0.0, lambda: DegenerateGeometry(
        "receiver-to-target distance vanishes; arrival-angle derivatives undefined"
    ))
    try:
        den = power(rho_sq, 1.5)
    except OverflowError:
        raise SingularFisher("the cubed receiver-to-target distance overflows") from None
    half_sin_sq = power(half_sin, 2)
    gap = big_r - r
    near, far = gap + 2.0 * r * half_sin_sq, gap - 2.0 * big_r * half_sin_sq
    return rho_sq, r * near * far / den, big_r * sin(geom.theta) * near / den


def dsinphi_dtheta(geom: SceneGeometry) -> float:
    """d sin(phi) / d theta at fixed r (broadside receiver); see ``arrival_triangle``."""
    return arrival_triangle(geom)[1]


def dsinphi_dr(geom: SceneGeometry) -> float:
    """d sin(phi) / d r at fixed theta (broadside receiver); see ``arrival_triangle``."""
    return arrival_triangle(geom)[2]


def psi_from_x(x: float, theta: float) -> float:
    """Span angle subtended at the target by a normalized lateral offset x.

    x is an element (or aperture-edge) coordinate divided by the target
    range.  The angle lives on the branch (theta - pi/2, theta + pi/2), so
    the round trip x = sin(psi) / cos(theta - psi) is exact and
    1 - 2 x sin(theta) + x^2 = cos^2(theta) / cos^2(theta - psi) holds by
    construction.
    """
    if not abs(theta) < HALF_PI:
        raise DomainError(f"|theta| < pi/2 required, got {theta!r}")
    num = x * math.cos(theta)
    den = 1.0 - x * math.sin(theta)
    if num == 0.0 and den == 0.0:
        raise SpanSingularity(f"span angle undefined at x = {x!r}, theta = {theta!r}")
    return math.atan2(num, den)


def angular_spans(layout, geom: SceneGeometry) -> AngularSpans:
    """Span angles of the four aperture-edge offsets of a subarray layout.

    On broadside (theta == 0) also reports the aggregate span psi0 (sum of
    the two positive edge angles) and their difference delta_psi.
    """
    half_dd = 0.5 * layout.M * layout.d / geom.r
    half_dbig = 0.5 * layout.K * layout.big_d / geom.r
    x = (
        -half_dbig - half_dd,
        -half_dbig + half_dd,
        half_dbig - half_dd,
        half_dbig + half_dd,
    )
    psi = tuple(psi_from_x(xi, geom.theta) for xi in x)
    if geom.theta == 0.0:
        psi0 = psi[3] + psi[2]
        delta_psi = psi[3] - psi[2]
    else:
        psi0 = None
        delta_psi = None
    return AngularSpans(theta=geom.theta, x=x, psi=psi, psi0=psi0, delta_psi=delta_psi)
