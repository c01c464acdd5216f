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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateGeometry, DomainError, SingularFisher, SpanSingularity

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class SceneGeometry:
    """Target and receiver placement relative to the transmit array centre."""

    r: float
    theta: float
    big_r: float
    vartheta: float = 0.0

    def __post_init__(self):
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise DomainError(f"target range must be positive and finite, got {self.r!r}")
        if not (self.big_r > 0.0 and math.isfinite(self.big_r)):
            raise DomainError(f"receiver range must be positive and finite, got {self.big_r!r}")
        if not abs(self.theta) < HALF_PI:
            raise DomainError(f"target angle must satisfy |theta| < pi/2, got {self.theta!r}")
        if not math.isfinite(self.vartheta):
            raise DomainError(f"receiver offset angle must be finite, got {self.vartheta!r}")


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


def _rx_range_sq(r: float, big_r: float, a: float) -> float:
    """Squared receiver-to-target distance for a vertex angle ``a`` at the TX.

    The law of cosines R^2 + r^2 - 2 R r cos(a) cancels catastrophically when
    the target is near the receiver.  The equivalent
    (R - r)^2 + 4 R r sin^2(a/2) adds two non-negative terms, so every digit
    survives (Kahan, "Miscalculating Area and Angles of a Needle-like
    Triangle").  A distance whose square overflows leaves the arrival-angle
    terms no usable digits, so it raises SingularFisher.
    """
    half_sin = math.sin(0.5 * a)
    try:
        return (big_r - r) ** 2 + 4.0 * big_r * r * half_sin * half_sin
    except OverflowError:
        raise SingularFisher("the receiver-to-target distance overflows") from None


def rx_range(geom: SceneGeometry) -> float:
    """Receiver-to-target distance on the TX/target/RX triangle."""
    return math.sqrt(_rx_range_sq(geom.r, geom.big_r, geom.theta + geom.vartheta))


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


def _require_broadside_rx(geom: SceneGeometry, what: str) -> None:
    if geom.vartheta != 0.0:
        raise DomainError(
            f"{what} is defined for a broadside receiver (vartheta = 0), "
            f"got vartheta = {geom.vartheta!r}"
        )


def _triangle_den(geom: SceneGeometry) -> float:
    """rbar^3, the denominator of both arrival-angle derivatives."""
    den = _rx_range_sq(geom.r, geom.big_r, geom.theta)
    if den <= 0.0:
        raise DegenerateGeometry(
            "receiver-to-target distance vanishes; arrival-angle derivatives undefined"
        )
    try:
        return den ** 1.5
    except OverflowError:
        raise SingularFisher("the cubed receiver-to-target distance overflows") from None


def _cosine_gaps(geom: SceneGeometry) -> tuple[float, float]:
    """R - r cos(theta) and R cos(theta) - r, free of the cos(theta) ~ 1 loss.

    Written as (R - r) + 2 r sin^2(theta/2) and (R - r) - 2 R sin^2(theta/2)
    so that a target close to the receiver keeps its digits; the one
    subtraction left is between accurately computed terms and loses only
    what the value's own conditioning loses.
    """
    r, big_r = geom.r, geom.big_r
    half_sin_sq = math.sin(0.5 * geom.theta) ** 2
    gap = big_r - r
    return gap + 2.0 * r * half_sin_sq, gap - 2.0 * big_r * half_sin_sq


def dsinphi_dtheta(geom: SceneGeometry) -> float:
    """d sin(phi) / d theta at fixed r (broadside receiver).

    Equals r (R - r cos theta)(R cos theta - r) / rbar^3.
    """
    _require_broadside_rx(geom, "dsinphi_dtheta")
    den = _triangle_den(geom)
    near, far = _cosine_gaps(geom)
    return geom.r * near * far / den


def dsinphi_dr(geom: SceneGeometry) -> float:
    """d sin(phi) / d r at fixed theta (broadside receiver).

    Equals R sin(theta) (R - r cos theta) / rbar^3.
    """
    _require_broadside_rx(geom, "dsinphi_dr")
    den = _triangle_den(geom)
    near, _ = _cosine_gaps(geom)
    return geom.big_r * math.sin(geom.theta) * near / den


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
