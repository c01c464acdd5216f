"""Shared oracles and strategies for the test suite.

The helpers here are deliberately primitive: raw cartesian coordinates,
brute-force python loops, and low-order finite differences.  They share no
code with the library internals, so agreement between the two is evidence
rather than mirroring.
"""

import math
import random

from hypothesis import strategies as st

from nearfield_crb import d0_from_exponent, make_wsms

C_LIGHT = 299792458.0
FREQ_HZ = 1.0e11
LAM = C_LIGHT / FREQ_HZ
D_HALF = LAM / 2.0


def std_wsms(k, m, i):
    """Half-wavelength subarrayed layout at the standard carrier."""
    return make_wsms(k, m, D_HALF, d0_from_exponent(i, LAM), LAM)


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def richardson_diff(f, x, h=1e-4):
    """Fourth-order first derivative from two central differences."""
    coarse = central_diff(f, x, h)
    fine = central_diff(f, x, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def target_xy(r, theta):
    """Cartesian target position; broadside is the +y axis."""
    return r * math.sin(theta), r * math.cos(theta)


def rx_xy(big_r, vartheta):
    """Cartesian receiver-centre position, offset by -vartheta from +y."""
    return big_r * math.sin(-vartheta), big_r * math.cos(-vartheta)


def coordinate_rx_range(r, theta, big_r, vartheta=0.0):
    """Receiver-to-target distance measured directly in coordinates."""
    tx, ty = target_xy(r, theta)
    px, py = rx_xy(big_r, vartheta)
    return math.hypot(tx - px, ty - py)


def coordinate_angle_at_rx(r, theta, big_r, vartheta=0.0):
    """Signed angle at the receiver vertex of the scene triangle.

    Positive when the target sits on the same side as positive theta,
    measured between the rays receiver->transmitter and receiver->target.
    """
    tx, ty = target_xy(r, theta)
    px, py = rx_xy(big_r, vartheta)
    ux, uy = -px, -py
    vx, vy = tx - px, ty - py
    cross = ux * vy - uy * vx
    dot = ux * vx + uy * vy
    return math.atan2(cross, dot)


def brute_sums(positions, r, theta):
    """The five element sums, accumulated with a plain python loop.

    Returns (s_theta2, s_theta, s_r, s_r2, s_thetar) using the normalized
    lateral offsets x = position / r directly, with no clever pairing or
    compensated summation.
    """
    s = math.sin(theta)
    s_theta2 = s_theta = s_r = s_r2 = s_thetar = 0.0
    for p in positions:
        x = p / r
        v = 1.0 - 2.0 * x * s + x * x
        s_theta2 += x * x / v
        s_theta += x / math.sqrt(v)
        s_r += (x * s - 1.0) / math.sqrt(v)
        s_r2 += (x * s - 1.0) ** 2 / v
        s_thetar += x * (x * s - 1.0) / v
    return s_theta2, s_theta, s_r, s_r2, s_thetar


def seeded(tag):
    """Deterministic RNG so failures are reproducible."""
    return random.Random(repr(tag))


layout_shapes = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=0, max_value=8),
)

scene_angles = st.floats(min_value=-1.3, max_value=1.3)

target_ranges = st.floats(min_value=0.5, max_value=80.0)
