"""The exact (theta, r) Fisher block in 40-digit mpmath, from the scene alone.

With the unknown complex gain projected out, the normalized block of a
unit-modulus steering vector is the covariance of its phase rates over the
elements (Stoica & Nehorai, IEEE TASSP 1989).  The composite vector is
conj(tx) (x) rx, a product grid, so the covariance splits into a transmit
and a receive part:

    q_ij = k0^2 (cov(a_i, a_j) + var(receive offsets) phi_i phi_j)

with a_i the transmit phase rates over k0 and phi_i the rates of
sin(phi) = r sin(theta) / rbar at the broadside receiver.  The coordinates,
the rates and the arrival angle are built here from the layout's fields
and the scene's, so no engine arithmetic enters; a route's block is then
judged by its distance from this one.  This module imports no test
framework, so a benchmark recorder can import it too.
"""

import mpmath
from mpmath import mp, mpf

DIGITS = 40


def _grid(n, step):
    """n points step apart, symmetric about the origin: (2j - n + 1)/2 * step."""
    return [(2 * j - n + 1) * mpf(step) / 2 for j in range(n)]


def _centred(a):
    """a less its mean."""
    mean = mpmath.fsum(a) / len(a)
    return [x - mean for x in a]


def _variance(a):
    a = _centred(a)
    return mpmath.fdot(a, a) / len(a)


def _covariances(a, b):
    """(var a, cov(a, b), var b) of two equally long sequences, from centred terms."""
    a, b = _centred(a), _centred(b)
    return tuple(mpmath.fdot(x, y) / len(a) for x, y in ((a, a), (a, b), (b, b)))


def _spherical_rates(coords, r, theta):
    """Phase rates over k0 of exp(-i k0 dist) at each coordinate, in theta and in r.

    dist = sqrt((n - r sin)^2 + (r cos)^2); the rates are n r cos / dist
    and (n sin - r) / dist.
    """
    s, c = mpmath.sin(theta), mpmath.cos(theta)
    rs, rc = r * s, r * c
    rc_sq = rc * rc
    a_theta, a_r = [], []
    for n in coords:
        u = n - rs
        dist = mpmath.sqrt(u * u + rc_sq)
        a_theta.append(n * rc / dist)
        a_r.append((n * s - r) / dist)
    return a_theta, a_r


def _transmit(layout, r, theta, model):
    """(var a_theta, cov(a_theta, a_r), var a_r) of the transmit phase rates over k0."""
    centres, offsets = _grid(layout.K, layout.big_d), _grid(layout.M, layout.d)
    if model == "hspw":
        # spherical across the centres (x) planar within: the product grid's
        # covariance is the centres' plus the offsets' (theta rate t cos theta)
        t11, t12, t22 = _covariances(*_spherical_rates(centres, r, theta))
        planar = _variance(offsets) * mpmath.cos(theta) ** 2
        return t11 + planar, t12, t22
    elements = [c + t for c in centres for t in offsets]
    if model == "sw":
        return _covariances(*_spherical_rates(elements, r, theta))
    if model == "pw":
        return _variance(elements) * mpmath.cos(theta) ** 2, mpf(0), mpf(0)
    raise ValueError(f"unknown wave model {model!r}")


def _arrival_rates(r, theta, big_r):
    """d sin(phi) / d theta and d sin(phi) / d r for a receiver centred at (0, big_r)."""

    def sin_phi(th, rr):
        x, y = rr * mpmath.sin(th), rr * mpmath.cos(th)
        return x / mpmath.hypot(x, y - big_r)

    return mpmath.diff(sin_phi, (theta, r), (1, 0)), mpmath.diff(sin_phi, (theta, r), (0, 1))


def exact_block(layout, geom, n_r, model):
    """(q11, q12, q22) of the normalized (theta, r) Fisher block, 40-digit mpf.

    ``layout`` and ``geom`` are read by their fields only (K, M, d, big_d,
    lam; r, theta, big_r, vartheta); the receiver is an n_r-element line at
    the layout's spacing d, as in the engine.  One receive element has no
    aperture, so it adds nothing.
    """
    with mp.workdps(DIGITS):
        r, theta = mpf(geom.r), mpf(geom.theta)
        k0_sq = (2 * mp.pi / mpf(layout.lam)) ** 2
        t11, t12, t22 = _transmit(layout, r, theta, model)
        if n_r == 1:
            return k0_sq * t11, k0_sq * t12, k0_sq * t22
        if geom.vartheta != 0.0:
            raise ValueError("the receive term is defined for a broadside receiver only")
        spread = mpf(layout.d) ** 2 * (n_r * n_r - 1) / 12
        phi_theta, phi_r = _arrival_rates(r, theta, mpf(geom.big_r))
        return (k0_sq * (t11 + spread * phi_theta ** 2),
                k0_sq * (t12 + spread * phi_theta * phi_r),
                k0_sq * (t22 + spread * phi_r ** 2))
