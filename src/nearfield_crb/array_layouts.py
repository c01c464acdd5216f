"""Transmit-array layouts: widely spaced subarrays and their uniform mirrors.

A layout is K subarrays of M elements each.  Elements within a subarray are
d apart; subarray centres are big_d apart, where big_d = (M-1) d + d0 and d0
is the edge-to-edge gap between adjacent subarrays.  Element i = k*M + m
(k-major, 0-based) sits at

    ((2k - K + 1)/2) * big_d + ((2m - M + 1)/2) * d

so the array is symmetric about the origin.  With d0 = d the formula
degenerates to an exact uniform line of K*M elements (the dense mirror);
the sparse "ua" mirror keeps K*M elements but stretches the spacing to
reproduce the widely-spaced aperture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ElementCoincidence, InvalidLayout


@dataclass(frozen=True)
class ArrayLayout:
    """K subarrays of M elements, spacing d, subarray gap d0, wavelength lam."""

    kind: str  # "wsms" | "ua" | "dua"
    K: int
    M: int
    d: float
    d0: float
    lam: float

    @property
    def big_d(self) -> float:
        """Centre-to-centre subarray spacing."""
        return (self.M - 1) * self.d + self.d0

    @property
    def n_elements(self) -> int:
        return self.K * self.M


def _validate(K: int, M: int, d: float, d0: float, lam: float) -> None:
    if not (isinstance(K, int) and K >= 1):
        raise InvalidLayout(f"subarray count K must be an integer >= 1, got {K!r}")
    if not (isinstance(M, int) and M >= 1):
        raise InvalidLayout(f"subarray size M must be an integer >= 1, got {M!r}")
    if not 0.0 < d < math.inf:
        raise InvalidLayout(f"element spacing d must be positive and finite, got {d!r}")
    if not 0.0 < lam < math.inf:
        raise InvalidLayout(f"wavelength must be positive and finite, got {lam!r}")
    if not d <= d0 < math.inf:
        raise InvalidLayout(
            f"subarray gap d0 = {d0!r} must be finite and at least the element spacing "
            f"d = {d!r}, or adjacent subarrays would interleave"
        )


def require_widely_spaced(layout: ArrayLayout, what: str) -> None:
    """Raise InvalidLayout unless the layout is widely spaced (kind "wsms")."""
    if layout.kind != "wsms":
        raise InvalidLayout(f"{what} needs a widely spaced layout, got kind={layout.kind!r}")


def d0_from_exponent(i: int, lam: float) -> float:
    """Subarray gap for integer gap exponent i: d0 = 2**i * lam / 2."""
    if not (isinstance(i, int) and i >= 0):
        raise InvalidLayout(f"gap exponent must be an integer >= 0, got {i!r}")
    try:
        return (2.0 ** i) * lam / 2.0
    except OverflowError:
        raise InvalidLayout(f"gap exponent {i!r} overflows a float") from None


def make_wsms(K: int, M: int, d: float, d0: float, lam: float) -> ArrayLayout:
    """Widely spaced multi-subarray layout."""
    _validate(K, M, d, d0, lam)
    return ArrayLayout("wsms", K, M, d, d0, lam)


def make_dua(K: int, M: int, d: float, lam: float) -> ArrayLayout:
    """Dense uniform mirror: same K*M elements, contiguous subarrays (d0 = d)."""
    _validate(K, M, d, d, lam)
    return ArrayLayout("dua", K, M, d, d, lam)


def make_ua(K: int, M: int, d: float, d0: float, lam: float) -> ArrayLayout:
    """Sparse uniform mirror of the (K, M, d, d0) widely spaced layout.

    Keeps K*M elements on a uniform grid whose end-to-end aperture equals the
    widely spaced layout's, i.e. spacing
    d' = ((K-1) big_d + (M-1) d) / (K M - 1).
    """
    _validate(K, M, d, d0, lam)
    if K * M < 2:
        raise InvalidLayout("a uniform mirror needs at least two elements")
    big_d = (M - 1) * d + d0
    d_prime = ((K - 1) * big_d + (M - 1) * d) / (K * M - 1)
    return ArrayLayout("ua", K, M, d_prime, d_prime, lam)


def centred_grid(n: int, step: float) -> np.ndarray:
    """n points step apart, symmetric about the origin: (2j - n + 1)/2 * step."""
    j = np.arange(n, dtype=float)
    return (2.0 * j - n + 1.0) / 2.0 * step


def subarray_centers(layout: ArrayLayout) -> np.ndarray:
    """Signed centre coordinates of the K subarrays, ascending."""
    return centred_grid(layout.K, layout.big_d)


def element_positions(layout: ArrayLayout) -> np.ndarray:
    """Signed element coordinates, index k*M + m, strictly ascending."""
    offsets = centred_grid(layout.M, layout.d)
    pos = (subarray_centers(layout)[:, None] + offsets[None, :]).ravel()
    if layout.n_elements > 1 and not np.all(np.diff(pos) > 0.0):
        raise ElementCoincidence("layout produced coincident or disordered elements")
    return pos


def aperture(layout: ArrayLayout) -> float:
    """End-to-end element span: (K-1) big_d + (M-1) d."""
    return (layout.K - 1) * layout.big_d + (layout.M - 1) * layout.d
