"""The transmit bundles and the composite inner products, one point at a time.

The functions below build each point's transmit bundle on its own, with
the element positions, k0 and the sines and cosines derived afresh, and
take the composite inner products through a generic sum over the
Kronecker terms, as the package did before it built the transmit bundles
of many points in one pass.  The code is kept verbatim as the reference
for ``test_fisher_core`` and ``test_cli``: the batched bundles and the
written-out ``amfs`` must give the very same bits, and raise the same
errors, as these.
"""

import math

import numpy as np

from nearfield_crb.array_layouts import ArrayLayout, element_positions, subarray_centers
from nearfield_crb.errors import DomainError, ElementCoincidence, InvalidLayout, SingularFisher
from nearfield_crb.fisher_core import (
    AmfSet,
    NormalizedFisher,
    SteeringBundle,
    normalized_fisher,
    rx_bundle,
)
from nearfield_crb.geometry import SceneGeometry


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors: their outer product, row by row."""
    return np.multiply.outer(a, b).ravel()


def _element_distances(n: np.ndarray, r: float, theta: float) -> np.ndarray:
    with np.errstate(over="ignore"):
        rnt = r * r - 2.0 * n * r * math.sin(theta) + n * n
    if not np.all(np.isfinite(rnt)):
        # an aperture beyond ~1e154 m: every phase and derivative would be
        # inf or NaN, so the block carries no information
        raise SingularFisher("element distances overflow: the aperture is too wide")
    if np.any(rnt <= 0.0):
        raise ElementCoincidence("target coincides with an array element")
    return np.sqrt(rnt)


def _spherical_trio(n: np.ndarray, r: float, theta: float, k0: float):
    """Unit-norm spherical-wave vector over coordinates n plus derivatives."""
    dist = _element_distances(n, r, theta)
    value = np.exp(-1j * k0 * dist) / math.sqrt(n.size)
    d_theta = value * (1j * k0 * n * r * math.cos(theta) / dist)
    d_r = value * (1j * k0 * (n * math.sin(theta) - r) / dist)
    return value, d_theta, d_r


def sw_tx_bundle(layout: ArrayLayout, geom: SceneGeometry) -> SteeringBundle:
    """Spherical-wave transmit steering bundle over all K*M elements."""
    n = element_positions(layout)
    k0 = 2.0 * math.pi / layout.lam
    value, d_theta, d_r = _spherical_trio(n, geom.r, geom.theta, k0)
    return SteeringBundle(value, d_theta, d_r)


def pw_tx_bundle(layout: ArrayLayout, geom: SceneGeometry) -> SteeringBundle:
    """Planar-wave transmit steering bundle (no range dependence)."""
    n = element_positions(layout)
    k0 = 2.0 * math.pi / layout.lam
    value = np.exp(1j * k0 * n * math.sin(geom.theta)) / math.sqrt(n.size)
    d_theta = value * (1j * k0 * n * math.cos(geom.theta))
    d_r = np.zeros_like(value)
    return SteeringBundle(value, d_theta, d_r)


def hspw_tx_bundle(layout: ArrayLayout, geom: SceneGeometry) -> SteeringBundle:
    """Hybrid bundle: spherical across subarray centres, planar within."""
    if layout.kind != "wsms":
        raise InvalidLayout(
            f"the hybrid model needs a widely spaced subarray layout, got kind={layout.kind!r}"
        )
    k0 = 2.0 * math.pi / layout.lam
    centers = subarray_centers(layout)
    w, w_theta, w_r = _spherical_trio(centers, geom.r, geom.theta, k0)

    m = np.arange(layout.M, dtype=float)
    offsets = (2.0 * m - layout.M + 1.0) / 2.0 * layout.d
    a = np.exp(1j * k0 * offsets * math.sin(geom.theta)) / math.sqrt(layout.M)
    a_theta = a * (1j * k0 * offsets * math.cos(geom.theta))

    value = _kron(w, a)
    d_theta = _kron(w_theta, a) + _kron(w, a_theta)
    d_r = _kron(w_r, a)
    return SteeringBundle(value, d_theta, d_r)


TX_BUNDLES = {"sw": sw_tx_bundle, "hspw": hspw_tx_bundle, "pw": pw_tx_bundle}


# Each composite vector of ``composite_bundle`` as a sum of Kronecker terms
# conj(tx[a]) (x) rx[b], with a and b indexing (value, d_theta, d_r).
_COMPOSITE_TERMS = {
    "value": ((0, 0),),
    "d_theta": ((1, 0), (0, 1)),
    "d_r": ((2, 0), (0, 2)),
}


def _gram(bundle: SteeringBundle) -> list[list[complex]]:
    vecs = (bundle.value, bundle.d_theta, bundle.d_r)
    return [[np.vdot(u, w) for w in vecs] for u in vecs]


def amfs(tx: SteeringBundle, rx: SteeringBundle) -> AmfSet:
    """Inner products of the composite bundle kron(conj(tx), rx), factor by factor.

    vdot(conj(a) (x) b, conj(c) (x) d) = vdot(c, a) * vdot(b, d), so each
    entry is a short sum of products of transmit-side and receive-side
    inner products; no vector of length N_t*N_r is formed.
    """
    g_tx, g_rx = _gram(tx), _gram(rx)

    def dot(u: str, w: str) -> complex:
        return sum(
            g_tx[c][a] * g_rx[b][d]
            for a, b in _COMPOSITE_TERMS[u]
            for c, d in _COMPOSITE_TERMS[w]
        )

    return AmfSet(
        htheta_sq=float(dot("d_theta", "d_theta").real),
        hr_sq=float(dot("d_r", "d_r").real),
        h_sq=float(dot("value", "value").real),
        htheta_h=complex(dot("d_theta", "value")),
        hr_h=complex(dot("d_r", "value")),
        htheta_hr=complex(dot("d_theta", "d_r")),
    )


def bundle_fisher(
    layout: ArrayLayout, geom: SceneGeometry, n_r: int, *, model: str = "sw"
) -> NormalizedFisher:
    """Normalized Fisher block assembled from the steering bundles."""
    if model not in TX_BUNDLES:
        raise DomainError(f"unknown wave model {model!r}")
    tx = TX_BUNDLES[model](layout, geom)
    rx = rx_bundle(layout, n_r, geom)
    return normalized_fisher(amfs(tx, rx))
