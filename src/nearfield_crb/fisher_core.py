"""Steering vectors, their parameter derivatives, and Fisher assembly.

Wave models for the transmit array (element coordinates n along the array
line, target at range r, angle theta, k0 = 2 pi / lambda):

* ``sw``   spherical wave: exact per-element distance
  sqrt(r^2 - 2 n r sin(theta) + n^2) in the phase;
* ``hspw`` hybrid: spherical wave across subarray centres, planar wave
  within each subarray;
* ``pw``   planar wave: first-order phase n sin(theta) only (no range
  dependence, hence no range information).

All steering vectors are unit norm (the 1/sqrt(N) factors are built in);
the receive side is a uniform line array pointed by the arrival angle.  The
composite vector is kron(conj(tx), rx), matching ideal training (any unitary
training map leaves all the inner products below unchanged; the oracle can
check that explicitly).

The bundle route never builds that length N_t*N_r vector.  By the
mixed-product rule <a (x) b, c (x) d> = <a, c><b, d>, every composite inner
product is a short sum of products of one transmit-side and one
receive-side inner product, so the Fisher inner products are one reduction
(``_amf_set``) of two 3x3 Gram matrices of (value, d_theta, d_r): T on the
transmit side and R on the receive side.  Each wave model says how its T
is built (``_TX_GRAMS``):

* ``sw`` and ``hspw`` take T from their transmit vectors, with ``np.vdot``;
* ``pw`` takes T from the planar pair over the K subarray centres and the
  one over the M in-subarray offsets (``_pw_tx_grams``): its vectors are
  Kronecker products, so no K*M vector is formed.

R comes from the receive vectors; the one-element receiver is one constant
bundle whose Gram is taken once.  ``amfs`` is the same reduction for a
given pair of bundles.  ``full_fisher_oracle`` alone builds the composite
vector on a product path, since it is the independent check.
``composite_bundle`` builds it with its derivatives but has no caller in
the package: it is the tests' reference for ``amfs``, and the benchmark's
tracer and reference recorder name it.  It moves out of the package once
the recorder builds its own composite vector (ROADMAP item 2).

Transmit bundles and Grams are built per batch of points on one layout
(``tx_bundles``, ``bundle_fishers``): the element positions, k0 and the
in-subarray offsets are computed once, and each vector is one row of a
(points, elements) array.  Every element keeps the single point's
operations in their order, so each row is bit for bit the bundle (and each
Gram the Gram) of its point alone; a single point is the one-row batch.  A
batch with a point that fails raises as that point would, and each of its
points is then built alone (``errors.each_point``, the closed forms' rule
too), so every point gets its own bundle or error.  ``bundle_fishers``
bounds its own memory: it reduces each batch of ``BATCH_ELEMENTS``
transmit elements to its Fisher blocks before it builds the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .array_layouts import (
    ArrayLayout,
    centred_grid,
    element_positions,
    require_widely_spaced,
    subarray_centers,
)
from .errors import (
    DomainError, ElementCoincidence, IllConditioned, SingularFisher, each_point, outcome, unwrap,
)
from .geometry import SceneGeometry, arrival_triangle
from .pointwise import sqrt


@dataclass(frozen=True)
class SteeringBundle:
    """A steering vector with its theta- and r-derivatives."""

    value: np.ndarray
    d_theta: np.ndarray
    d_r: np.ndarray


@dataclass(frozen=True)
class AmfSet:
    """The six inner products the Fisher block is assembled from."""

    htheta_sq: float
    hr_sq: float
    h_sq: float
    htheta_h: complex
    hr_h: complex
    htheta_hr: complex


@dataclass(frozen=True)
class NormalizedFisher:
    """The 2x2 (theta, r) Fisher block with the gain and noise scaled out.

    The floors are round-off estimates for the diagonal entries: each q is a
    difference of same-sign terms, so a value at or below its floor is
    indistinguishable from zero and the corresponding parameter carries no
    usable information.  Assemblies fill them in; hand-built instances keep
    the zero default (plain sign checks).
    """

    q11: float
    q12: float
    q22: float
    q11_floor: float = 0.0
    q22_floor: float = 0.0

    @property
    def det(self) -> float:
        return self.q11 * self.q22 - self.q12 * self.q12


@dataclass(frozen=True)
class CrbResult:
    """Angle and range bounds; crb_theta in rad^2, crb_r in m^2."""

    crb_theta: float
    crb_r: float

    @property
    def root_crb_theta(self) -> float:
        return math.sqrt(self.crb_theta)

    @property
    def root_crb_r(self) -> float:
        return math.sqrt(self.crb_r)


@dataclass(frozen=True)
class OracleResult:
    """Output of the finite-difference Fisher oracle."""

    crb_theta: float
    crb_r: float
    alpha_cross: float
    inversion_residual: float


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors, or of each pair of rows of two stacks.

    The outer product, flattened row by row.
    """
    if a.ndim == 1:
        return np.multiply.outer(a, b).ravel()
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


def _targets(geoms: list) -> tuple:
    """r, sin(theta) and cos(theta) of each geometry, as (P, 1) columns.

    The sines and cosines come from ``math``, point by point, so every row
    sees the very values a single point would.  A single point gets plain
    floats, and its vectors come out 1-D: numpy broadcasts a float with the
    same arithmetic as a (1, 1) column, at a fraction of the cost.
    """
    cols = [(g.r, math.sin(g.theta), math.cos(g.theta)) for g in geoms]
    if len(cols) == 1:
        return cols[0]
    arr = np.array(cols, dtype=float)
    return arr[:, 0:1], arr[:, 1:2], arr[:, 2:3]


def _element_distances(n: np.ndarray, r, sin) -> np.ndarray:
    """Distances from the coordinates n to each target row.

    r and sin come from ``_targets``.  Raises the error of a single point:
    an overflow before a target on an element.  A batch raises it if any
    row does, and ``tx_bundles`` then builds each point alone.
    """
    # when r * r and 2 n r sin both overflow, their difference is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        rnt = r * r - 2.0 * n * r * sin + n * n
    # min is NaN if any entry is, so one test clears a batch where no row
    # raises.  An aperture beyond ~1e154 m makes every phase and derivative
    # inf or NaN, so the block carries no information.
    if not (rnt.min() > 0.0 and rnt.max() < math.inf):
        if not np.isfinite(rnt).all():
            raise SingularFisher("element distances overflow: the aperture is too wide")
        raise ElementCoincidence("target coincides with an array element")
    return np.sqrt(rnt)


def _spherical_trio(n: np.ndarray, r, sin, cos, k0: float):
    """Unit-norm spherical-wave vectors over coordinates n, one row per target.

    Returns the values and their theta- and r-derivatives.
    """
    dist = _element_distances(n, r, sin)
    value = np.exp(-1j * k0 * dist) / math.sqrt(n.size)
    d_theta = value * (1j * k0 * n * r * cos / dist)
    d_r = value * (1j * k0 * (n * sin - r) / dist)
    return value, d_theta, d_r


def _planar_pair(x: np.ndarray, sin, cos, k0: float):
    """Unit-norm planar-wave vectors over coordinates x and their theta-derivatives."""
    value = np.exp(1j * k0 * x * sin) / math.sqrt(x.size)
    return value, value * (1j * k0 * x * cos)


def _rows(*stacks):
    """The rows of each stack, taken together; a 1-D vector is one row."""
    return zip(*(np.atleast_2d(v) for v in stacks))


def _bundles(value, d_theta, d_r) -> list:
    """One bundle per row of the stacked vectors."""
    return [SteeringBundle(*row) for row in _rows(value, d_theta, d_r)]


def _sw_tx_bundles(layout: ArrayLayout, geoms: list) -> list:
    n = element_positions(layout)
    k0 = 2.0 * math.pi / layout.lam
    r, sin, cos = _targets(geoms)
    return _bundles(*_spherical_trio(n, r, sin, cos, k0))


def _pw_tx_bundles(layout: ArrayLayout, geoms: list) -> list:
    n = element_positions(layout)
    k0 = 2.0 * math.pi / layout.lam
    _, sin, cos = _targets(geoms)
    value, d_theta = _planar_pair(n, sin, cos, k0)
    return _bundles(value, d_theta, np.zeros_like(value))


def _hspw_tx_bundles(layout: ArrayLayout, geoms: list) -> list:
    require_widely_spaced(layout, "the hybrid model")
    k0 = 2.0 * math.pi / layout.lam
    centers = subarray_centers(layout)
    r, sin, cos = _targets(geoms)
    # the spherical trio over subarray centres (x) the planar pair over offsets
    w, w_theta, w_r = _spherical_trio(centers, r, sin, cos, k0)
    a, a_theta = _planar_pair(centred_grid(layout.M, layout.d), sin, cos, k0)
    value = _kron(w, a)
    d_theta = _kron(w_theta, a) + _kron(w, a_theta)
    d_r = _kron(w_r, a)
    return _bundles(value, d_theta, d_r)


_TX_BATCHES = {"sw": _sw_tx_bundles, "hspw": _hspw_tx_bundles, "pw": _pw_tx_bundles}


def _tx_gram(tx: SteeringBundle) -> tuple:
    """Rows of the transmit Gram matrix t_ij = vdot(t_i, t_j).

    0, 1, 2 index (value, d_theta, d_r).  ``_amf_set`` never reads t_12, so
    it is not taken and left None.
    """
    t0, t1, t2 = tx.value, tx.d_theta, tx.d_r
    vdot = np.vdot
    return (
        (vdot(t0, t0), vdot(t0, t1), vdot(t0, t2)),
        (vdot(t1, t0), vdot(t1, t1), None),
        (vdot(t2, t0), vdot(t2, t1), vdot(t2, t2)),
    )


def _rx_gram(rx: SteeringBundle) -> tuple:
    """Rows of the receive Gram matrix r_ij = vdot(r_i, r_j); r_21 is never read.

    The one-element receiver's Gram is the constant ``_ONE_ELEMENT_GRAM``.
    """
    if rx is _ONE_ELEMENT_RX:
        return _ONE_ELEMENT_GRAM
    r0, r1, r2 = rx.value, rx.d_theta, rx.d_r
    vdot = np.vdot
    return (
        (vdot(r0, r0), vdot(r0, r1), vdot(r0, r2)),
        (vdot(r1, r0), vdot(r1, r1), vdot(r1, r2)),
        (vdot(r2, r0), None, vdot(r2, r2)),
    )


def _read_only(values) -> np.ndarray:
    v = np.array(values, dtype=complex)
    v.flags.writeable = False
    return v


# The one-element receiver (``rx_bundle`` at n_r = 1) is one shared bundle.
# Its Gram is taken once, by the vdots of a copy: ``_rx_gram`` of the bundle
# itself returns this constant.
_ONE_ELEMENT_RX = SteeringBundle(_read_only([1.0]), _read_only([0.0]), _read_only([0.0]))
_ONE_ELEMENT_GRAM = _rx_gram(replace(_ONE_ELEMENT_RX))


def _vector_grams(build):
    """A model's transmit Grams taken from its vectors (``_tx_gram``)."""
    return lambda layout, geoms: [_tx_gram(tx) for tx in build(layout, geoms)]


def _pair_gram(u0, u1) -> tuple:
    """Rows of the 2x2 Gram matrix vdot(u_i, u_j), in Python complex numbers.

    Their products overflow to inf or NaN without a warning, which
    ``_amf_set`` then rejects.  vdot(u1, u0) is the conjugate of vdot(u0, u1).
    """
    g01 = complex(np.vdot(u0, u1))
    return (complex(np.vdot(u0, u0)), g01), (g01.conjugate(), complex(np.vdot(u1, u1)))


def _pw_tx_grams(layout: ArrayLayout, geoms: list) -> list:
    """Planar-wave transmit Grams from K- and M-length factors.

    An element's phase k0 (c_k + t_m) sin(theta) splits into its subarray
    centre's and its in-subarray offset's, on every layout kind, so the
    vectors are Kronecker products: value = w0 (x) a0 and d_theta =
    w1 (x) a0 + w0 (x) a1, with (w0, w1) the planar pair over the K centres
    and (a0, a1) the one over the M offsets; d_r = 0.  By the mixed-product
    rule vdot(w (x) a, w' (x) a') = vdot(w, w') vdot(a, a'), so with
    W_ij = vdot(w_i, w_j) and A_ij = vdot(a_i, a_j) the Gram needs no K*M
    vector.  The element positions are still formed once per call: where
    c_k + t_m loses an offset against a wide gap, the layout raises
    ElementCoincidence as it does for the vectors.
    """
    element_positions(layout)
    k0 = 2.0 * math.pi / layout.lam
    _, sin, cos = _targets(geoms)
    w = _planar_pair(subarray_centers(layout), sin, cos, k0)
    a = _planar_pair(centred_grid(layout.M, layout.d), sin, cos, k0)
    grams = []
    for w0, w1, a0, a1 in _rows(*w, *a):
        (w00, w01), (w10, w11) = _pair_gram(w0, w1)
        (a00, a01), (a10, a11) = _pair_gram(a0, a1)
        grams.append((
            (w00 * a00, w01 * a00 + w00 * a01, 0j),
            (w10 * a00 + w00 * a10, w11 * a00 + w10 * a01 + w01 * a10 + w00 * a11, None),
            (0j, 0j, 0j),
        ))
    return grams


# model -> how its transmit Grams are built; the bundle route's only table
_TX_GRAMS = {
    "sw": _vector_grams(_sw_tx_bundles),
    "hspw": _vector_grams(_hspw_tx_bundles),
    "pw": _pw_tx_grams,
}


def _build_each(builds: dict, layout: ArrayLayout, geoms: list, model: str) -> list:
    """builds[model] at each geometry, in one batch where it can (``errors.each_point``)."""
    if model not in builds:
        return [DomainError(f"unknown wave model {model!r}")] * len(geoms)
    build = builds[model]
    return each_point(lambda batch: build(layout, batch), lambda g: build(layout, [g])[0], geoms)


def tx_bundles(layout: ArrayLayout, geoms: list, model: str) -> list:
    """The transmit bundle at each geometry, all built in one pass.

    The layout's element positions, k0 and the hybrid model's in-subarray
    offsets are computed once; each element's arithmetic is the single
    point's, so row p is bit for bit the bundle at geoms[p] alone.  Entry p
    is that bundle, or the engine error the point raises: a batch raises
    like a single point, and then each point is built alone
    (``errors.each_point``).
    """
    return _build_each(_TX_BATCHES, layout, geoms, model)


def _tx_grams(layout: ArrayLayout, geoms: list, model: str) -> list:
    """The transmit Gram at each geometry, as ``tx_bundles`` builds bundles.

    sw and hspw take theirs from the vectors; pw from its factors
    (``_pw_tx_grams``).  Entry p is bit for bit the Gram at geoms[p] alone,
    or the engine error the point raises.
    """
    return _build_each(_TX_GRAMS, layout, geoms, model)


def sw_tx_bundle(layout: ArrayLayout, geom: SceneGeometry) -> SteeringBundle:
    """Spherical-wave transmit steering bundle over all K*M elements."""
    return unwrap(tx_bundles(layout, [geom], "sw")[0])


def pw_tx_bundle(layout: ArrayLayout, geom: SceneGeometry) -> SteeringBundle:
    """Planar-wave transmit steering bundle (no range dependence)."""
    return unwrap(tx_bundles(layout, [geom], "pw")[0])


def hspw_tx_bundle(layout: ArrayLayout, geom: SceneGeometry) -> SteeringBundle:
    """Hybrid bundle: spherical across subarray centres, planar within."""
    return unwrap(tx_bundles(layout, [geom], "hspw")[0])


def require_receiver_size(n_r: int) -> None:
    """Raise DomainError unless the receiver has an integer n_r >= 1 elements."""
    if not (isinstance(n_r, int) and n_r >= 1):
        raise DomainError(f"receiver size must be an integer >= 1, got {n_r!r}")


def rx_bundle(layout: ArrayLayout, n_r: int, geom: SceneGeometry) -> SteeringBundle:
    """Receive-side uniform-line bundle at the layout's spacing and wavelength.

    A tilted receiver or a target at its centre raises from the arrival-angle
    derivatives, before any vector is formed.
    """
    require_receiver_size(n_r)
    if n_r == 1:
        # one element has no aperture, so the receiver's placement (tilt,
        # or a target at its centre) never enters the bound
        return _ONE_ELEMENT_RX
    rho_sq, sinphi_theta, sinphi_r = arrival_triangle(geom)
    sinphi = geom.r * math.sin(geom.theta) / math.sqrt(rho_sq)

    offsets = centred_grid(n_r, layout.d)
    k0 = 2.0 * math.pi / layout.lam
    value = np.exp(1j * k0 * offsets * sinphi) / math.sqrt(n_r)
    phase_rate = 1j * k0 * offsets
    d_theta = value * phase_rate * sinphi_theta
    d_r = value * phase_rate * sinphi_r
    return SteeringBundle(value, d_theta, d_r)


def composite_bundle(tx: SteeringBundle, rx: SteeringBundle) -> SteeringBundle:
    """Normalized end-to-end vector kron(conj(tx), rx) with derivatives."""
    value = _kron(np.conj(tx.value), rx.value)
    d_theta = _kron(np.conj(tx.d_theta), rx.value) + _kron(np.conj(tx.value), rx.d_theta)
    d_r = _kron(np.conj(tx.d_r), rx.value) + _kron(np.conj(tx.value), rx.d_r)
    return SteeringBundle(value, d_theta, d_r)


def amfs(tx: SteeringBundle, rx: SteeringBundle) -> AmfSet:
    """Inner products of the composite bundle kron(conj(tx), rx), factor by factor.

    The reduction of the transmit and receive Gram matrices (``_amf_set``);
    no vector of length N_t*N_r is formed.
    """
    return _amf_set(_tx_gram(tx), _rx_gram(rx))


def _amf_set(t: tuple, r: tuple) -> AmfSet:
    """The composite inner products from the two 3x3 Gram matrices.

    vdot(conj(a) (x) b, conj(c) (x) d) = vdot(c, a) * vdot(b, d), so each
    entry is a short sum of products of transmit-side and receive-side
    inner products.  With the composite vectors value = conj(t0) (x) r0,
    d_theta = conj(t1) (x) r0 + conj(t0) (x) r1 and d_r = conj(t2) (x) r0 +
    conj(t0) (x) r2, where 0, 1, 2 index (value, d_theta, d_r), each entry
    below adds its terms in that order, starting from 0.  t_ij = vdot(t_i,
    t_j) and r_ij likewise; t_12 and r_21 never enter.  A derivative norm
    t11, t22, r11 or r22 that is not finite raises SingularFisher before any
    product can overflow: a ``ua`` mirror spaced near the float range
    squares its phase rates to inf.
    """
    (t00, t01, t02), (t10, t11, _), (t20, t21, t22) = t
    (r00, r01, r02), (r10, r11, r12), (r20, _, r22) = r
    if not (abs(t11) < math.inf and abs(t22) < math.inf
            and abs(r11) < math.inf and abs(r22) < math.inf):
        raise SingularFisher("a derivative norm is not finite")
    return AmfSet(
        htheta_sq=float((0 + t11 * r00 + t01 * r01 + t10 * r10 + t00 * r11).real),
        hr_sq=float((0 + t22 * r00 + t02 * r02 + t20 * r20 + t00 * r22).real),
        h_sq=float((0 + t00 * r00).real),
        htheta_h=complex(0 + t01 * r00 + t00 * r10),
        hr_h=complex(0 + t02 * r00 + t00 * r20),
        htheta_hr=complex(0 + t21 * r00 + t01 * r02 + t20 * r10 + t00 * r12),
    )


# Multiplier for the round-off floors of the Fisher diagonal.  Against the
# mpmath block of tests/truth.py, fig3-fig9's 21 exactly degenerate direct
# blocks (fig7's broadside K=2 hybrid layouts, q22 zero by symmetry) leave at
# most 4.3 eps of the pre-cancellation magnitude; the weakest genuine q22 is
# 529 eps, only 3.3% above the floor (fig5's hybrid K=3, I=3, r=10,
# theta=-1.5, whose range bound is 2.0e-3 off the truth's).
NOISE_FLOOR_MULT = 512.0

# A block is angle/range decoupled when |q12| <= DECOUPLED_REL_TOL * |q11|:
# sum-formula routes give an exact 0.0, inner-product routes leave residue
# around 1e-16 of q11.
DECOUPLED_REL_TOL = 1e-12

# Largest entry of (balanced Fisher) @ (its inverse) - I the oracle accepts.
ORACLE_RESIDUAL_TOL = 1e-6

# The oracle's central-difference step: in rad for theta, relative for r.
ORACLE_FD_STEP = 1e-6

_EPS = float(np.finfo(float).eps)


def normalized_fisher(a: AmfSet) -> NormalizedFisher:
    """Project out the complex gain: the Schur complement of the gain block."""
    if a.h_sq <= 0.0:
        raise DomainError("zero-norm steering vector")
    try:
        htheta_h_sq, hr_h_sq = abs(a.htheta_h) ** 2, abs(a.hr_h) ** 2
    except OverflowError:
        # inner products beyond ~1e154, as at a carrier near 1e300 Hz
        raise SingularFisher("the Fisher inner products overflow") from None
    q11 = a.htheta_sq - htheta_h_sq / a.h_sq
    q22 = a.hr_sq - hr_h_sq / a.h_sq
    q12 = a.htheta_hr.real - (a.htheta_h.conjugate() * a.hr_h).real / a.h_sq
    return floored_fisher(
        q11, q12, q22, a.htheta_sq + htheta_h_sq / a.h_sq, a.hr_sq + hr_h_sq / a.h_sq
    )


def floored_fisher(q11, q12, q22, pre11, pre22) -> NormalizedFisher:
    """The block (q11, q12, q22) with the round-off floors of its diagonal.

    pre11 and pre22 are the magnitudes q11 and q22 are formed from before
    their same-sign terms cancel; each floor is ``NOISE_FLOOR_MULT`` eps
    times its magnitude.  Every route's block takes its floors from here.
    """
    floor_mult = NOISE_FLOOR_MULT * _EPS
    return NormalizedFisher(q11, q12, q22, floor_mult * pre11, floor_mult * pre22)


def det_floor(q11, q12, q22, q11_floor, q22_floor):
    """The round-off floor of det = q11 q22 - q12^2, for one block's floats or a grid's arrays.

    An error of up to f11 in q11, f22 in q22 and sqrt(f11 f22) in q12 moves
    det, to first order, by at most q11 f22 + q22 f11 + 2 |q12| sqrt(f11 f22),
    so a det at or below that is indistinguishable from zero.  The floors are
    the diagonal's (``floored_fisher``); a hand-built block's zero floors
    leave a plain sign check.  A NaN entry gives a NaN floor, which no det
    exceeds.
    """
    return q11 * q22_floor + q22 * q11_floor + 2.0 * abs(q12) * sqrt(q11_floor * q22_floor)


def received_gain_sq(alpha: complex, n_r: int, n_t: int) -> float:
    """Squared magnitude of the aggregate gain beta = alpha sqrt(n_r n_t)."""
    return abs(alpha) ** 2 * n_r * n_t


def require_gain_and_noise(beta_sq: float, sigma_n_sq: float) -> None:
    """Raise DomainError unless the gain beta^2 and noise power are positive."""
    if not beta_sq > 0.0:
        raise DomainError(f"beta_sq must be positive, got {beta_sq!r}")
    if not sigma_n_sq > 0.0:
        raise DomainError(f"sigma_n_sq must be positive, got {sigma_n_sq!r}")


def crb(nf: NormalizedFisher, beta_sq: float, sigma_n_sq: float) -> CrbResult:
    """Angle and range bounds from the normalized Fisher block.

    The comparisons are written so that a NaN entry fails them: a block
    that overflowed is singular, not a NaN bound.
    """
    require_gain_and_noise(beta_sq, sigma_n_sq)
    if not nf.q11 > nf.q11_floor:
        raise SingularFisher(f"theta information is at the round-off floor (q11 = {nf.q11!r})")
    if not nf.q22 > nf.q22_floor:
        raise SingularFisher(f"range information is at the round-off floor (q22 = {nf.q22!r})")
    det = nf.det
    if not det > det_floor(nf.q11, nf.q12, nf.q22, nf.q11_floor, nf.q22_floor):
        raise SingularFisher(f"(theta, r) Fisher block is singular (det = {det!r})")
    pref = sigma_n_sq / (2.0 * beta_sq)
    return CrbResult(crb_theta=pref * nf.q22 / det, crb_r=pref * nf.q11 / det)


def _unit_crb(nf: NormalizedFisher, layout: ArrayLayout, n_r: int) -> CrbResult:
    """Bounds at unit gain (alpha = 1, so beta^2 = N_r N_t) and unit noise."""
    return crb(nf, received_gain_sq(1.0, n_r, layout.n_elements), 1.0)


def crb_theta_only(nf: NormalizedFisher, beta_sq: float, sigma_n_sq: float) -> float:
    """Angle bound when the block is angle/range decoupled.

    Broadside and planar-wave scenarios can zero the range information
    entirely (q12 = 0 with q22 = 0): the pair bound does not exist, but the
    angle stays estimable and its bound is the scalar inverse.  Decoupling
    must hold at round-off scale relative to q11 (``DECOUPLED_REL_TOL``), so
    that this never silently mis-handles a genuinely coupled block; a
    coupled block raises DomainError.
    """
    if abs(nf.q12) > DECOUPLED_REL_TOL * abs(nf.q11):
        raise DomainError(
            f"theta-only bound needs a decoupled block, got q12 = {nf.q12!r} "
            f"with q11 = {nf.q11!r}"
        )
    require_gain_and_noise(beta_sq, sigma_n_sq)
    if not nf.q11 > nf.q11_floor:
        raise SingularFisher(f"theta information is at the round-off floor (q11 = {nf.q11!r})")
    return sigma_n_sq / (2.0 * beta_sq * nf.q11)


def bundle_crb(
    layout: ArrayLayout, geom: SceneGeometry, n_r: int, *, model: str = "sw"
) -> CrbResult:
    """First-principles bounds via the steering bundles (the exact route).

    At unit gain and noise; ``crb(bundle_fisher(...), beta_sq, sigma_n_sq)``
    gives them at any other.
    """
    return _unit_crb(bundle_fisher(layout, geom, n_r, model=model), layout, n_r)


def bundle_fisher(
    layout: ArrayLayout, geom: SceneGeometry, n_r: int, *, model: str = "sw"
) -> NormalizedFisher:
    """Normalized Fisher block assembled from the steering bundles."""
    return unwrap(bundle_fishers(layout, [geom], n_r, model=model)[0])


# Transmit elements, summed over the points, that one batch builds at once.
# Peak RSS of ``bench/run.py --workload figures`` (8 s runs, 2-core Xeon
# VM): 38.3 MB one point at a time; 38.5, 39.1, 42.3 and 44.2 MB at 2**12,
# 2**14, 2**16 and no limit, at 10.2k, 11.6k, 10.9k and 11.1k rows/s.
# 2**14 is the fastest and stays within 3% of one point at a time.
BATCH_ELEMENTS = 2**14


def bundle_fishers(layout: ArrayLayout, geoms: list, n_r: int, *, model: str = "sw") -> list:
    """``bundle_fisher`` at each geometry, the transmit bundles built per batch.

    Entry p is the block at geoms[p], or the engine error ``bundle_fisher``
    raises there: a transmit error before a receive error.  A batch holds at
    most ``BATCH_ELEMENTS`` transmit elements (at least one point) and lives
    only inside its ``_batch_fishers`` call, so it is freed before the next.
    """
    step = max(1, BATCH_ELEMENTS // layout.n_elements)
    batches = (geoms[start : start + step] for start in range(0, len(geoms), step))
    return [out for batch in batches for out in _batch_fishers(layout, batch, n_r, model)]


def _batch_fishers(layout: ArrayLayout, geoms: list, n_r: int, model: str) -> list:
    """The blocks (or errors) of one batch, its transmit Grams built in one pass."""

    def fisher(geom, t):  # a transmit error first
        return normalized_fisher(_amf_set(unwrap(t), _rx_gram(rx_bundle(layout, n_r, geom))))

    return [outcome(fisher, *point) for point in zip(geoms, _tx_grams(layout, geoms, model))]


def full_fisher_oracle(
    layout: ArrayLayout,
    geom: SceneGeometry,
    n_r: int,
    *,
    model: str = "sw",
    training: str = "implicit",
) -> OracleResult:
    """Independent 4x4 Fisher oracle built from finite differences.

    Rebuilds the composite steering vector from phases alone at displaced
    (theta, r), differentiates numerically, forms the full Fisher matrix over
    (theta, r, Re alpha, Im alpha) at unit gain (alpha = 1) and unit noise,
    and inverts it, verifying the inversion residual.  ``training="dft"``
    routes the transmit vector through an explicit unitary training map
    first, which must leave the result unchanged (ideal-training identity).
    """
    if training not in ("implicit", "dft"):
        raise DomainError(f"unknown training map {training!r}")
    n_t = layout.n_elements

    def hvec(theta: float, r: float) -> np.ndarray:
        g = replace(geom, theta=theta, r=r)
        tx = np.conj(unwrap(tx_bundles(layout, [g], model)[0]).value)
        rx = rx_bundle(layout, n_r, g).value
        # the unitary DFT matrix is symmetric, so its transpose maps tx as fft does
        mapped = tx if training == "implicit" else np.fft.fft(tx) / math.sqrt(n_t)
        return _kron(mapped, rx)

    d_theta_step = ORACLE_FD_STEP
    d_r_step = ORACLE_FD_STEP * geom.r
    h0 = hvec(geom.theta, geom.r)
    h_theta = (hvec(geom.theta + d_theta_step, geom.r) - hvec(geom.theta - d_theta_step, geom.r)) / (
        2.0 * d_theta_step
    )
    h_r = (hvec(geom.theta, geom.r + d_r_step) - hvec(geom.theta, geom.r - d_r_step)) / (
        2.0 * d_r_step
    )

    root_gain = math.sqrt(n_r * n_t)
    jac = np.column_stack(
        [root_gain * h_theta, root_gain * h_r, root_gain * h0, 1j * root_gain * h0]
    )
    fisher = 2.0 * (jac.conj().T @ jac).real
    # Entries span many orders of magnitude (k0^2 r^2 angle terms vs O(1)
    # gain terms), so work with the Jacobi-equilibrated matrix and map back;
    # the residual is then meaningful rather than dominated by scaling.
    diag = np.diag(fisher)
    if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        raise SingularFisher(f"oracle Fisher diagonal is degenerate: {diag!r}")
    scale = 1.0 / np.sqrt(diag)
    balanced = fisher * scale[:, None] * scale[None, :]
    # Range and gain can be nearly collinear, and the Fisher matrix squares
    # the Jacobian's condition number (6e6 against 2.5e3 in the training-map
    # test scene).  Inverting it through a QR factor of
    # the equilibrated real Jacobian [Re J; Im J] keeps the round-off at
    # cond(J) instead: balanced = R^T R, so balanced^-1 = R^-1 R^-T.
    real_jac = math.sqrt(2.0) * np.vstack([jac.real, jac.imag]) * scale[None, :]
    tri = np.linalg.qr(real_jac, mode="r")
    try:
        tri_inv = np.linalg.inv(tri)
    except np.linalg.LinAlgError as exc:
        raise SingularFisher(f"oracle Fisher matrix is singular: {exc}") from exc
    balanced_inv = tri_inv @ tri_inv.T
    residual = float(np.max(np.abs(balanced @ balanced_inv - np.eye(4))))
    if residual > ORACLE_RESIDUAL_TOL:
        raise IllConditioned(
            f"oracle inversion residual {residual:.3e} exceeds {ORACLE_RESIDUAL_TOL:.1e}"
        )
    with np.errstate(over="ignore"):
        covariance = balanced_inv * scale[:, None] * scale[None, :]
    if not np.all(np.isfinite(covariance)):
        raise SingularFisher("the oracle covariance overflows")
    alpha_cross = float(fisher[2, 3] / fisher[2, 2])
    return OracleResult(
        crb_theta=float(covariance[0, 0]),
        crb_r=float(covariance[1, 1]),
        alpha_cross=alpha_cross,
        inversion_residual=residual,
    )
