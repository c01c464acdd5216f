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
receive-side inner product, so the Fisher block is one reduction of two
3x3 Gram matrices of (value, d_theta, d_r): T on the transmit side and R
on the receive side.  Each wave model says how its T is built
(``_TX_GRAMS``):

* ``sw`` and ``hspw`` take T from their transmit vectors (``_gram``);
* ``pw`` takes T from the planar pair over the K subarray centres and the
  one over the M in-subarray offsets (``_pw_tx_grams``): its vectors are
  Kronecker products, so no K*M vector is formed.

R comes from the receive vectors; the one-element receiver is one constant
bundle whose Gram is taken once.  ``amfs`` is the first half of the
reduction for a given pair of bundles.  ``full_fisher_oracle`` alone builds
the composite vector on a product path, since it is the independent check.
``composite_bundle`` builds it with its derivatives but has no caller in
the package: it is the tests' reference for ``amfs``, and the benchmark's
tracer and reference recorder name it.  It moves out of the package once
the recorder builds its own composite vector (ROADMAP item 2).

One point or a grid of them.  ``bundle_fisher`` takes one scene or a
``GeometryGrid``, as ``crb_analytic.sums_fisher`` does; on a grid its
fields hold one entry per point.  ``fisher_columns(grid, fisher)`` turns
either route on a grid into (blocks, errors): a (5, P) array of q11, q12,
q22 and the two floors, one column per point, and each point's engine
error.  The element positions, k0 and the offsets are taken once per call;
the grid then runs in batches of at most ``BATCH_ELEMENTS`` vector entries,
each vector one row of a (points, entries) array that keeps the single
point's operations in their order.  A batch's Gram entry is one
``np.vecdot``, which sums each row as that row's ``np.vdot`` does
(``np.einsum('pi,pi->p')`` sums in another order and moves bits).  The
reduction (``_inner_products``, then ``_schur``) is written once over real
and imaginary parts, in ``pointwise`` style: one point's Python floats or
a batch's arrays run the same lines, so each column is bit for bit the
point's block alone.  Three things would break that:

* numpy's array complex product may fuse its multiply and add, so every
  product is written as real operations (``_mul``), which round as
  Python's and numpy's scalar complex products do;
* |z| is ``pointwise.hypot``: ``np.hypot`` on arrays and ``abs(complex)``
  on floats both call libm's hypot, which ``math.hypot`` does not;
* a square is ``pointwise.power(x, 2)``, libm's pow as Python's ``x ** 2``
  calls it, which differs from x*x.

Where a point raises alone its column reads NaN (``pointwise.checked``),
and a batch that raises as a whole makes the grid raise; each such column,
or every column, is evaluated again alone (``fisher_columns``, the one
rule both routes share), so every point gets its own block or error.
``crb`` and ``crb_theta_only`` are written alike: a block's floats raise
where a grid's columns get NaN.  ``tx_bundles`` builds the bundles of a
list of points in one batch, which raises if any point does.
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
    CrbEngineError,
    DomainError,
    ElementCoincidence,
    IllConditioned,
    SingularFisher,
    outcome,
)
from .geometry import GeometryGrid, SceneGeometry, arrival_triangle
from .pointwise import checked, cos, fails, hypot, power, sin, sqrt


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

    r and sin are floats or (P, 1) columns.  Raises the error of a single
    point: an overflow before a target on an element.  A batch raises it if
    any row does (the bundle route then evaluates each point alone).
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
    return np.sqrt(rnt, out=rnt)


def _spherical_trio(n: np.ndarray, r, sin, cos, k0: float):
    """Unit-norm spherical-wave vectors over coordinates n, one row per target.

    Returns the values and their theta- and r-derivatives.  numpy divides a
    complex array by a real c as (a + b 0, b - a 0) times 1/c, in a slow
    loop.  A product with 1/c differs from that only where a or b is a zero
    whose sign the + or - would flip, which no value entry (cos and sin of
    a nonzero phase) and no derivative on a layout's coordinates has, and
    in the sign bit of a NaN (a phase k0 dist past the float range, a
    singular point either way).  So the scale and 1/dist are multiplied in.

    Each derivative is the value times i b, with b its real phase rate: b
    is formed in real arithmetic, made the complex (b 0 - 0 1, b 1 + 0 0)
    and multiplied by the value.  The complex chain 1j k0 ... this replaces
    builds a coefficient with the same imaginary part (b, in the same
    order) and a zero real part of the same sign (the tests check it, at
    theta = 0 and on an element at n = 0 too), so the products are bit for
    bit the same, with two complex passes a derivative instead of four.
    Each step that ends an array's use writes into it (``out=``, ``*=``):
    the same operations in the same order, without a fresh temporary.
    """
    dist = _element_distances(n, r, sin)
    value = -1j * k0 * dist
    np.exp(value, out=value)
    value *= 1.0 / math.sqrt(n.size)
    inv = np.divide(1.0, dist, out=dist)
    rate_theta = k0 * n * r
    rate_theta *= cos
    rate_theta *= inv
    rate_r = n * sin - r
    np.multiply(k0, rate_r, out=rate_r)
    rate_r *= inv
    d_theta, d_r = rate_theta * 1j, rate_r * 1j
    # value * (i b), value first as in the chain it replaces
    return value, np.multiply(value, d_theta, out=d_theta), np.multiply(value, d_r, out=d_r)


def _planar_pair(x: np.ndarray, sin, cos, k0: float):
    """Unit-norm planar-wave vectors over coordinates x and their theta-derivatives.

    At sin(theta) = 0 the values' imaginary parts are signed zeros, whose
    signs a product with the reciprocal scale would flip: they keep the
    division (so does the receive vector at a zero arrival angle).
    """
    value = np.exp(1j * k0 * x * sin) / math.sqrt(x.size)
    return value, value * (1j * k0 * x * cos)


def _k0(layout: ArrayLayout) -> float:
    return 2.0 * math.pi / layout.lam


# Each model's transmit vectors: model -> layout -> (r, sin, cos) -> the
# (value, d_theta, d_r) rows.  What depends on the layout alone is taken
# once; r, sin and cos are one point's floats or a batch's (P, 1) columns.

def _sw_vectors(layout: ArrayLayout):
    n, k0 = element_positions(layout), _k0(layout)
    return lambda r, sin, cos: _spherical_trio(n, r, sin, cos, k0)


def _pw_vectors(layout: ArrayLayout):
    n, k0 = element_positions(layout), _k0(layout)

    def build(r, sin, cos):
        value, d_theta = _planar_pair(n, sin, cos, k0)
        return value, d_theta, np.zeros_like(value)

    return build


def _hspw_vectors(layout: ArrayLayout):
    require_widely_spaced(layout, "the hybrid model")
    k0 = _k0(layout)
    centers, offsets = subarray_centers(layout), centred_grid(layout.M, layout.d)

    def build(r, sin, cos):
        # the spherical trio over subarray centres (x) the planar pair over offsets
        w, w_theta, w_r = _spherical_trio(centers, r, sin, cos, k0)
        a, a_theta = _planar_pair(offsets, sin, cos, k0)
        d_theta = _kron(w_theta, a)
        d_theta += _kron(w, a_theta)
        return _kron(w, a), d_theta, _kron(w_r, a)

    return build


_TX_VECTORS = {"sw": _sw_vectors, "hspw": _hspw_vectors, "pw": _pw_vectors}


def _bundles(value, d_theta, d_r) -> list:
    """One bundle per row of the stacked vectors; a 1-D vector is one row."""
    return [SteeringBundle(*row) for row in zip(*map(np.atleast_2d, (value, d_theta, d_r)))]


def _unknown_model(model: str) -> DomainError:
    return DomainError(f"unknown wave model {model!r}")


def tx_bundles(layout: ArrayLayout, geoms: list, model: str) -> list:
    """The transmit bundle at each geometry, all built in one pass.

    The layout's element positions, k0 and the hybrid model's in-subarray
    offsets are computed once; each element's arithmetic is the single
    point's, so entry p is bit for bit the bundle at geoms[p] alone.  The
    batch raises the error a single point raises, if any of its points
    does; an unknown model is a DomainError.
    """
    if model not in _TX_VECTORS:
        raise _unknown_model(model)
    build = _TX_VECTORS[model](layout)
    return _bundles(*build(*_targets(geoms))) if geoms else []


def sw_tx_bundle(layout: ArrayLayout, geom: SceneGeometry) -> SteeringBundle:
    """Spherical-wave transmit steering bundle over all K*M elements."""
    return tx_bundles(layout, [geom], "sw")[0]


def pw_tx_bundle(layout: ArrayLayout, geom: SceneGeometry) -> SteeringBundle:
    """Planar-wave transmit steering bundle (no range dependence)."""
    return tx_bundles(layout, [geom], "pw")[0]


def hspw_tx_bundle(layout: ArrayLayout, geom: SceneGeometry) -> SteeringBundle:
    """Hybrid bundle: spherical across subarray centres, planar within."""
    return tx_bundles(layout, [geom], "hspw")[0]


def require_receiver_size(n_r: int) -> None:
    """Raise DomainError unless the receiver has an integer n_r >= 1 elements."""
    if not (isinstance(n_r, int) and n_r >= 1):
        raise DomainError(f"receiver size must be an integer >= 1, got {n_r!r}")


def _column(x):
    """A batch's array as a (P, 1) column; one point's float as it is."""
    return x[:, None] if isinstance(x, np.ndarray) else x


def _rx_vectors(layout: ArrayLayout, n_r: int):
    """geom -> the receive (value, d_theta, d_r) at n_r >= 2 elements on this layout.

    geom is one scene or a batch's ``GeometryGrid``; a tilted receiver or a
    target at its centre raises from the arrival-angle derivatives (a
    batch's point there gets NaN), before any vector is formed.
    """
    k0 = _k0(layout)
    phase_rate = 1j * k0 * centred_grid(n_r, layout.d)
    norm = math.sqrt(n_r)

    def build(geom):
        rho_sq, sinphi_theta, sinphi_r = map(_column, arrival_triangle(geom))
        sinphi = _column(geom.r * sin(geom.theta)) / sqrt(rho_sq)
        value = np.exp(phase_rate * sinphi) / norm
        return value, value * phase_rate * sinphi_theta, value * phase_rate * sinphi_r

    return build


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
    return SteeringBundle(*_rx_vectors(layout, n_r)(geom))


def composite_bundle(tx: SteeringBundle, rx: SteeringBundle) -> SteeringBundle:
    """Normalized end-to-end vector kron(conj(tx), rx) with derivatives."""
    value = _kron(np.conj(tx.value), rx.value)
    d_theta = _kron(np.conj(tx.d_theta), rx.value) + _kron(np.conj(tx.value), rx.d_theta)
    d_r = _kron(np.conj(tx.d_r), rx.value) + _kron(np.conj(tx.value), rx.d_r)
    return SteeringBundle(value, d_theta, d_r)


# A Gram is the tuple of its entries g_ij = vdot(u_i, u_j) at these (i, j),
# 0, 1, 2 indexing (value, d_theta, d_r); the reduction never reads t_12 or
# r_21.  Each entry is a (re, im) pair of one point's Python floats or of a
# batch's arrays.
_TX_ENTRIES = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2))
_RX_ENTRIES = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 2))
_PAIR_ENTRIES = ((0, 0), (0, 1), (1, 1))


def _gram(entries, vectors) -> tuple:
    """vdot(vectors[i], vectors[j]) at each (i, j) of entries, as (re, im) pairs.

    One point's 1-D vectors give Python floats, each entry one ``np.vdot``.
    A batch's (P, N) stacks give arrays with one entry per row, each entry
    one ``np.vecdot``: it conjugates its first argument and hands each row
    to the BLAS zdotc that ``np.vdot`` calls, so every row's entry is bit
    for bit the row's own ``np.vdot``, with no Python call per row.  Either
    way a row longer than ``_BLAS_SPLIT`` is summed in parts (``_dots``).
    """
    if vectors[0].ndim == 1:
        return tuple(_parts(complex(_dots(np.vdot, vectors[i], vectors[j]))) for i, j in entries)
    dots = np.array([_dots(np.vecdot, vectors[i], vectors[j]) for i, j in entries])
    return tuple(zip(dots.real, dots.imag))


# OpenBLAS sums a complex dot product longer than this on all its threads,
# each thread a contiguous part, so the bits of a longer sum would depend on
# the size of its thread pool.
_BLAS_SPLIT = 10_000


def _dots(dot, a: np.ndarray, b: np.ndarray):
    """dot(a, b), ``np.vdot`` of two vectors or ``np.vecdot`` of two stacks of rows.

    A row longer than ``_BLAS_SPLIT`` is summed as its first (n + 1) // 2
    entries plus the rest, each part split again until none is longer, so
    that BLAS sums every part on one thread.  Up to twice ``_BLAS_SPLIT``
    that is the sum OpenBLAS forms on two threads; past it the split
    defines the bits.  Either way they no longer depend on the pool.
    """
    n = a.shape[-1]
    if n <= _BLAS_SPLIT:
        return dot(a, b)
    h = (n + 1) // 2
    return _dots(dot, a[..., :h], b[..., :h]) + _dots(dot, a[..., h:], b[..., h:])


def _parts(z: complex) -> tuple:
    return z.real, z.imag


def _mul(a, b) -> tuple:
    """a * b for (re, im) pairs, rounded as Python's complex product rounds it."""
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def _add(a, b) -> tuple:
    return a[0] + b[0], a[1] + b[1]


def _conj(a) -> tuple:
    return a[0], -a[1]


def _total(*terms) -> tuple:
    """0 + terms[0] + terms[1] + ..., part by part, as a complex sum from 0."""
    re = im = 0.0
    for term in terms:
        re, im = re + term[0], im + term[1]
    return re, im


def _vector_grams(vectors):
    """A model's transmit Grams taken from its vectors, entry by entry; a row holds N_t entries."""

    def setup(layout: ArrayLayout):
        build = vectors(layout)
        return (lambda r, sin, cos: _gram(_TX_ENTRIES, build(r, sin, cos))), layout.n_elements

    return setup


def _pw_tx_grams(layout: ArrayLayout):
    """Planar-wave transmit Grams from K- and M-length factors.

    An element's phase k0 (c_k + t_m) sin(theta) splits into its subarray
    centre's and its in-subarray offset's, on every layout kind, so the
    vectors are Kronecker products: value = w0 (x) a0 and d_theta =
    w1 (x) a0 + w0 (x) a1, with (w0, w1) the planar pair over the K centres
    and (a0, a1) the one over the M offsets; d_r = 0.  By the mixed-product
    rule vdot(w (x) a, w' (x) a') = vdot(w, w') vdot(a, a'), so with
    W_ij = vdot(w_i, w_j) and A_ij = vdot(a_i, a_j) the Gram needs no K*M
    vector, and a batch row holds K + M entries; W_10 and A_10 are
    conjugates.

    Where c_k + t_m loses an offset against a wide gap, the layout raises
    ElementCoincidence exactly where ``element_positions`` raises, as it
    does for the vectors, mostly without forming the K*M positions.  The
    K - 1 steps across subarrays are compared on the sums
    ``element_positions`` forms.  Within a subarray fl is monotone, and each
    position is off its exact sum by at most half a spacing at max|c| +
    max|t| (both grids are symmetric, so these are their last entries):
    every step there is positive when the smallest offset gap exceeds two
    such spacings.  Only when one of the two is not settled are all
    positions formed and checked.
    """
    k0 = _k0(layout)
    centers, offsets = subarray_centers(layout), centred_grid(layout.M, layout.d)
    across = np.all(centers[:-1] + offsets[-1] < centers[1:] + offsets[0])
    within = layout.M == 1 or np.diff(offsets).min() > 2.0 * np.spacing(centers[-1] + offsets[-1])
    if not (across and within):
        element_positions(layout)

    def grams(r, sin, cos):
        w00, w01, w11 = _gram(_PAIR_ENTRIES, _planar_pair(centers, sin, cos, k0))
        a00, a01, a11 = _gram(_PAIR_ENTRIES, _planar_pair(offsets, sin, cos, k0))
        w10, a10 = _conj(w01), _conj(a01)
        zero = (0.0, 0.0)
        return (
            _mul(w00, a00), _add(_mul(w01, a00), _mul(w00, a01)), zero,
            _add(_mul(w10, a00), _mul(w00, a10)),
            _add(_add(_add(_mul(w11, a00), _mul(w10, a01)), _mul(w01, a10)), _mul(w00, a11)),
            zero, zero, zero,
        )

    return grams, layout.K + layout.M


# model -> layout -> (the transmit Gram at (r, sin, cos), the entries a batch
# row holds); the bundle route's only table
_TX_GRAMS = {"sw": _vector_grams(_sw_vectors), "hspw": _vector_grams(_hspw_vectors),
             "pw": _pw_tx_grams}


def _tx_grams(layout: ArrayLayout, model: str) -> tuple:
    """The model's transmit Grams on this layout, and the entries a batch row holds."""
    if model not in _TX_GRAMS:
        raise _unknown_model(model)
    return _TX_GRAMS[model](layout)


def _read_only(values) -> np.ndarray:
    v = np.array(values, dtype=complex)
    v.flags.writeable = False
    return v


# The one-element receiver (``rx_bundle`` at n_r = 1) is one shared bundle,
# whose Gram is taken once.
_ONE_ELEMENT_RX = SteeringBundle(_read_only([1.0]), _read_only([0.0]), _read_only([0.0]))
_ONE_ELEMENT_GRAM = _gram(_RX_ENTRIES, (_ONE_ELEMENT_RX.value, _ONE_ELEMENT_RX.d_theta,
                                        _ONE_ELEMENT_RX.d_r))


def _rx_gram(rx: SteeringBundle) -> tuple:
    if rx is _ONE_ELEMENT_RX:
        return _ONE_ELEMENT_GRAM
    return _gram(_RX_ENTRIES, (rx.value, rx.d_theta, rx.d_r))


def _rx_grams(layout: ArrayLayout, n_r: int):
    """The receive Grams at n_r elements on this layout: geom -> Gram."""
    require_receiver_size(n_r)
    if n_r == 1:
        return lambda geom: _ONE_ELEMENT_GRAM
    build = _rx_vectors(layout, n_r)
    return lambda geom: _gram(_RX_ENTRIES, build(geom))


def amfs(tx: SteeringBundle, rx: SteeringBundle) -> AmfSet:
    """Inner products of the composite bundle kron(conj(tx), rx), factor by factor.

    The first half of the bundle route's reduction (``_inner_products``) on
    the two bundles' Grams; no vector of length N_t*N_r is formed.
    """
    t = _gram(_TX_ENTRIES, (tx.value, tx.d_theta, tx.d_r))
    htheta_sq, hr_sq, h_sq, htheta_h, hr_h, htheta_hr = _inner_products(t, _rx_gram(rx))
    return AmfSet(htheta_sq, hr_sq, h_sq, complex(*htheta_h), complex(*hr_h), complex(*htheta_hr))


def _inner_products(t: tuple, r: tuple) -> tuple:
    """The composite inner products from the two Grams (``AmfSet``'s fields, in order).

    vdot(conj(a) (x) b, conj(c) (x) d) = vdot(c, a) * vdot(b, d), so each
    entry is a short sum of products of transmit-side and receive-side
    inner products.  With the composite vectors value = conj(t0) (x) r0,
    d_theta = conj(t1) (x) r0 + conj(t0) (x) r1 and d_r = conj(t2) (x) r0 +
    conj(t0) (x) r2, each entry below adds its terms in that order,
    starting from 0; the three real ones keep their real part, the others
    their (re, im) pair.  A derivative norm t11, t22, r11 or r22 that is
    not finite is SingularFisher: a ``ua`` mirror spaced near the float
    range squares its phase rates to inf.
    """
    t00, t01, t02, t10, t11, t20, t21, t22 = t
    r00, r01, r02, r10, r11, r12, r20, r22 = r
    finite = ((hypot(*t11) < math.inf) & (hypot(*t22) < math.inf)
              & (hypot(*r11) < math.inf) & (hypot(*r22) < math.inf))
    h_sq = checked(_total(_mul(t00, r00))[0], fails(finite),
                   lambda: SingularFisher("a derivative norm is not finite"))
    return (
        _total(_mul(t11, r00), _mul(t01, r01), _mul(t10, r10), _mul(t00, r11))[0],
        _total(_mul(t22, r00), _mul(t02, r02), _mul(t20, r20), _mul(t00, r22))[0],
        h_sq,
        _total(_mul(t01, r00), _mul(t00, r10)),
        _total(_mul(t02, r00), _mul(t00, r20)),
        _total(_mul(t21, r00), _mul(t01, r02), _mul(t20, r10), _mul(t00, r12)),
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
    """Project out the complex gain: the Schur complement of the gain block (``_schur``)."""
    return _schur(a.htheta_sq, a.hr_sq, a.h_sq, _parts(a.htheta_h), _parts(a.hr_h),
                  _parts(a.htheta_hr))


def _schur(htheta_sq, hr_sq, h_sq, htheta_h, hr_h, htheta_hr) -> NormalizedFisher:
    """The floored block from ``_inner_products``' six entries, of one point or a batch.

    A zero-norm vector is a DomainError; |h|^2 beyond the float range, as at
    a carrier near 1e300 Hz, is SingularFisher.
    """
    h_sq = checked(h_sq, h_sq <= 0.0, lambda: DomainError("zero-norm steering vector"))
    try:
        htheta_h_sq, hr_h_sq = power(hypot(*htheta_h), 2), power(hypot(*hr_h), 2)
    except OverflowError:
        raise SingularFisher("the Fisher inner products overflow") from None
    q11 = htheta_sq - htheta_h_sq / h_sq
    q22 = hr_sq - hr_h_sq / h_sq
    q12 = htheta_hr[0] - _mul(_conj(htheta_h), hr_h)[0] / h_sq
    return floored_fisher(q11, q12, q22, htheta_sq + htheta_h_sq / h_sq, hr_sq + hr_h_sq / h_sq)


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


def _refused(nf: NormalizedFisher):
    """Whether ``crb`` refuses the block: a bool for a point, a mask for a grid (NaN fails)."""
    det_ok = nf.det > det_floor(nf.q11, nf.q12, nf.q22, nf.q11_floor, nf.q22_floor)
    return fails((nf.q11 > nf.q11_floor) & (nf.q22 > nf.q22_floor) & det_ok)


def crb(nf: NormalizedFisher, beta_sq: float, sigma_n_sq: float) -> CrbResult:
    """Angle and range bounds from the normalized Fisher block, of one point or a grid.

    A block at a round-off floor is singular (``_refused``).  A point raises
    SingularFisher for the first of q11, q22 and det that fails; a grid gets
    NaN bounds where any fails (``pointwise.checked``).
    """
    require_gain_and_noise(beta_sq, sigma_n_sq)
    det = nf.det
    invertible = checked(det, _refused(nf), lambda: SingularFisher(
        f"theta information is at the round-off floor (q11 = {nf.q11!r})"
        if not nf.q11 > nf.q11_floor
        else f"range information is at the round-off floor (q22 = {nf.q22!r})"
        if not nf.q22 > nf.q22_floor
        else f"(theta, r) Fisher block is singular (det = {det!r})"))
    pref = sigma_n_sq / (2.0 * beta_sq)
    return CrbResult(crb_theta=pref * nf.q22 / invertible, crb_r=pref * nf.q11 / invertible)


def _unit_crb(nf: NormalizedFisher, layout: ArrayLayout, n_r: int) -> CrbResult:
    """Bounds at unit gain (alpha = 1, so beta^2 = N_r N_t) and unit noise."""
    return crb(nf, received_gain_sq(1.0, n_r, layout.n_elements), 1.0)


def crb_theta_only(nf: NormalizedFisher, beta_sq: float, sigma_n_sq: float) -> float:
    """Angle bound when the block is angle/range decoupled, of one point or a grid.

    Broadside and planar-wave scenarios can zero the range information
    entirely (q12 = 0 with q22 = 0): the pair bound does not exist, but the
    angle stays estimable and its bound is the scalar inverse.  Decoupling
    must hold at round-off scale relative to q11 (``DECOUPLED_REL_TOL``), so
    that this never silently mis-handles a genuinely coupled block.  A point
    raises DomainError if coupled, then as ``crb`` for the gain, then SingularFisher
    for q11 at its floor or NaN; a grid gets NaN at coupled and floored points.
    """
    q11 = checked(nf.q11, abs(nf.q12) > DECOUPLED_REL_TOL * abs(nf.q11), lambda: DomainError(
        f"theta-only bound needs a decoupled block, got q12 = {nf.q12!r} "
        f"with q11 = {nf.q11!r}"))
    require_gain_and_noise(beta_sq, sigma_n_sq)
    q11 = checked(q11, fails(q11 > nf.q11_floor), lambda: SingularFisher(
        f"theta information is at the round-off floor (q11 = {nf.q11!r})"))
    return sigma_n_sq / (2.0 * beta_sq * q11)


def bundle_crb(
    layout: ArrayLayout, geom: SceneGeometry, n_r: int, *, model: str = "sw"
) -> CrbResult:
    """First-principles bounds via the steering bundles (the exact route).

    At unit gain and noise; ``crb(bundle_fisher(...), beta_sq, sigma_n_sq)``
    gives them at any other.
    """
    return _unit_crb(bundle_fisher(layout, geom, n_r, model=model), layout, n_r)


def bundle_fisher(
    layout: ArrayLayout, geom: SceneGeometry | GeometryGrid, n_r: int, *, model: str = "sw"
) -> NormalizedFisher:
    """Normalized Fisher block assembled from the steering bundles, at a scene or a grid.

    A transmit error comes before a receive error.  On a grid the transmit
    and receive Grams are gathered into columns batch by batch
    (``_gram_columns``), and one reduction turns them into the blocks.
    Called on a grid directly, it raises for the whole grid: per-point errors,
    and the ``np.errstate`` hiding overflow warnings, come via ``fisher_columns``.
    """
    tx, row = _tx_grams(layout, model)
    if isinstance(geom, GeometryGrid):
        rx, scenes = _rx_grams(layout, n_r), _with_arrays(geom)
        t = _gram_columns(lambda at: tx(*_targets_at(scenes, at)), geom.size, row)
        g = _gram_columns(lambda at: rx(_scenes_at(scenes, at)), geom.size, n_r)
    else:
        t = tx(geom.r, math.sin(geom.theta), math.cos(geom.theta))
        g = _rx_grams(layout, n_r)(geom)
    return _schur(*_inner_products(t, g))


# Vector entries, summed over the points, that one batch builds at once: N_t
# a point on the transmit side (K + M for pw's factors), N_r on the receive
# side.  Measured with ``scripts/ab_inprocess.py`` on ``figures`` (2-core
# Xeon VM, two runs each): time against the per-row ``np.vdot`` Grams at
# 2**13 that ``np.vecdot`` replaced, as the ratio of minima and the median
# per-round ratio (that code against itself: 0.993-1.005 and 0.997-1.007),
# and minor page faults per op:
#   2**12  1.001-1.015, 0.982-1.006, 0 faults   K = 12 leaves 2 points a
#                           batch: per-batch overhead dominates
#   2**13  0.913-0.918, 0.898-0.910, 0 faults   every (P, N) complex128
#                           temporary stays below glibc's 128 KiB mmap
#                           threshold
#   2**14  0.913-0.920, 0.928-0.948, 526 faults   temporaries past the
#                           threshold are mapped and unmapped again, batch
#                           after batch
BATCH_ELEMENTS = 2**13


def fisher_columns(grid: GeometryGrid, fisher) -> tuple:
    """(blocks, errors) at each point of a grid: fisher(grid)'s columns, each checked alone.

    fisher is a route bound to its layout, receiver and model: fisher(grid)
    returns a ``NormalizedFisher`` whose fields hold one entry per point (a
    float where every point shares it), and fisher(scene) one point's block.
    blocks is a (5, P) array of q11, q12, q22, q11_floor and q22_floor, one
    column per point, and errors maps each point that has an engine error to
    it, kept bare (``errors.outcome``); its column reads NaN.  A column that
    comes out non-finite, and every column when fisher(grid) raises an
    engine or arithmetic error, is taken from fisher at the point's scene
    (``GeometryGrid.scene``), so each column and error is the very one the
    point gets alone.
    """
    blocks = np.full((5, grid.size), np.nan)
    try:
        with np.errstate(all="ignore"):
            nf = fisher(grid)
        for row, col in zip(blocks, (nf.q11, nf.q12, nf.q22, nf.q11_floor, nf.q22_floor)):
            row[:] = col
    except (CrbEngineError, ArithmeticError):
        pass
    errors = {}
    for p in np.flatnonzero(~np.isfinite(blocks).all(axis=0)).tolist():
        nf = outcome(fisher, grid.scene(p))
        if isinstance(nf, CrbEngineError):
            errors[p] = nf
            blocks[:, p] = np.nan
        else:
            blocks[:, p] = nf.q11, nf.q12, nf.q22, nf.q11_floor, nf.q22_floor
    return blocks, errors


def _gram_columns(gram, size: int, row: int) -> tuple:
    """The Gram entries of points 0 to size, gram(slice) a batch at a time, as (re, im) columns.

    A batch holds at most ``BATCH_ELEMENTS`` vector entries, row of them a
    point (at least one point), and is freed before the next is built.  A
    batch that raises makes the whole grid raise.
    """
    re, im = np.empty((2, len(_TX_ENTRIES), size))
    step = max(1, BATCH_ELEMENTS // row)
    for start in range(0, size, step):
        at = slice(start, start + step)
        for k, (entry_re, entry_im) in enumerate(gram(at)):
            re[k, at], im[k, at] = entry_re, entry_im
    return tuple(zip(re, im))


def _with_arrays(grid: GeometryGrid) -> GeometryGrid:
    """The grid with r and theta as arrays, so that every point is one row."""
    return replace(grid, r=np.broadcast_to(grid.r, grid.size),
                   theta=np.broadcast_to(grid.theta, grid.size))


def _targets_at(grid: GeometryGrid, at: slice) -> tuple:
    """r, sin(theta) and cos(theta) of the grid's scenes at a slice, as columns (``_targets``)."""
    theta = grid.theta[at]
    return grid.r[at, None], sin(theta)[:, None], cos(theta)[:, None]


def _scenes_at(grid: GeometryGrid, at: slice) -> GeometryGrid:
    """The grid's scenes at a slice of its points."""
    fields = (grid.r, grid.theta, grid.big_r, grid.vartheta)
    cut = [f[at] if isinstance(f, np.ndarray) else f for f in fields]
    return GeometryGrid(*cut, len(cut[0]))


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
        tx = np.conj(tx_bundles(layout, [g], model)[0].value)
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
