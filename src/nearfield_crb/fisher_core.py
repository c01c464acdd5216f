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

The bundle route never builds that length N_t*N_r vector: ``amfs`` takes
each composite inner product factor by factor, as sums of products of
transmit-side and receive-side inner products (the mixed-product rule
<a (x) b, c (x) d> = <a, c><b, d>), at O(N_t + N_r) cost.
``composite_bundle`` builds the explicit vector for the checks that inspect
it, and ``full_fisher_oracle`` alone builds it on a bound's path, since it is
the independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .array_layouts import ArrayLayout, element_positions, subarray_centers
from .errors import (
    DegenerateGeometry,
    DomainError,
    ElementCoincidence,
    IllConditioned,
    InvalidLayout,
    SingularFisher,
)
from .geometry import SceneGeometry, dsinphi_dr, dsinphi_dtheta, rx_range


@dataclass(frozen=True)
class SteeringBundle:
    """A steering vector with its theta- and r-derivatives."""

    value: np.ndarray
    d_theta: np.ndarray
    d_r: np.ndarray
    model: str


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
    fisher: np.ndarray
    covariance: np.ndarray
    alpha_cross: float
    inversion_residual: float


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
    return SteeringBundle(value, d_theta, d_r, "sw")


def pw_tx_bundle(layout: ArrayLayout, geom: SceneGeometry) -> SteeringBundle:
    """Planar-wave transmit steering bundle (no range dependence)."""
    n = element_positions(layout)
    k0 = 2.0 * math.pi / layout.lam
    value = np.exp(1j * k0 * n * math.sin(geom.theta)) / math.sqrt(n.size)
    d_theta = value * (1j * k0 * n * math.cos(geom.theta))
    d_r = np.zeros_like(value)
    return SteeringBundle(value, d_theta, d_r, "pw")


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
    return SteeringBundle(value, d_theta, d_r, "hspw")


def rx_bundle(n_r: int, d_rx: float, lam: float, geom: SceneGeometry) -> SteeringBundle:
    """Receive-side uniform-line bundle pointed by the arrival angle."""
    if not (isinstance(n_r, int) and n_r >= 1):
        raise DomainError(f"receiver size must be an integer >= 1, got {n_r!r}")
    if not (d_rx > 0.0 and lam > 0.0):
        raise DomainError("receiver spacing and wavelength must be positive")
    if n_r == 1:
        # one element has no aperture, so the receiver's placement (tilt,
        # or a target at its centre) never enters the bound
        zero = np.zeros(1, dtype=complex)
        return SteeringBundle(np.ones(1, dtype=complex), zero, zero.copy(), "rx")
    if geom.vartheta != 0.0:
        raise DomainError("receive derivatives are defined for a broadside receiver only")
    rbar = rx_range(geom)
    if rbar == 0.0:
        raise DegenerateGeometry("target coincides with the receiver centre")
    sinphi = geom.r * math.sin(geom.theta) / rbar

    j = np.arange(n_r, dtype=float)
    offsets = (2.0 * j - n_r + 1.0) / 2.0 * d_rx
    k0 = 2.0 * math.pi / lam
    value = np.exp(1j * k0 * offsets * sinphi) / math.sqrt(n_r)
    phase_rate = 1j * k0 * offsets
    d_theta = value * phase_rate * dsinphi_dtheta(geom)
    d_r = value * phase_rate * dsinphi_dr(geom)
    return SteeringBundle(value, d_theta, d_r, "rx")


def composite_bundle(tx: SteeringBundle, rx: SteeringBundle) -> SteeringBundle:
    """Normalized end-to-end vector kron(conj(tx), rx) with derivatives."""
    value = _kron(np.conj(tx.value), rx.value)
    d_theta = _kron(np.conj(tx.d_theta), rx.value) + _kron(np.conj(tx.value), rx.d_theta)
    d_r = _kron(np.conj(tx.d_r), rx.value) + _kron(np.conj(tx.value), rx.d_r)
    return SteeringBundle(value, d_theta, d_r, "composite")


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


# Multiplier for the round-off floors of the Fisher diagonal.  Measured
# residue on exactly-degenerate scenarios (broadside two-subarray hybrid
# layouts, where q22 is zero by symmetry) stays within ~60 eps of the
# pre-cancellation magnitude; the weakest genuine q22 encountered in the
# sweep regimes sits above 1.6e4 eps.  512 splits the two with two orders
# of margin on each side.
NOISE_FLOOR_MULT = 512.0

# A (theta, r) block whose determinant is at or below this is singular.
EPS_DET = 1e-18

# A block is angle/range decoupled when |q12| <= DECOUPLED_REL_TOL * |q11|:
# sum-formula routes give an exact 0.0, inner-product routes leave residue
# around 1e-16 of q11.
DECOUPLED_REL_TOL = 1e-12

# Largest entry of (balanced Fisher) @ (its inverse) - I the oracle accepts.
ORACLE_RESIDUAL_TOL = 1e-6

_EPS = float(np.finfo(float).eps)


def normalized_fisher(a: AmfSet) -> NormalizedFisher:
    """Project out the complex gain: the Schur complement of the gain block."""
    if a.h_sq <= 0.0:
        raise DomainError("zero-norm steering vector")
    q11 = a.htheta_sq - abs(a.htheta_h) ** 2 / a.h_sq
    q22 = a.hr_sq - abs(a.hr_h) ** 2 / a.h_sq
    q12 = a.htheta_hr.real - (a.htheta_h.conjugate() * a.hr_h).real / a.h_sq
    floor_mult = NOISE_FLOOR_MULT * _EPS
    return NormalizedFisher(
        q11=q11,
        q12=q12,
        q22=q22,
        q11_floor=floor_mult * (a.htheta_sq + abs(a.htheta_h) ** 2 / a.h_sq),
        q22_floor=floor_mult * (a.hr_sq + abs(a.hr_h) ** 2 / a.h_sq),
    )


def received_gain_sq(alpha: complex, n_r: int, n_t: int) -> float:
    """Squared magnitude of the aggregate gain beta = alpha sqrt(n_r n_t)."""
    return abs(alpha) ** 2 * n_r * n_t


def crb(nf: NormalizedFisher, beta_sq: float, sigma_n_sq: float) -> CrbResult:
    """Angle and range bounds from the normalized Fisher block.

    The comparisons are written so that a NaN entry fails them: a block
    that overflowed is singular, not a NaN bound.
    """
    if not beta_sq > 0.0:
        raise DomainError(f"beta_sq must be positive, got {beta_sq!r}")
    if not sigma_n_sq > 0.0:
        raise DomainError(f"sigma_n_sq must be positive, got {sigma_n_sq!r}")
    if not nf.q11 > nf.q11_floor:
        raise SingularFisher(
            f"theta information is at the round-off floor (q11 = {nf.q11!r})",
            det=nf.det,
        )
    if not nf.q22 > nf.q22_floor:
        raise SingularFisher(
            f"range information is at the round-off floor (q22 = {nf.q22!r})",
            det=nf.det,
        )
    det = nf.det
    if not det > EPS_DET:
        raise SingularFisher(
            f"(theta, r) Fisher block is singular (det = {det!r})", det=det
        )
    pref = sigma_n_sq / (2.0 * beta_sq)
    return CrbResult(crb_theta=pref * nf.q22 / det, crb_r=pref * nf.q11 / det)


def crb_with_gain(
    nf: NormalizedFisher,
    layout: ArrayLayout,
    n_r: int,
    alpha: complex,
    sigma_n_sq: float,
    beta_sq: float | None,
) -> CrbResult:
    """Bounds at the gain beta_sq, or at the gain alpha gives when it is None."""
    if beta_sq is None:
        beta_sq = received_gain_sq(alpha, n_r, layout.n_elements)
    return crb(nf, beta_sq, sigma_n_sq)


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
    if not beta_sq > 0.0:
        raise DomainError(f"beta_sq must be positive, got {beta_sq!r}")
    if not sigma_n_sq > 0.0:
        raise DomainError(f"sigma_n_sq must be positive, got {sigma_n_sq!r}")
    if not nf.q11 > nf.q11_floor:
        raise SingularFisher(
            f"theta information is at the round-off floor (q11 = {nf.q11!r})",
            det=nf.q11,
        )
    return sigma_n_sq / (2.0 * beta_sq * nf.q11)


_TX_BUNDLES = {"sw": sw_tx_bundle, "hspw": hspw_tx_bundle, "pw": pw_tx_bundle}


def bundle_crb(
    layout: ArrayLayout,
    geom: SceneGeometry,
    n_r: int,
    *,
    model: str = "sw",
    alpha: complex = 1.0 + 0.0j,
    sigma_n_sq: float = 1.0,
    beta_sq: float | None = None,
) -> CrbResult:
    """First-principles bounds via the steering bundles (the exact route)."""
    nf = bundle_fisher(layout, geom, n_r, model=model)
    return crb_with_gain(nf, layout, n_r, alpha, sigma_n_sq, beta_sq)


def bundle_fisher(
    layout: ArrayLayout, geom: SceneGeometry, n_r: int, *, model: str = "sw"
) -> NormalizedFisher:
    """Normalized Fisher block assembled from the steering bundles."""
    if model not in _TX_BUNDLES:
        raise DomainError(f"unknown wave model {model!r}")
    tx = _TX_BUNDLES[model](layout, geom)
    rx = rx_bundle(n_r, layout.d, layout.lam, geom)
    return normalized_fisher(amfs(tx, rx))


def full_fisher_oracle(
    layout: ArrayLayout,
    geom: SceneGeometry,
    n_r: int,
    *,
    model: str = "sw",
    alpha: complex = 1.0 + 0.0j,
    sigma_n_sq: float = 1.0,
    fd_step: float = 1e-6,
    training: str = "implicit",
) -> OracleResult:
    """Independent 4x4 Fisher oracle built from finite differences.

    Rebuilds the composite steering vector from phases alone at displaced
    (theta, r), differentiates numerically, forms the full Fisher matrix over
    (theta, r, Re alpha, Im alpha), and inverts it, verifying the inversion
    residual.  ``training="dft"`` routes the transmit vector through an
    explicit unitary training map first, which must leave the result
    unchanged (ideal-training identity).
    """
    if not 1e-8 <= fd_step <= 1e-4:
        raise DomainError(f"fd_step must lie in [1e-8, 1e-4], got {fd_step!r}")
    if model not in _TX_BUNDLES:
        raise DomainError(f"unknown wave model {model!r}")
    if training not in ("implicit", "dft"):
        raise DomainError(f"unknown training map {training!r}")
    n_t = layout.n_elements
    if training == "dft":
        unitary = np.fft.fft(np.eye(n_t)) / math.sqrt(n_t)
    else:
        unitary = None

    def hvec(theta: float, r: float) -> np.ndarray:
        g = replace(geom, theta=theta, r=r)
        tx = _TX_BUNDLES[model](layout, g).value
        rx = rx_bundle(n_r, layout.d, layout.lam, g).value
        mapped = np.conj(tx) if unitary is None else unitary.T @ np.conj(tx)
        return _kron(mapped, rx)

    d_theta_step = fd_step
    d_r_step = fd_step * geom.r
    h0 = hvec(geom.theta, geom.r)
    h_theta = (hvec(geom.theta + d_theta_step, geom.r) - hvec(geom.theta - d_theta_step, geom.r)) / (
        2.0 * d_theta_step
    )
    h_r = (hvec(geom.theta, geom.r + d_r_step) - hvec(geom.theta, geom.r - d_r_step)) / (
        2.0 * d_r_step
    )

    beta = alpha * math.sqrt(n_r * n_t)
    root_gain = math.sqrt(n_r * n_t)
    jac = np.column_stack(
        [beta * h_theta, beta * h_r, root_gain * h0, 1j * root_gain * h0]
    )
    fisher = (2.0 / sigma_n_sq) * (jac.conj().T @ jac).real
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
    real_jac = math.sqrt(2.0 / sigma_n_sq) * np.vstack([jac.real, jac.imag]) * scale[None, :]
    tri = np.linalg.qr(real_jac, mode="r")
    try:
        tri_inv = np.linalg.inv(tri)
    except np.linalg.LinAlgError as exc:
        raise SingularFisher(f"oracle Fisher matrix is singular: {exc}") from exc
    balanced_inv = tri_inv @ tri_inv.T
    covariance = balanced_inv * scale[:, None] * scale[None, :]
    residual = float(np.max(np.abs(balanced @ balanced_inv - np.eye(4))))
    if residual > ORACLE_RESIDUAL_TOL:
        raise IllConditioned(
            f"oracle inversion residual {residual:.3e} exceeds {ORACLE_RESIDUAL_TOL:.1e}"
        )
    alpha_cross = float(fisher[2, 3] / fisher[2, 2])
    return OracleResult(
        crb_theta=float(covariance[0, 0]),
        crb_r=float(covariance[1, 1]),
        fisher=fisher,
        covariance=covariance,
        alpha_cross=alpha_cross,
        inversion_residual=residual,
    )
