"""Angle/range estimation bounds for widely-spaced multi-subarray antennas.

Near-field Cramér-Rao bounds for a bi-static setup: a transmitter built from
K widely spaced subarrays of M elements senses a target at range r and angle
theta, with a receive line array a distance R away.  Two independent routes
produce every bound: exact steering-vector inner products (fisher_core) and
sum-formula assembly with optional midpoint-Riemann closed forms
(closed_form + crb_analytic).  The CLI (experiment_cli) sweeps scenarios to
CSV and self-validates against finite-difference oracles.
"""

from .array_layouts import (
    ArrayLayout,
    aperture,
    d0_from_exponent,
    element_positions,
    make_dua,
    make_ua,
    make_wsms,
    subarray_centers,
)
from .closed_form import (
    RiemannBounds,
    SumFormulas,
    hspw_sums_closed,
    hspw_sums_direct,
    hspw_theta0_sums,
    riemann_bounds,
    sw_sums_direct,
    sw_sums_riemann,
    sw_theta0_sums,
)
from .crb_analytic import (
    ChiFactors,
    LayoutComparison,
    RatioCheck,
    Theta0Asymptotes,
    chi_factors,
    compare_wsms_ua,
    hspw_crb_asymptotes,
    hspw_crb_closed,
    hspw_crb_theta0,
    hspw_fisher_from_sums,
    ratio_check,
    sums_fisher,
    sw_crb_closed,
    sw_crb_theta0,
    sw_fisher_from_sums,
)
from .errors import (
    CrbEngineError,
    DegenerateGeometry,
    DomainError,
    ElementCoincidence,
    IllConditioned,
    InvalidLayout,
    SingularFisher,
    SingularityNearPi2,
    SpanSingularity,
    error_code,
)
from .fisher_core import (
    AmfSet,
    CrbResult,
    NormalizedFisher,
    OracleResult,
    SteeringBundle,
    amfs,
    bundle_crb,
    bundle_fisher,
    composite_bundle,
    crb,
    crb_theta_only,
    full_fisher_oracle,
    hspw_tx_bundle,
    normalized_fisher,
    pw_tx_bundle,
    received_gain_sq,
    rx_bundle,
    sw_tx_bundle,
)
from .geometry import (
    AngularSpans,
    SceneGeometry,
    angular_spans,
    aoa_from_geometry,
    dsinphi_dr,
    dsinphi_dtheta,
    psi_from_x,
    rx_range,
)

__version__ = "0.1.0"
