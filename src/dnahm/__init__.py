"""Discrete Nahm (Braam-Austin) integrable system.

Evolve matrix chains in discrete time, compute the conserved spectral
surface on P1 x P1, and verify the integrability structure numerically:
isospectrality, the Lax pair, dual transport, the continuum limit,
explicit solutions and boundary conditions.
"""

from .continuum import (
    NahmTrajectory,
    NahmTriple,
    ScalingRow,
    embed,
    embedded_residuals,
    integrate_nahm,
    invariant_drift,
    lax_polynomial_coeffs,
    residual_scaling,
)
from .evolution import (
    BREAKDOWN_TOL,
    StepOutcome,
    StepStatus,
    evolve,
    seed_from_triple,
    step_backward,
    step_forward,
)
from .fixtures import (
    BoundaryRanks,
    TrigParams,
    boundary_rank_check,
    euler_top_triple,
    random_reality_seed,
    random_skew_triple,
    scalar_solution,
    trig_params,
    trig_solution,
)
from .lax import (
    WardSection,
    basis_sections,
    commutator_residual,
    dual_transport_check,
    m_factorization_residual,
    transport_covector,
    ward_minus,
    ward_plus,
)
from .linalg import (
    CMatrix,
    cmatrix,
    dagger,
    hermitian_eig,
    matrix_rank,
    max_abs,
    nullity,
    poly_roots,
    positive_sqrt,
)
from .model import (
    BAChain,
    BAResiduals,
    DNChain,
    DNLink,
    DNSite,
    LinkResiduals,
    apply_gauge,
    ba_residuals,
    dn_residuals,
    from_braam_austin,
    identity_metric,
    max_dn_residual,
    reality_residual,
    to_braam_austin,
)
from .spectral import (
    antidiagonal_clearance,
    bivariate_coeffs,
    char_surface,
    cokernel_nullity,
    curve_samples,
    invariance_drift,
    smoothness_report,
    zeta_slice_roots,
)

__version__ = "0.1.0"
