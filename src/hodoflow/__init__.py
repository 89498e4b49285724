"""Exact 2-D stationary flows of the generalized Maxwell family.

The package builds exact solutions of the stationary continuity equation
whose density is a prescribed function of the flow speed: the hodograph
(Legendre) transformation linearizes the problem in momentum space, where the
radial factor is confluent hypergeometric; the inverse transform returns
phase, velocity, density, and the quantum and classical potentials in
coordinate space.  A verifier subpackage re-derives everything with
independent numerics (finite differences, adaptive quadrature).
"""

from .errors import (
    DegenerateMapError,
    DivergenceError,
    DomainError,
    FoldError,
    HodoflowError,
    NoConvergenceError,
    NodeError,
    ParameterError,
    PoleError,
    RegionError,
    SaturationWarning,
    SeriesOverflowError,
    UnivalenceWarning,
)
from .maxwell import (
    ModelParams,
    RegionTag,
    classify,
    coeff_g,
    coeff_h,
    density_F,
    density_F_speed_integral,
    discriminant,
    normalization_psi_model,
    normalization_sector,
)
from .momentum import (
    AngularFactor,
    CharacteristicKind,
    LaguerreCase,
    RadialKind,
    RadialSolution,
    canonical_kappa,
    characteristic_chi,
    factorized_u,
    hill_coefficient_G,
    hill_substitution_zeta,
    hyperbolic_omega,
    kummer_ab,
    laguerre_enumerate,
    laguerre_enumerate_for_ell,
    nu_roots,
    slope_rho_theta,
    zeta_bar,
)
from .mapping import (
    FieldGrid,
    FieldSample,
    MapPoint,
    MomentumPoint,
    SectorDomain,
    forward_map,
    invert_map,
    map_differential,
    sample_fields,
)
from .potentials import (
    PsiModelParams,
    bohr_sommerfeld,
    circulation_quantum,
    classical_potential,
    hamilton_jacobi_residual,
    potential_zeros,
    psi_classical_potential,
    psi_density,
    psi_model_eval,
    psi_quantum_potential,
    psi_velocity,
    quantum_potential,
    radial_moments,
    schrodinger_residual_at,
    sigma_r_closed_form,
    sigma_r_from_moments,
)
from .specfun import (
    gamma,
    kummer_m,
    kummer_m_deriv,
    laguerre,
    tricomi_psi,
)
from .verify import (
    VerificationReport,
    pde_residual_momentum,
)

__version__ = "0.1.0"
