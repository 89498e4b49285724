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
    coeff_h_bar,
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
    angular_logderiv,
    angular_theta,
    brute_force_orders,
    canonical_kappa,
    characteristic_chi,
    factorized_u,
    frobenius_roots,
    hill_coefficient_G,
    hill_substitution_zeta,
    hyperbolic_omega,
    kummer_ab,
    laguerre_enumerate,
    laguerre_enumerate_for_ell,
    mu_plus,
    nu_roots,
    omega_matched_c1,
    omega_slope,
    radial_kummer,
    radial_value_slope,
    slope_rho_theta,
    zeta_bar,
)
from .mapping import (
    CoordPoint,
    FieldSample,
    MapPoint,
    MomentumPoint,
    SectorDomain,
    forward_map,
    forward_map_radial,
    invert_map,
    invert_map_radial,
    map_differential,
    sample_fields,
    sample_fields_radial,
    script_R,
)
from .potentials import (
    PsiModelParams,
    QPotentialArgs,
    bohr_sommerfeld,
    circulation_quantum,
    classical_potential,
    classical_potential_radial,
    hamilton_jacobi_residual,
    potential_zeros,
    psi_classical_potential,
    psi_density,
    psi_model_eval,
    psi_quantum_potential,
    psi_velocity,
    quantum_potential,
    quantum_potential_radial,
    radial_moments,
    schrodinger_residual,
    schrodinger_residual_at,
    sigma_r_closed_form,
    sigma_r_from_moments,
)
from .specfun import (
    SeriesControl,
    expint_ei,
    gamma,
    kummer_logderiv,
    kummer_m,
    kummer_m_deriv,
    laguerre,
    tricomi_psi,
)
from .verify import (
    VerificationReport,
    adaptive_quad,
    fd_derivative,
    pde_residual_coordinate,
    pde_residual_momentum,
    quad2d_polar,
)

__version__ = "0.1.0"
