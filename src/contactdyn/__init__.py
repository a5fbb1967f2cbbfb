"""Dissipative mechanics on contact manifolds: fields, flows, averaged rates.

The package models action-dependent Hamiltonian and Lagrangian systems in
Darboux coordinates (s, q, p), integrates them (fixed-step, adaptive, and
Langevin steppers), and verifies the finite-horizon balance between the
time-averaged rate of an observable and its boundary term — together with
the signed term decompositions that balance splits into for each catalog
system.
"""

__version__ = "0.1.0"

from .core import (
    ABS_TOL,
    REL_TOL,
    DarbouxPoint,
    DimensionMismatchError,
    DomainError,
    NonFiniteError,
    PartialCheck,
    PartialsReport,
    ScalarField,
    TangentVector,
    check_partials,
    compare_derivative,
    contact_vector_field,
)
from .extended import (
    ExtendedPoint,
    ExtendedTangent,
    TimeDependentHamiltonianModel,
    check_partials_extended,
    evolution_field,
    frozen_time,
    lift_autonomous,
)
from .herglotz import (
    LagrangianModel,
    LagrangianPoint,
    LagrangianTangent,
    RCOND_MIN,
    RegularityError,
    check_lagrangian_partials,
    energy_EL,
    lagrangian_field,
    legendre_map,
    regularity_estimate,
)
from .integrate import (
    LangevinEnsembleStats,
    NoiseSpec,
    Trajectory,
    euler_maruyama_langevin,
    integrate_adaptive,
    integrate_fixed,
    langevin_ensemble,
    write_trajectory_csv,
)
from .systems import (
    SYSTEM_NAMES,
    Chart,
    ParameterError,
    ParameterSpec,
    PlanarProjection,
    SystemSpec,
    UnknownSystemError,
    VirialTermBinding,
    catalog_schema,
    conformal_projection_check,
    make_system,
    z_equation_residual,
)
from .virial import (
    GROWTH_FACTOR,
    RESIDUAL_TOL,
    VirialReport,
    ensemble_report,
    growth_verdict,
    parse_report,
    report_text,
    virial_report,
    write_running_averages,
)
