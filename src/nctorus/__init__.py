"""Magnetic Bloch waves on a torus at rational flux, the finite
noncommutative-torus matrix algebras they generate, and modular
invariance checks for the associated partition functions."""

from .core import (
    ModularParameter,
    Flux,
    ComplexStructure,
    KahlerMetric,
    SqueezeParams,
    VacuumAngles,
    complex_structure_from_tau,
    metric_from_tau,
    squeeze_from_tau,
    tau_from_squeeze,
    flux_geometry,
    in_fundamental_domain,
    reduce_to_fundamental_domain,
    squeeze_roundtrip_residual,
)
from .errors import (
    TruncationError,
    UnsupportedConventionError,
    DegenerateDeformationError,
    ConventionMismatchError,
)
from .theta import (
    ThetaSpec,
    TruncationPolicy,
    theta,
    theta_dz,
    truncation_bound,
    dedekind_eta,
    character,
    t_transform_residual,
    s_transform_residual,
    orthogonality_residual,
    quasi_periodicity_residual,
)
from .fields import (
    Field,
    Displacement,
    displacement_apply,
    ladder_apply,
    coherent_state,
    gaussian_field,
    lattice_displacement,
    displacement_cocycle_residual,
    sine_bracket_residual,
    dual_commutation_residual,
    plaquette_phase,
)
from .lll import (
    LLLBasis,
    ThetaField,
    build_basis,
    unit_cell_grid,
    boundary_residual,
    elementary_translation,
    eigenphase_table,
    center_eigen_residual,
    gram_rank,
    coefficient_matrix,
    raise_level,
)
from .matrices import (
    CSMatrix,
    WeylWord,
    clock_matrix,
    shift_matrix,
    weyl_element,
    q_commutation_residual,
    weyl_cocycle_residual,
    holonomy_residual,
    dual_matrices,
    sine_structure_residual,
    commutant_dimension,
    weyl_span_dimension,
    bimodule_consistency,
    uq_sl2_generators,
)
from .partition import (
    QuadratureSpec,
    state_norm,
    z_tilde,
    z_tilde_character_route,
    modular_invariance_report,
)

__version__ = "0.1.0"
