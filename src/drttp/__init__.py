"""Exactly solvable double-root tangent-polynomial potential family.

Closed-form spectra and eigenfunctions for the Dutt-Khare-Varshni class of
one-dimensional potentials and its general-double-root extension, their
Darboux partner potentials quantized by Heun polynomials, and a numerical
Sturm-Liouville oracle that cross-validates every closed-form claim.
"""

from .core import (
    RayIdentifiers,
    TangentPoly,
    dkv_inverse,
    dkv_map,
    dkv_potential_eval,
    eta_hat_of_x,
    map_x_to_z,
    potential_eval_x,
    potential_eval_z,
    schwarzian_eta,
    schwarzian_eval,
    tangent_poly_eval,
    x_of_z,
)
from .errors import (
    AvailabilityError,
    ClassificationError,
    ConvergenceError,
    DegenerateLimitError,
    DomainError,
    DrttpError,
    GaugeError,
    PairRejectedError,
    PoleError,
    TransferAmbiguityError,
)
from .oracle import (
    NumericSpectrum,
    compare_spectra,
    solve_schrodinger,
    spectral_symmetric_difference,
)
from .spectral import (
    AehSolution,
    CubicSpec,
    CubicVariable,
    Kind,
    Region,
    TransferDirection,
    asymptotic_tau,
    basic_solutions,
    bound_state_count,
    classify_region,
    cubic_coeffs,
    expdiff_transfer,
    nodeless_census,
    real_cubic_roots,
    spectrum,
    wl_solve,
)
from .susy import (
    HeunOperator,
    HeunPolynomial,
    PartnerSpec,
    StructureConstants,
    b2_factor_check,
    basic_ff_eval,
    double_partner_spec,
    double_step_ff_eval,
    heun_operator,
    heun_poly_construct,
    lambe_ward_eval,
    nodeless_predicate,
    outer_root_ztt,
    partner_correction_z,
    partner_potential_x,
    single_partner_spec,
    structure_constants,
)
from .wavefunction import (
    PolyFactor,
    aeh_eval,
    count_nodes,
    eigenfunction_eval_x,
    hypergeom_poly_eval,
    poly_factor,
    solution_eval_x,
)

__version__ = "0.1.0"
