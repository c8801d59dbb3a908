"""Exactly solvable double-root tangent-polynomial potential family.

Closed-form spectra and eigenfunctions for the Dutt-Khare-Varshni class of
one-dimensional potentials and its general-double-root extension, their
Darboux partner potentials quantized by Heun polynomials, and a numerical
Sturm-Liouville oracle that cross-validates every closed-form claim.

``import drttp`` loads no NumPy: it binds the exception types, the
parameter types :class:`RayIdentifiers` and :class:`TangentPoly` and the
closed-form spectral layer (:func:`spectrum`, :func:`basic_solutions`,
:func:`wl_solve`, :func:`nodeless_census` ...), all plain :mod:`math`.
Every other name, and the submodules ``core``, ``oracle``, ``susy`` and
``wavefunction``, is imported on first access (PEP 562) and then kept as
an attribute of the package, so NumPy loads the first time an array
function such as :func:`solution_eval_x` or :func:`potential_eval_x` is
touched.
"""

from importlib import import_module as _import_module

from . import errors, params, spectral
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
from .params import RayIdentifiers, TangentPoly
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

# the names each array-backed submodule exports, imported on first access
_LAZY = {
    "core": (
        "dkv_inverse",
        "dkv_map",
        "dkv_potential_eval",
        "eta_hat_of_x",
        "map_x_to_z",
        "potential_eval_x",
        "potential_eval_z",
        "schwarzian_eta",
        "schwarzian_eval",
        "tangent_poly_eval",
        "x_of_z",
    ),
    "oracle": (
        "NumericSpectrum",
        "compare_spectra",
        "solve_schrodinger",
        "spectral_symmetric_difference",
    ),
    "susy": (
        "HeunOperator",
        "HeunPolynomial",
        "PartnerSpec",
        "StructureConstants",
        "b2_factor_check",
        "basic_ff_eval",
        "double_partner_spec",
        "double_step_ff_eval",
        "heun_operator",
        "heun_poly_construct",
        "lambe_ward_eval",
        "nodeless_predicate",
        "outer_root_ztt",
        "partner_correction_z",
        "partner_potential_x",
        "single_partner_spec",
        "structure_constants",
    ),
    "wavefunction": (
        "PolyFactor",
        "aeh_eval",
        "count_nodes",
        "eigenfunction_eval_x",
        "hypergeom_poly_eval",
        "poly_factor",
        "solution_eval_x",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted([name for name in globals() if not name.startswith("_")]
                 + list(_LAZY) + list(_HOME))

__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAZY:
        value = _import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
