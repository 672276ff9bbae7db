"""Explicit families of totally real cubic orders with certified unit pairs,
their lattice shapes, and escape of mass along the diagonal flow.

The package builds one- and two-unit parametric families of monic integer
cubics, proves fundamentality of the constructed unit pairs via a regulator
ratio criterion, reduces unit-lattice shapes to the modular surface, scans
escape of mass over hexagonal fundamental domains, and iterates the maps
that generate the ratio set of mutually-cubic-root pairs. Everything
user-facing is exact or carries explicit error bounds.
"""

from .cubics import (
    MonicCubic,
    discriminant,
    eval_scaled,
    is_irreducible,
    is_totally_real,
    isolating_intervals,
    norm_linear_form,
    poly_from_json,
    poly_to_json,
    scale_root,
)
from .errors import (
    CubicUnitsError,
    DependentUnitsError,
    DomainError,
    InternalInconsistencyError,
    InvalidParamsError,
    OrbitCapError,
    OutOfRegimeError,
    PrecisionExhaustedError,
)
from .families import (
    OneUnitParams,
    TwoUnitParams,
    build_one_unit,
    build_two_unit,
    extend_seed,
    family_from_json,
    is_admissible_one_unit,
    is_admissible_two_unit,
    is_mutually_cubic_pair,
    recipe_pairs,
    simplest_cubic,
)
from .masses import (
    HexDomain,
    LatticeBasis3,
    SimplexSet,
    check_tight,
    embed_order_lattice,
    hex_domain,
    hexagon_grid,
    lattice_height,
    make_simplex,
    mass_above_height,
    shortest_vector_norm,
)
from .precision import DEFAULT_POLICY, PrecisionPolicy
from .ratios import (
    INFINITY,
    McrPair,
    ProjectiveRatio,
    RatioEstimate,
    mobius_R,
    mobius_T,
    orbit,
    orbit_csv_rows,
    ratio_estimate,
    tilde_D,
    tilde_T,
)
from .roots import IsolatedRoot, refine_root, refined_roots
from .shapes import (
    ShapePoint,
    corner,
    corner_distance,
    curve_gamma,
    curve_point,
    cusick_angle_cos,
    limit_shape_z,
    omega,
    reduce_fundamental,
    same_shape,
    shape_from_units,
)
from .units import (
    CubicOrderData,
    LogVector,
    RegulatorReport,
    build_order,
    certify_fundamental,
    log_embed,
    relative_regulator_with_error,
    report_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # cubics
    "MonicCubic", "discriminant", "eval_scaled",
    "is_irreducible", "is_totally_real", "isolating_intervals",
    "norm_linear_form", "poly_from_json", "poly_to_json", "scale_root",
    # errors
    "CubicUnitsError", "DependentUnitsError", "DomainError",
    "InternalInconsistencyError", "InvalidParamsError", "OrbitCapError",
    "OutOfRegimeError", "PrecisionExhaustedError",
    # families
    "OneUnitParams", "TwoUnitParams", "build_one_unit", "build_two_unit",
    "extend_seed", "family_from_json", "is_admissible_one_unit",
    "is_admissible_two_unit", "is_mutually_cubic_pair", "recipe_pairs",
    "simplest_cubic",
    # masses
    "HexDomain", "LatticeBasis3", "SimplexSet", "check_tight",
    "embed_order_lattice", "hex_domain", "hexagon_grid",
    "lattice_height", "make_simplex", "mass_above_height",
    "shortest_vector_norm",
    # precision
    "DEFAULT_POLICY", "PrecisionPolicy",
    # ratios
    "INFINITY", "McrPair", "ProjectiveRatio", "RatioEstimate", "mobius_R",
    "mobius_T", "orbit", "orbit_csv_rows", "ratio_estimate", "tilde_D",
    "tilde_T",
    # roots
    "IsolatedRoot", "refine_root", "refined_roots",
    # shapes
    "ShapePoint", "corner", "corner_distance", "curve_gamma", "curve_point",
    "cusick_angle_cos", "limit_shape_z", "omega", "reduce_fundamental",
    "same_shape", "shape_from_units",
    # units
    "CubicOrderData", "LogVector", "RegulatorReport", "build_order",
    "certify_fundamental", "log_embed",
    "relative_regulator_with_error", "report_to_json",
]
