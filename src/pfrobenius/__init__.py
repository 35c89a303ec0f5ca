"""Exact computation of p-Frobenius vectors of affine semigroups."""

from .core import (
    INFINITE,
    FrobeniusResult,
    OrderSpec,
    OverflowGuardError,
    Semigroup,
    UnsupportedError,
    ValidationError,
    compare_graded,
    load_semigroup,
    minimalize_generators,
    numerical,
    s_degree,
    semigroup_from_json,
    semigroup_to_json,
)
from .cone import extremal_ray_directions, is_fp_finite, primitive_direction
from .factorization import contains, count_capped, factorizations
from .groebner import (
    Binomial,
    buchberger_reduced,
    normal_form,
    reduced_basis,
    toric_ideal_generators,
)
from .frobenius import (
    candidate_degrees,
    f0_numerical,
    fp_general,
    indispensable_binomials,
    lambda_bounds,
    nabla_components,
    verify_minimal_ideal_basis,
)
from .gluing import (
    GluingSpec,
    GluingVerdict,
    fp_glued_bound,
    glue,
    gluing_equality,
    validate_gluing,
)
from .oracle import OracleBudgetError, OracleReport, oracle_count, oracle_fp

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
