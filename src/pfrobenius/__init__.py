"""Exact computation of p-Frobenius vectors of affine semigroups.

The Groebner engine, ``groebner``, loads on first use (PEP 562): the p-Apery
walk needs none of it, so ``import pfrobenius`` leaves it out.  It and its five re-exports (``_ENGINE``) resolve here when first
looked up.
"""

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

_ENGINE = ("Binomial", "buchberger_reduced", "normal_form", "reduced_basis", "toric_ideal_generators")

__all__ = sorted([name for name in dir() if not name.startswith("_")] + ["groebner", *_ENGINE])


def __getattr__(name: str):
    if name == "groebner" or name in _ENGINE:
        import importlib

        # not ``from . import groebner``, which would call this function again;
        # the engine binds itself and its five re-exports here as it loads
        importlib.import_module(__name__ + ".groebner")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
