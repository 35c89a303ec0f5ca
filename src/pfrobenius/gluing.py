"""Gluing an affine semigroup with N^q: construction, the p-Frobenius upper
bound d*F_p(S) + (d-1)*gamma, and the exact equality criterion."""
from __future__ import annotations

import enum
import functools
from math import gcd

from .core import OrderSpec, Record, Semigroup, ValidationError, _as_int, _as_point, _minimal, checked
from .factorization import contains, count_capped
from .frobenius import fp_general


class GluingVerdict(enum.Enum):
    EQUAL = "equal"
    STRICTLY_LESS = "strictly-less"
    PRECONDITION_FAILED = "precondition-failed"


class GluingSpec(Record):
    __slots__ = ("d", "gamma")

    def __init__(self, d: int, gamma: tuple[int, ...]) -> None:
        _as_point((d,))  # an int, as a coordinate is
        gamma = _as_point(gamma)
        if d < 2:
            raise ValidationError("gluing factor d must be >= 2")
        if all(c == 0 for c in gamma):
            raise ValidationError("gamma must be non-zero")
        g = gcd(*gamma)
        if gcd(d, g) != 1:
            raise ValidationError(f"d = {d} and gcd(gamma) = {g} must be coprime")
        self._set(d, gamma)


@functools.lru_cache(maxsize=256)
def validate_gluing(S: Semigroup, spec: GluingSpec) -> None:
    """Raise ValidationError unless S's list is minimal (see ``glue``) and
    gamma is a non-generator element of S.

    Cached, so the public functions below each validate for a direct caller
    while a command that calls several of them runs the membership search
    once; a failure raises anew on every call.
    """
    if len(spec.gamma) != S.q:
        raise ValidationError("gamma dimension does not match the semigroup")
    # S's constructor checked its generators as points, distinct and nonzero
    if _minimal(S.generators).generators != S.generators:
        raise ValidationError("S's generator list is not minimal, so neither is the glued one")
    if spec.gamma in S.generators:
        raise ValidationError("gamma must not be a minimal generator of S")
    if not contains(S, spec.gamma):
        raise ValidationError(f"gamma = {spec.gamma} is not an element of S")


def glue(S: Semigroup, spec: GluingSpec) -> Semigroup:
    """The semigroup generated by (d*a_1, ..., d*a_h, gamma).

    The defining generator list must itself be minimal; a violation is an
    error rather than a silent re-minimalization, because every statement
    about the glued semigroup presumes that list.  It is minimal iff S's list
    is, so only S's list is checked.  A relation among the a_i scales by d.
    Conversely, with gamma in S, not a generator, and gcd(d, gcd(gamma)) = 1:
    - gamma in d*S would force d | gcd(gamma);
    - d*a_k = sum(c_i*d*a_i, i != k) + c*gamma forces d | c*gcd(gamma), so
      d | c; then a_k = sum(c_i*a_i) + (c/d)*gamma, and gamma = sum(e_i*a_i)
      gives a factorization of a_k over S that is not a_k itself (gamma is
      not a_k), so one over the others.
    """
    validate_gluing(S, spec)
    gens = tuple(
        tuple(checked(spec.d * c) for c in a) for a in S.generators
    ) + (spec.gamma,)
    # points of N^q, nonzero and distinct as S's are, and gamma is not in d*S
    return Semigroup._trusted(S.q, gens)


def _finite_fp(S: Semigroup, p: int, spec: GluingSpec, order: OrderSpec) -> tuple[int, ...]:
    validate_gluing(S, spec)
    fp = fp_general(S, p, order)
    if fp.is_infinite:
        raise ValidationError("F_p(S) is infinite; gluing results need it finite")
    return fp.point


def fp_glued_bound(
    S: Semigroup, p: int, spec: GluingSpec, order: OrderSpec = OrderSpec()
) -> tuple[int, ...]:
    """d*F_p(S) + (d-1)*gamma, an upper bound for F_p of the glued semigroup.

    For p = 0 (q = 1 only) the returned value is exact, the classical
    Frobenius number formula for gluings.
    """
    fp = _finite_fp(S, p, spec, order)
    return tuple(
        checked(spec.d * f + (spec.d - 1) * g) for f, g in zip(fp, spec.gamma)
    )


def gluing_equality(
    S: Semigroup, p: int, spec: GluingSpec, order: OrderSpec = OrderSpec()
) -> GluingVerdict:
    """Does F_p of the gluing attain the bound d*F_p(S) + (d-1)*gamma?

    Applies only when F_p(S) has exactly p factorizations; equality holds
    iff no factorization of gamma is componentwise below a factorization of
    F_p(S), that is iff F_p(S) - gamma is not in S:
    - if b in Z(gamma) lies below c in Z(F_p(S)), c - b factors F_p(S) - gamma;
    - if e factors F_p(S) - gamma, e + b factors F_p(S) for any b in Z(gamma),
      and lies above b.
    """
    _as_int(p, "p", 1)  # the equality criterion needs p >= 1
    fp = _finite_fp(S, p, spec, order)
    if count_capped(S, fp, p + 1) != p:
        return GluingVerdict.PRECONDITION_FAILED
    rest = tuple(f - g for f, g in zip(fp, spec.gamma))
    if min(rest) >= 0 and contains(S, rest):  # a negative coordinate is no element
        return GluingVerdict.STRICTLY_LESS
    return GluingVerdict.EQUAL
