from __future__ import annotations

import random

import pytest

import pfrobenius as pf
from pfrobenius.gluing import GluingVerdict

GRLEX = pf.OrderSpec("grlex")


def test_spec_validation():
    with pytest.raises(pf.ValidationError):
        pf.GluingSpec(1, (7,))
    with pytest.raises(pf.ValidationError):
        pf.GluingSpec(2, (0,))
    with pytest.raises(pf.ValidationError):
        pf.GluingSpec(2, (4,))  # gcd(d, gamma) != 1


def test_validate_gluing():
    S = pf.numerical(3, 4)
    with pytest.raises(pf.ValidationError):
        pf.validate_gluing(S, pf.GluingSpec(2, (3,)))  # a minimal generator
    with pytest.raises(pf.ValidationError):
        pf.validate_gluing(S, pf.GluingSpec(2, (5,)))  # not in S
    pf.validate_gluing(S, pf.GluingSpec(2, (7,)))


def test_public_functions_validate():
    # validate_gluing caches successes only: a bad gamma fails every time
    S = pf.numerical(3, 4)
    bad = pf.GluingSpec(2, (5,))
    for _ in range(2):
        with pytest.raises(pf.ValidationError):
            pf.glue(S, bad)
        with pytest.raises(pf.ValidationError):
            pf.fp_glued_bound(S, 1, bad, GRLEX)
        with pytest.raises(pf.ValidationError):
            pf.gluing_equality(S, 1, bad, GRLEX)


def test_glue_34():
    S = pf.numerical(3, 4)
    glued = pf.glue(S, pf.GluingSpec(2, (15,)))
    assert glued.generators == ((6,), (8,), (15,))


def test_glued_list_always_minimal():
    # valid gluing data always yields a minimal generator list
    rng = random.Random(47)
    from math import gcd

    built = 0
    while built < 10:
        a, b = rng.randint(2, 9), rng.randint(2, 9)
        if gcd(a, b) != 1:
            continue
        S = pf.numerical(a, b)
        gamma = a * rng.randint(1, 3) + b * rng.randint(1, 3)
        d = rng.choice([2, 3, 5])
        if gcd(d, gamma) != 1 or (gamma,) in S.generators:
            continue
        glued = pf.glue(S, pf.GluingSpec(d, (gamma,)))
        assert (
            pf.minimalize_generators(glued.generators, 1).generators
            == glued.generators
        )
        built += 1


def test_bound_34_gamma15():
    S = pf.numerical(3, 4)
    spec = pf.GluingSpec(2, (15,))
    pf.fp_general.cache_clear()
    assert pf.fp_glued_bound(S, 1, spec, GRLEX) == (49,)
    assert pf.gluing_equality(S, 1, spec, GRLEX) is GluingVerdict.EQUAL
    # the bound and the verdict share one solve of F_1(S)
    assert pf.fp_general.cache_info().misses == 1
    glued = pf.glue(S, spec)
    assert pf.fp_general(glued, 1, GRLEX) == pf.FrobeniusResult.finite((49,))


def test_bound_34_gamma7():
    S = pf.numerical(3, 4)
    spec = pf.GluingSpec(2, (7,))
    assert pf.fp_glued_bound(S, 1, spec, GRLEX) == (41,)
    assert pf.gluing_equality(S, 1, spec, GRLEX) is GluingVerdict.STRICTLY_LESS
    glued = pf.glue(S, spec)
    f1 = pf.fp_general(glued, 1, GRLEX).point
    assert pf.compare_graded(GRLEX, f1, (41,)) == -1


def test_frobenius_number_formula():
    # p = 0 bound is exact for numerical gluings
    S = pf.numerical(3, 4)
    spec = pf.GluingSpec(2, (7,))
    bound = pf.fp_glued_bound(S, 0, spec, GRLEX)
    assert bound == (17,)
    assert pf.f0_numerical(pf.glue(S, spec)) == pf.FrobeniusResult.finite((17,))


def test_equality_precondition():
    # F_2(<3,4>) = (14,)? whenever #Z != p, the criterion must decline
    S = pf.numerical(3, 4)
    f2 = pf.fp_general(S, 2, GRLEX).point
    if len(pf.factorizations(S, f2)) != 2:
        assert (
            pf.gluing_equality(S, 2, pf.GluingSpec(2, (7,)), GRLEX)
            is GluingVerdict.PRECONDITION_FAILED
        )


def test_equality_requires_positive_p():
    with pytest.raises(pf.ValidationError):
        pf.gluing_equality(pf.numerical(3, 4), 0, pf.GluingSpec(2, (7,)))


def test_gamma_coefficient_shift():
    # factorizations of n + gamma in the glued semigroup with gamma-coefficient
    # t + 1 correspond to those of n with gamma-coefficient t
    S = pf.numerical(3, 4)
    spec = pf.GluingSpec(2, (7,))
    glued = pf.glue(S, spec)
    rng = random.Random(41)
    for _ in range(10):
        n = (rng.randint(0, 60),)
        zn = pf.factorizations(glued, n)
        zshift = pf.factorizations(
            glued, tuple(a + g for a, g in zip(n, spec.gamma))
        )
        bumped = {z[:-1] + (z[-1] + 1,) for z in zn}
        assert bumped <= zshift
        assert bumped == {z for z in zshift if z[-1] >= 1}


def test_bound_soundness_random():
    # oracle F_p of the gluing never exceeds the bound
    rng = random.Random(43)
    checked = 0
    while checked < 6:
        a, b = rng.randint(2, 9), rng.randint(2, 9)
        from math import gcd

        if gcd(a, b) != 1:
            continue
        S = pf.numerical(a, b)
        gamma = a * rng.randint(1, 2) + b * rng.randint(1, 2)
        d = rng.choice([2, 3, 5])
        if gcd(d, gamma) != 1 or (gamma,) in S.generators:
            continue
        spec = pf.GluingSpec(d, (gamma,))
        try:
            glued = pf.glue(S, spec)
        except pf.ValidationError:
            continue
        for p in (1, 2):
            bound = pf.fp_glued_bound(S, p, spec, GRLEX)
            actual = pf.oracle_fp(glued, p, GRLEX).result.point
            assert pf.compare_graded(GRLEX, actual, bound) <= 0
        checked += 1


def test_factorization_lift():
    # a factorization lam of F_p(S) lifts to (lam, d-1) at the bound degree
    S = pf.numerical(3, 4)
    spec = pf.GluingSpec(2, (15,))
    glued = pf.glue(S, spec)
    f1 = pf.fp_general(S, 1, GRLEX).point
    bound = pf.fp_glued_bound(S, 1, spec, GRLEX)
    for lam in pf.factorizations(S, f1):
        lifted = lam + (spec.d - 1,)
        assert lifted in pf.factorizations(glued, bound)
