from __future__ import annotations

import random
from math import gcd
from operator import le

import pytest

import pfrobenius as pf
from pfrobenius.factorization import factor_tuples
from pfrobenius.frobenius import _apery_walk
from pfrobenius.gluing import GluingVerdict
from conftest import criterion6_gluings, random_finite_semigroup

GRLEX = pf.OrderSpec("grlex")


def test_spec_validation():
    with pytest.raises(pf.ValidationError):
        pf.GluingSpec(1, (7,))
    with pytest.raises(pf.ValidationError):
        pf.GluingSpec(2, (0,))
    with pytest.raises(pf.ValidationError):
        pf.GluingSpec(2, (4,))  # gcd(d, gamma) != 1
    with pytest.raises(pf.ValidationError):
        pf.GluingSpec(2, (15.7,))
    with pytest.raises(pf.ValidationError):
        pf.GluingSpec(2.5, (15,))


def test_validate_gluing():
    S = pf.numerical(3, 4)
    with pytest.raises(pf.ValidationError):
        pf.validate_gluing(S, pf.GluingSpec(2, (3,)))  # a minimal generator
    with pytest.raises(pf.ValidationError):
        pf.validate_gluing(S, pf.GluingSpec(2, (5,)))  # not in S
    pf.validate_gluing(S, pf.GluingSpec(2, (7,)))
    with pytest.raises(pf.ValidationError, match="dimension"):
        pf.validate_gluing(pf.Semigroup(2, ((2, 0), (3, 0), (0, 2), (0, 3))), pf.GluingSpec(2, (5,)))


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
    # a non-minimal S: every function refuses, where the bound read (33,)
    # and the verdict EQUAL, though the minimal <3, 4> bounds F_1 by 49
    S, spec = pf.Semigroup(1, ((3,), (4,), (7,))), pf.GluingSpec(2, (15,))
    for _ in range(2):
        with pytest.raises(pf.ValidationError, match="not minimal"):
            pf.glue(S, spec)
        with pytest.raises(pf.ValidationError, match="not minimal"):
            pf.fp_glued_bound(S, 1, spec, GRLEX)
        with pytest.raises(pf.ValidationError, match="not minimal"):
            pf.gluing_equality(S, 1, spec, GRLEX)
    assert pf.fp_glued_bound(pf.numerical(3, 4), 1, spec, GRLEX) == (49,)
    # a valid gluing of an S whose F_1 is infinite: the ray of (1, 1) holds no other generator
    S = pf.Semigroup(2, ((2, 0), (3, 0), (0, 2), (1, 1)))
    with pytest.raises(pf.ValidationError, match="infinite"):
        pf.fp_glued_bound(S, 1, pf.GluingSpec(3, (4, 0)))


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
    # glue checks S's list alone; the planar gluings of criterion 6 too
    for S, spec in criterion6_gluings(random.Random(6)):
        T = [tuple(spec.d * c for c in a) for a in S.generators] + [spec.gamma]
        assert pf.glue(S, spec) == pf.minimalize_generators(T)
    # a redundant generator of S (7 = 3 + 4) leaves the glued list redundant
    with pytest.raises(pf.ValidationError):
        pf.glue(pf.Semigroup(1, ((3,), (4,), (7,))), pf.GluingSpec(2, (15,)))


def test_bound_34_gamma15():
    S = pf.numerical(3, 4)
    spec = pf.GluingSpec(2, (15,))
    _apery_walk.cache_clear()
    assert pf.fp_glued_bound(S, 1, spec, GRLEX) == (49,)
    assert pf.gluing_equality(S, 1, spec, GRLEX) is GluingVerdict.EQUAL
    # the bound and the verdict share one solve of F_1(S)
    assert _apery_walk.cache_info().misses == 1
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


# F_2(<6,10,15>) = 59 has one factorization, F_3(<10,12,15>) = 113 has two
PRECONDITION_FAILS = (
    (pf.numerical(6, 10, 15), 2, pf.GluingSpec(7, (16,))),
    (pf.numerical(10, 12, 15), 3, pf.GluingSpec(3, (22,))),
)


def test_equality_precondition():
    # the criterion declines unless F_p(S) has exactly p factorizations
    for (S, p, spec), fp, count in zip(PRECONDITION_FAILS, (59, 113), (1, 2)):
        assert pf.fp_general(S, p, GRLEX).point == (fp,)
        assert len(factor_tuples(S.generators, (fp,), None)) == count
        assert pf.gluing_equality(S, p, spec, GRLEX) is GluingVerdict.PRECONDITION_FAILED


def double_loop_verdict(S, p, spec, order):
    """The criterion as stated: list Z(F_p(S)) and Z(gamma) with the uncapped
    search and compare every pair."""
    z_fp = factor_tuples(S.generators, pf.fp_general(S, p, order).point, None)
    if len(z_fp) != p:
        return GluingVerdict.PRECONDITION_FAILED
    z_gamma = factor_tuples(S.generators, spec.gamma, None)
    if any(all(map(le, b, c)) for b in z_gamma for c in z_fp):
        return GluingVerdict.STRICTLY_LESS
    return GluingVerdict.EQUAL


def test_equality_matches_double_loop():
    # one membership test of F_p(S) - gamma decides what the double loop
    # over Z(gamma) x Z(F_p(S)) decides: seeded gluings with q = 1-3 and
    # p = 1-3 under both orders, and both precondition cases above
    rng = random.Random(67)
    cases = list(PRECONDITION_FAILS)
    while len(cases) < 40:
        q = rng.randint(1, 3)
        S = random_finite_semigroup(rng, q)
        p = rng.randint(1, 3 if q < 3 else 2)
        coeffs = [rng.randint(0, 2) for _ in S.generators]
        gamma = pf.s_degree(S, coeffs)
        d = rng.choice([2, 3, 5])
        if sum(coeffs) < 2 or gcd(d, gcd(*gamma)) != 1 or gamma in S.generators:
            continue
        if pf.fp_general(S, p, GRLEX).is_infinite:
            continue
        cases.append((S, p, pf.GluingSpec(d, gamma)))
    seen = set()
    for S, p, spec in cases:
        for order in (GRLEX, pf.OrderSpec("grevlex")):
            verdict = pf.gluing_equality(S, p, spec, order)
            assert verdict is double_loop_verdict(S, p, spec, order), (S, p, spec, order)
            seen.add(verdict)
    assert seen == set(GluingVerdict)


def test_equality_requires_positive_p():
    # p is checked as an int >= 1, as fp_glued_bound checks it: a string or
    # None raised a raw TypeError from the comparison
    for p in (0, "1", None):
        with pytest.raises(pf.ValidationError):
            pf.gluing_equality(pf.numerical(3, 4), p, pf.GluingSpec(2, (7,)))


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
