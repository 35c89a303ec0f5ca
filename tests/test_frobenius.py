from __future__ import annotations

import random

import pytest

import pfrobenius as pf
from pfrobenius.groebner import Binomial
from pfrobenius.oracle import _direct_lambda
from conftest import f0_certified, random_finite_semigroup

GRLEX = pf.OrderSpec("grlex")
GREVLEX = pf.OrderSpec("grevlex")


@pytest.fixture(scope="module")
def example_G(example_S):
    return pf.reduced_basis(example_S, GRLEX)


def test_lambda_bounds_23():
    S = pf.numerical(2, 3)
    lam = pf.lambda_bounds(S, pf.reduced_basis(S, GRLEX))
    assert lam.bounds == (3, 2)


def test_lambda_bounds_345():
    S = pf.numerical(3, 4, 5)
    lam = pf.lambda_bounds(S, pf.reduced_basis(S, GRLEX))
    assert lam.bounds == (3, 2, 2)


def test_lambda_bounds_defining_property(example_S, example_G):
    # bounds[k] * a_k factors over the other generators, and minimally so
    lam = pf.lambda_bounds(example_S, example_G)
    for k, (bound, a) in enumerate(zip(lam.bounds, example_S.generators)):
        others = pf.Semigroup(
            example_S.q, tuple(g for i, g in enumerate(example_S.generators) if i != k)
        )
        assert pf.contains(others, tuple(bound * c for c in a))
    # the basis pure powers are the oracle's direct multiple search, always
    rng = random.Random(41)
    for q in (1, 2):
        for _ in range(10):
            S = random_finite_semigroup(rng, q)
            for order in (GRLEX, GREVLEX):
                lam = pf.lambda_bounds(S, pf.reduced_basis(S, order))
                assert lam.bounds == _direct_lambda(S), (S, order)


def test_lambda_bounds_requires_finite():
    S = pf.minimalize_generators([(0, 1), (1, 1), (2, 0), (3, 0)])
    with pytest.raises(pf.ValidationError):
        pf.lambda_bounds(S, pf.reduced_basis(S, GRLEX))


def test_candidate_degrees_23():
    D = pf.candidate_degrees(pf.numerical(2, 3), pf.LambdaBounds((3, 2)), 1)
    assert sorted(d[0] for d in D) == [0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12]


def test_candidate_degrees_contains_origin():
    D = pf.candidate_degrees(pf.numerical(2, 3), pf.LambdaBounds((1, 1)), 1)
    assert (0,) in D


def test_candidate_degrees_example_cardinality(example_S, example_G):
    lam = pf.lambda_bounds(example_S, example_G)
    assert len(pf.candidate_degrees(example_S, lam, 1)) == 1835


def test_candidate_degrees_overflow_guard():
    S = pf.Semigroup(1, ((2**62,), (2**62 + 1,)))
    with pytest.raises(pf.OverflowGuardError):
        pf.candidate_degrees(S, pf.LambdaBounds((1, 1)), 1)


def test_fp_general_23():
    S = pf.numerical(2, 3)
    assert pf.fp_general(S, 1) == pf.FrobeniusResult.finite((7,))
    assert pf.fp_general(S, 2) == pf.FrobeniusResult.finite((13,))


def test_fp_general_infinite():
    S = pf.minimalize_generators([(0, 1), (1, 1), (2, 0), (3, 0)])
    assert pf.fp_general(S, 1).is_infinite


def test_fp_general_p0():
    assert pf.fp_general(pf.numerical(2, 3), 0) == pf.FrobeniusResult.finite((1,))
    with pytest.raises(pf.UnsupportedError):
        pf.fp_general(pf.Semigroup(2, ((1, 0), (0, 1))), 0)


def test_f1_routes_agree_example(example_S):
    expected = pf.fp_general(example_S, 1, GRLEX)
    assert pf.f1_normalform(example_S, GRLEX) == expected
    assert pf.f1_staircase(example_S, GRLEX) == expected
    assert not expected.is_infinite


def test_f1_23_all_routes():
    S = pf.numerical(2, 3)
    seven = pf.FrobeniusResult.finite((7,))
    assert pf.f1_normalform(S) == seven
    assert pf.f1_staircase(S) == seven


def test_f1_infinite_gate():
    S = pf.minimalize_generators([(0, 1), (1, 1), (2, 0), (3, 0)])
    assert pf.f1_normalform(S).is_infinite
    assert pf.f1_staircase(S).is_infinite
    assert pf.f2_improved(S).is_infinite


def test_staircase_23():
    S = pf.numerical(2, 3)
    omega, complement, degrees = pf.frobenius.staircase_data(S)
    assert omega == {(3, 0), (0, 2)}
    assert complement == {(a, b) for a in range(3) for b in range(2)}
    assert {d[0] for d in degrees} == {0, 2, 3, 4, 5, 7}


def test_staircase_example_cardinalities(example_S):
    stats = {}
    pf.f1_staircase(example_S, GRLEX, stats)
    assert stats["omega"] == 28
    assert stats["complement_degrees"] == 179


def test_nabla_components():
    S = pf.numerical(2, 3)
    comps = pf.nabla_components(S, (6,))
    assert sorted(map(sorted, comps)) == [[(0, 2)], [(3, 0)]]
    comps12 = pf.nabla_components(S, (12,))
    assert len(comps12) == 1 and len(comps12[0]) == 3


def test_nabla_singleton(example_S):
    comps = pf.nabla_components(example_S, (21, 4))
    assert comps == [frozenset({(3, 2, 0, 0, 4)})]


def test_verify_minimal_basis_23():
    S = pf.numerical(2, 3)
    assert pf.verify_minimal_ideal_basis(S, [Binomial((3, 0), (0, 2))])
    assert not pf.verify_minimal_ideal_basis(
        S, [Binomial((3, 0), (0, 2)), Binomial((6, 0), (0, 4))]
    )


def test_verify_minimal_basis_345():
    S = pf.numerical(3, 4, 5)
    standard = [
        Binomial((1, 0, 1), (0, 2, 0)),  # degree 8
        Binomial((3, 0, 0), (0, 1, 1)),  # degree 9
        Binomial((0, 0, 2), (2, 1, 0)),  # degree 10
    ]
    assert pf.verify_minimal_ideal_basis(S, standard)
    # the 5-element reduced basis is a basis but not a minimal one
    assert not pf.verify_minimal_ideal_basis(
        S, list(pf.reduced_basis(S, GRLEX).elements)
    )


def test_verify_minimal_basis_rejects_inhomogeneous():
    with pytest.raises(pf.ValidationError):
        pf.verify_minimal_ideal_basis(pf.numerical(2, 3), [Binomial((1, 0), (0, 1))])


def test_indispensable_23():
    ind = pf.indispensable_binomials(pf.numerical(2, 3))
    assert {(b.lead, b.trail) for b in ind} == {((3, 0), (0, 2))}


def test_indispensable_345():
    ind = pf.indispensable_binomials(pf.numerical(3, 4, 5))
    degrees = sorted(pf.s_degree(pf.numerical(3, 4, 5), b.lead)[0] for b in ind)
    assert degrees == [8, 9, 10]


def test_indispensable_characterization(example_S):
    # each indispensable degree has exactly two disjoint-support factorizations
    for b in pf.indispensable_binomials(example_S):
        m = pf.s_degree(example_S, b.lead)
        Z = sorted(pf.factorizations(example_S, m).factorizations)
        assert len(Z) == 2
        assert not any(x > 0 and y > 0 for x, y in zip(*Z))


def test_two_factorization_element_implies_indispensable():
    # some element with exactly two factorizations exists => indispensables exist
    for S in (pf.numerical(2, 3), pf.numerical(3, 4, 5)):
        found = any(
            pf.count_capped(S, (n,), 3) == 2 for n in range(1, 40)
        )
        assert found
        assert pf.indispensable_binomials(S)


def test_f2_23():
    assert pf.f2_improved(pf.numerical(2, 3)) == pf.FrobeniusResult.finite((13,))


def test_f2_agrees_with_general(example_S):
    assert pf.f2_improved(example_S, GRLEX) == pf.fp_general(example_S, 2, GRLEX)


def test_f2_indispensable_free_falls_back_to_f1():
    # no indispensable binomials: F_2 = F_1
    S = pf.numerical(6, 10, 15)
    assert pf.indispensable_binomials(S) == []
    expected = pf.FrobeniusResult.finite((59,))
    assert pf.fp_general(S, 2) == pf.fp_general(S, 1) == expected
    assert pf.oracle_fp(S, 2).result == expected


def test_f2_doubled_box_certificate(example_S):
    # every doubled-box element with exactly two factorizations is reachable
    # from an indispensable binomial by a monomial shift
    ind = pf.indispensable_binomials(example_S)
    pairs = [(b.lead, b.trail) for b in ind]
    G = pf.reduced_basis(example_S, GRLEX)
    lam = pf.lambda_bounds(example_S, G)
    import itertools

    rng = random.Random(23)
    box = list(itertools.product(*(range(2 * b + 1) for b in lam.bounds)))
    for gamma in rng.sample(box, 400):
        m = pf.s_degree(example_S, gamma)
        if pf.count_capped(example_S, m, 3) != 2:
            continue
        Z = sorted(pf.factorizations(example_S, m).factorizations)
        ok = False
        for x, y in itertools.permutations(Z, 2):
            for alpha, beta in pairs:
                delta = tuple(a - b for a, b in zip(x, alpha))
                if all(d >= 0 for d in delta) and tuple(
                    d + b for d, b in zip(delta, beta)
                ) == y:
                    ok = True
        assert ok, (gamma, m, Z)


def test_f0_numerical():
    assert pf.f0_numerical(pf.numerical(2, 3)) == pf.FrobeniusResult.finite((1,))
    assert pf.f0_numerical(pf.numerical(3, 4)) == pf.FrobeniusResult.finite((5,))
    assert pf.f0_numerical(pf.numerical(6, 7, 8)) == pf.FrobeniusResult.finite((17,))
    assert pf.f0_numerical(pf.numerical(2, 4)).is_infinite
    # a_1 and a_2 share a factor, so a_1 * a_2 is no upper bound
    assert pf.f0_numerical(pf.numerical(4, 6, 101)) == pf.FrobeniusResult.finite((103,))
    assert f0_certified((4, 6, 101), 103)
    with pytest.raises(pf.UnsupportedError):
        pf.f0_numerical(pf.Semigroup(2, ((1, 1),)))


def test_monotone_in_p():
    rng = random.Random(31)
    for _ in range(5):
        S = random_finite_semigroup(rng, 1)
        f1 = pf.fp_general(S, 1, GRLEX)
        f2 = pf.fp_general(S, 2, GRLEX)
        f3 = pf.fp_general(S, 3, GRLEX)
        assert pf.compare_graded(GRLEX, f1.point, f2.point) <= 0
        assert pf.compare_graded(GRLEX, f2.point, f3.point) <= 0


def test_certificate_above_result(example_S):
    # everything in the candidate box strictly above F_1 has 0 or >= 2 factorizations
    G = pf.reduced_basis(example_S, GRLEX)
    lam = pf.lambda_bounds(example_S, G)
    f1 = pf.fp_general(example_S, 1, GRLEX).point
    for n in pf.candidate_degrees(example_S, lam, 1):
        if pf.compare_graded(GRLEX, n, f1) == 1:
            assert pf.count_capped(example_S, n, 2) != 1


def test_iv_lemma(example_S):
    # box tuple fixed under normal form: multiple factorizations iff some trail divides
    G = pf.reduced_basis(example_S, GRLEX)
    lam = pf.lambda_bounds(example_S, G)
    trails = [b.trail for b in G.elements]
    import itertools

    rng = random.Random(37)
    box = list(itertools.product(*(range(b + 1) for b in lam.bounds)))
    for gamma in rng.sample(box, 500):
        if pf.normal_form(gamma, G) != gamma:
            continue
        m = pf.s_degree(example_S, gamma)
        multiple = pf.count_capped(example_S, m, 2) > 1
        in_trail_ideal = any(
            all(t <= g for t, g in zip(trail, gamma)) for trail in trails
        )
        assert multiple == in_trail_ideal


def test_finiteness_verdict_invariance():
    cases = [
        pf.numerical(2, 3),
        pf.minimalize_generators([(0, 1), (1, 1), (2, 0), (3, 0)]),
        pf.minimalize_generators([(2, 0), (3, 0), (0, 2), (0, 3)]),
    ]
    for S in cases:
        verdicts = {
            pf.fp_general(S, p, order).is_infinite
            for p in (1, 2, 3)
            for order in (GRLEX, GREVLEX)
        }
        assert len(verdicts) == 1
