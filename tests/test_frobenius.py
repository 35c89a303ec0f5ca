from __future__ import annotations

import itertools
import random
import time
from math import gcd
from operator import le

import pytest

import pfrobenius as pf
from pfrobenius.frobenius import _degree_ranks
from pfrobenius.groebner import Binomial, GroebnerBasis
from pfrobenius.oracle import _direct_lambda
from conftest import f0_certified, random_finite_semigroup, random_semigroup

GRLEX = pf.OrderSpec("grlex")
GREVLEX = pf.OrderSpec("grevlex")
Q3 = ((4, 0, 0), (7, 0, 0), (0, 7, 0), (0, 4, 0), (0, 0, 5), (0, 0, 7), (4, 1, 1))
NAMED_H6 = ((5, 0), (7, 0), (0, 4), (0, 9), (2, 3), (3, 1))
BOX_SCAN = (
    ((3, 0), (4, 0), (0, 5), (0, 6), (1, 1)),
    ((2, 0), (3, 0), (0, 2), (0, 3), (1, 2)),
    ((2, 0), (3, 0), (0, 2), (0, 3), (2, 1)),
)


@pytest.fixture(scope="module")
def example_G(example_S):
    return pf.reduced_basis(example_S, GRLEX)


def test_lambda_bounds_23():
    S = pf.numerical(2, 3)
    lam = pf.lambda_bounds(S, pf.reduced_basis(S, GRLEX))
    assert lam == (3, 2)


def test_lambda_bounds_345():
    S = pf.numerical(3, 4, 5)
    lam = pf.lambda_bounds(S, pf.reduced_basis(S, GRLEX))
    assert lam == (3, 2, 2)


def test_lambda_bounds_defining_property(example_S, example_G):
    # bounds[k] * a_k factors over the other generators, and minimally so
    lam = pf.lambda_bounds(example_S, example_G)
    for k, (bound, a) in enumerate(zip(lam, example_S.generators)):
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
                assert lam == _direct_lambda(S), (S, order)


def test_lambda_bounds_requires_finite():
    S = pf.minimalize_generators([(0, 1), (1, 1), (2, 0), (3, 0)])
    with pytest.raises(pf.ValidationError):
        pf.lambda_bounds(S, pf.reduced_basis(S, GRLEX))
    # the basis has a pure power of every variable iff the cone gate passes
    rng = random.Random(11)
    finite = 0
    for i in range(120):
        S = random_semigroup(rng, i % 3 + 1, coord_max=6)
        gate = pf.is_fp_finite(S)
        finite += gate
        for order in (GRLEX, GREVLEX):
            try:
                pf.lambda_bounds(S, pf.reduced_basis(S, order))
            except pf.ValidationError:
                assert not gate, (S, order)
            else:
                assert gate, (S, order)
    assert 0 < finite < 120


def test_candidate_degrees_23():
    D = pf.candidate_degrees(pf.numerical(2, 3), (3, 2), 1)
    assert sorted(d[0] for d in D) == [0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12]


def test_candidate_degrees_contains_origin():
    D = pf.candidate_degrees(pf.numerical(2, 3), (1, 1), 1)
    assert (0,) in D


def test_candidate_degrees_example_cardinality(example_S, example_G):
    lam = pf.lambda_bounds(example_S, example_G)
    assert len(pf.candidate_degrees(example_S, lam, 1)) == 1835


def test_candidate_degrees_overflow_guard():
    S = pf.Semigroup(1, ((2**62,), (2**62 + 1,)))
    with pytest.raises(pf.OverflowGuardError):
        pf.candidate_degrees(S, (1, 1), 1)


def test_fp_general_box_corner_overflow_guard(example_S):
    # every lambda_i is >= 2, so the corner p * lambda leaves the 64-bit
    # range at p = 2^62 and must be refused before the box is grown
    pf.fp_general.cache_clear()
    with pytest.raises(pf.OverflowGuardError):
        pf.fp_general(example_S, 2**62)


def test_fp_general_box_degree_overflow_guard():
    # the box corner p * lambda fits, but its S-degree leaves the 64-bit range
    c = 2**61
    S = pf.Semigroup(2, ((2 * c, 0), (3 * c, 0), (0, 2 * c), (0, 3 * c), (c, c)))
    for order in (GRLEX, GREVLEX):
        with pytest.raises(pf.OverflowGuardError):
            pf.fp_general(S, 1, order)


def test_fp_general_23():
    S = pf.numerical(2, 3)
    assert pf.fp_general(S, 1) == pf.FrobeniusResult.finite((7,))
    assert pf.fp_general(S, 2) == pf.FrobeniusResult.finite((13,))


def test_fp_general_toric_wall():
    # q = 2, h = 6: its toric ideal ran for more than 7 minutes by elimination
    W = pf.Semigroup(2, ((5, 0), (7, 0), (0, 4), (0, 9), (2, 3), (3, 1)))
    expected = pf.FrobeniusResult.finite((4, 65))
    assert pf.fp_general(W, 1, GRLEX) == pf.oracle_fp(W, 1, GRLEX).result == expected


@pytest.mark.parametrize(
    "gens, expected, size",
    [
        (((7, 0), (9, 0), (0, 8), (0, 11), (2, 5), (5, 3), (4, 7), (6, 1)), (5, 160), 49),
        (((5, 0), (11, 0), (0, 11), (0, 8), (1, 3), (3, 2), (6, 5), (2, 5), (2, 7)), (1, 160), 66),
    ],
)
def test_fp_general_former_toric_walls(gens, expected, size):
    # h = 8 and h = 9: their toric ideals took 10 s and 5 s when every
    # variable was saturated from an unreduced kernel basis
    S = pf.Semigroup(2, gens)
    assert len(pf.toric_ideal_generators(S)) == size
    assert pf.fp_general(S, 1, GRLEX) == pf.oracle_fp(S, 1, GRLEX).result == pf.FrobeniusResult.finite(expected)


def test_fp_general_example_p3(example_S):
    expected = pf.FrobeniusResult.finite((2, 111))
    assert pf.fp_general(example_S, 3, GRLEX) == expected
    assert pf.oracle_fp(example_S, 3, GRLEX).result == expected


@pytest.mark.parametrize(
    "gens, p, expected",
    [
        (((5, 0), (7, 0), (0, 4), (0, 9), (2, 3), (3, 1)), 3, (4, 137)),
        (((4, 0), (7, 0), (0, 9), (0, 8), (7, 1), (3, 2), (1, 7)), 2, (2, 213)),
    ],
)
def test_fp_general_box_filter_walls(gens, p, expected):
    # pinned values: the box filter that computed them took 26 s and 33 s, and
    # the oracle's closed box is too big to recompute them here
    S = pf.Semigroup(2, gens)
    assert pf.fp_general(S, p, GRLEX) == pf.FrobeniusResult.finite(expected)
    # the factorization DFS, free of the Groebner engine, agrees on #Z(F_p) <= p
    assert 1 <= pf.count_capped(S, expected, p + 1) <= p


def test_fp_general_infinite():
    S = pf.minimalize_generators([(0, 1), (1, 1), (2, 0), (3, 0)])
    assert pf.fp_general(S, 1).is_infinite


def test_fp_general_infinite_random_family():
    # draws failing the cone gate, certified without the Groebner engine: an
    # extremal ray holding a single minimal generator a, all of whose
    # multiples k*a have the one factorization k*e_a
    rng = random.Random(13)
    found = 0
    while found < 20:
        q = 2 + found % 2
        S = random_semigroup(rng, q, coord_max=12 if q == 2 else 5)
        if pf.is_fp_finite(S):
            continue
        found += 1
        for p in (1, 2):
            for order in (GRLEX, GREVLEX):
                assert pf.fp_general(S, p, order) == pf.INFINITE, (S, p, order)
        directions = [pf.primitive_direction(a) for a in S.generators]
        rays = pf.extremal_ray_directions(S)
        lonely = [
            a
            for a, d in zip(S.generators, directions)
            if directions.count(d) == 1 and d in rays
        ]
        assert lonely, S
        a = lonely[0]
        k = 40 // max(a) + 1
        assert pf.oracle_count(S, tuple(k * c for c in a)) == 1, S


def test_one_basis_for_both_orders(monkeypatch, example_S):
    # grlex and grevlex count on the toric engine's own reduced basis:
    # Buchberger runs once per saturation step, and nothing is re-based; the
    # running example's ideal, seeded with circuits, needs the one step by
    # x_4
    calls = {"_buchberger": 0, "reduced_basis": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(pf.groebner, "_buchberger", counted("_buchberger", pf.groebner._buchberger))
    reduced = counted("reduced_basis", pf.groebner.reduced_basis)
    monkeypatch.setattr(pf.groebner, "reduced_basis", reduced)
    monkeypatch.setattr(pf.frobenius, "reduced_basis", reduced, raising=False)
    S = example_S
    pf.toric_ideal_generators.cache_clear()
    pf.reduced_basis.cache_clear()
    pf.fp_general.cache_clear()
    for order in (GRLEX, GREVLEX):
        assert pf.fp_general(S, 2, order) == pf.oracle_fp(S, 2, order).result
    assert calls == {"_buchberger": 1, "reduced_basis": 0}


def test_fp_general_p0():
    assert pf.fp_general(pf.numerical(2, 3), 0) == pf.FrobeniusResult.finite((1,))
    with pytest.raises(pf.UnsupportedError):
        pf.fp_general(pf.Semigroup(2, ((1, 0), (0, 1))), 0)


def test_f1_23_all_routes():
    S = pf.numerical(2, 3)
    seven = pf.FrobeniusResult.finite((7,))
    assert pf.fp_general(S, 1) == seven
    assert pf.fp_general(S, 1, GREVLEX) == seven


def test_f1_infinite_gate():
    S = pf.minimalize_generators([(0, 1), (1, 1), (2, 0), (3, 0)])
    assert pf.fp_general(S, 1).is_infinite
    assert pf.fp_general(S, 2).is_infinite


def test_staircase_23():
    # the basis monomials Omega, and the elements with one factorization are
    # the degrees of their staircase complement, the F_1 candidates
    S = pf.numerical(2, 3)
    G = pf.reduced_basis(S, GRLEX)
    assert {m for b in G.elements for m in (b.lead, b.trail)} == {(3, 0), (0, 2)}
    assert {n for n in range(14) if pf.count_capped(S, (n,), 2) == 1} == {0, 2, 3, 4, 5, 7}
    assert pf.fp_general(S, 1) == pf.FrobeniusResult.finite((7,))


def pairwise_components(Z):
    """The components of the complex by a union-find over every pair of
    factorizations, joined when their supports intersect."""
    Z = sorted(Z)
    parent = list(range(len(Z)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(Z)):
        for j in range(i + 1, len(Z)):
            if any(a > 0 and b > 0 for a, b in zip(Z[i], Z[j])):
                parent[find(i)] = find(j)
    comps = {}
    for i, lam in enumerate(Z):
        comps.setdefault(find(i), set()).add(lam)
    return [frozenset(c) for c in comps.values()]


def test_components_match_pairwise():
    # the one pass over shared generators gives the pairwise partition: every
    # degree of the toric basis (many with several components) and random
    # elements, on seeded draws with q = 1-3
    rng = random.Random(5)
    degrees = several = 0
    for trial in range(360):
        S = random_semigroup(rng, trial % 3 + 1, h_max=6, coord_max=6)
        ms = {pf.s_degree(S, b.lead) for b in pf.toric_ideal_generators(S)}
        ms |= {pf.s_degree(S, tuple(rng.randint(0, 3) for _ in range(S.h))) for _ in range(5)}
        for m in ms:
            Z = pf.factorizations(S, m)
            want = pairwise_components(Z)
            assert sorted(map(sorted, pf.frobenius._components(Z))) == sorted(map(sorted, want)), (S, m)
            degrees += 1
            several += len(want) > 1
    assert degrees >= 2000 and several >= 500, (degrees, several)


def test_nabla_one_pass(example_S):
    # 1 819 factorizations in one component: the pairwise union-find took
    # about 1.7 s here, the one pass over shared generators about 0.02 s
    pf.toric_ideal_generators(example_S)
    t0 = time.perf_counter()
    comps = pf.nabla_components(example_S, (120, 120))
    assert time.perf_counter() - t0 < 0.5
    assert len(comps) == 1 and len(comps[0]) == 1819


def test_nabla_components():
    S = pf.numerical(2, 3)
    comps = pf.nabla_components(S, (6,))
    assert sorted(map(sorted, comps)) == [[(0, 2)], [(3, 0)]]
    comps12 = pf.nabla_components(S, (12,))
    assert len(comps12) == 1 and len(comps12[0]) == 3


def test_nabla_singleton(example_S):
    comps = pf.nabla_components(example_S, (21, 4))
    assert comps == [frozenset({(3, 2, 0, 0, 4)})]


def test_nabla_walks_fibers():
    # the degree (2790, 837, 3348) has 21 factorizations in two components:
    # a search for all of them ran past 20 s, one search with cap 1 and the
    # fiber walk over the toric basis take about 0.1 s
    S = pf.Semigroup(3, ((6, 11, 6), (6, 1, 9), (10, 3, 12), (10, 4, 5), (1, 4, 5)))
    pf.toric_ideal_generators(S)
    t0 = time.perf_counter()
    comps = pf.nabla_components(S, (2790, 837, 3348))
    assert time.perf_counter() - t0 < 2.0
    assert sorted(map(len, comps)) == [1, 20]
    assert frozenset({(0, 0, 279, 0, 0)}) in comps
    assert all(pf.s_degree(S, lam) == (2790, 837, 3348) for c in comps for lam in c)


def test_nabla_matches_search(example_S):
    # the fiber walk partitions the same Z_m as the search over
    # multiplicities: every degree of the running example below (12, 12),
    # and random draws with q = 1-3, elements not in S included
    def by_search(S, m):
        return sorted(map(sorted, pairwise_components(pf.factorization.factor_tuples(S.generators, m, None))))

    for m in itertools.product(range(13), repeat=2):
        assert sorted(map(sorted, pf.nabla_components(example_S, m))) == by_search(example_S, m), m
    rng = random.Random(47)
    for trial in range(30):
        q = trial % 3 + 1
        S = random_semigroup(rng, q, h_max=5, coord_max=6)
        for _ in range(5):
            lam = tuple(rng.randint(0, 3) for _ in range(S.h))
            m = tuple(c + rng.randint(0, 1) for c in pf.s_degree(S, lam))
            assert sorted(map(sorted, pf.nabla_components(S, m))) == by_search(S, m), (S, m)


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


def test_verify_minimal_basis_walks_fibers():
    # the degree (2790, 837, 3348) of the second basis element has 21
    # factorizations: the search over multiplicities ran past 20 s on it,
    # the fiber walk over the toric basis takes about 0.1 ms.  Two binomials
    # that generate an ideal of height h - q = 2 are a minimal basis
    S = pf.Semigroup(3, ((6, 11, 6), (6, 1, 9), (10, 3, 12), (10, 4, 5), (1, 4, 5)))
    B = pf.toric_ideal_generators(S)
    assert [pf.s_degree(S, b.lead) for b in B] == [(12, 12, 15), (2790, 837, 3348)]
    t0 = time.perf_counter()
    assert pf.verify_minimal_ideal_basis(S, B)
    assert time.perf_counter() - t0 < 2.0
    Z = pf.groebner.fiber(B[1].lead, GroebnerBasis(B))
    assert len(Z) == 21 and all(pf.s_degree(S, lam) == (2790, 837, 3348) for lam in Z)


def minimal_by_components(S, B):
    """Minimality by component tracking, with the complexes from the
    uncapped search: in each degree the binomials number one fewer than the
    components of the complex, each joins two components, and together they
    touch all of them; then B must generate."""
    by_degree = {}
    for b in B:
        by_degree.setdefault(pf.s_degree(S, b.lead), []).append(b)
    for m, bm in by_degree.items():
        comps = pairwise_components(pf.factorization.factor_tuples(S.generators, m, None))
        if len(comps) < 2 or len(bm) != len(comps) - 1:
            return False
        comp_of = {lam: i for i, c in enumerate(comps) for lam in c}
        touched = set()
        for b in bm:
            ci, cj = comp_of.get(b.lead), comp_of.get(b.trail)
            if ci is None or cj is None or ci == cj:
                return False
            touched.update((ci, cj))
        if touched != set(range(len(comps))):
            return False
    GB = pf.buchberger_reduced(list(B), GRLEX)
    return all(pf.groebner.in_ideal(t, GB) for t in pf.toric_ideal_generators(S))


def binomial_sets(rng, S):
    """Candidate bases of the semigroup ideal: the toric and grlex bases, a
    greedy minimal subset, random subsets, a duplicate, a scaled copy, a
    binomial inside one component, and a reversed one."""
    T = list(pf.toric_ideal_generators(S))
    R = list(pf.reduced_basis(S, GRLEX).elements)
    minimal = T + R
    rng.shuffle(minimal)
    for b in list(minimal):
        rest = [c for c in minimal if c is not b]
        if rest and pf.groebner.in_ideal(b, pf.buchberger_reduced(rest, GRLEX)):
            minimal = rest
    sets = [T, R, minimal, minimal + [rng.choice(minimal)]]
    sets += [rng.sample(T + R, rng.randint(1, len(T + R))) for _ in range(3)]
    b = rng.choice(minimal)
    i = rng.randrange(S.h)
    e = tuple(int(j == i) for j in range(S.h))
    scaled = Binomial(tuple(map(sum, zip(b.lead, e))), tuple(map(sum, zip(b.trail, e))))
    sets += [minimal + [scaled], [scaled if c is b else c for c in minimal]]
    sets.append([Binomial(c.trail, c.lead) if c is b else c for c in minimal])
    for m in (pf.s_degree(S, b.lead), pf.s_degree(S, scaled.lead)):
        for comp in pairwise_components(pf.factorization.factor_tuples(S.generators, m, None)):
            if len(comp) > 1:
                inside = Binomial(*sorted(comp)[:2])
                sets += [minimal + [inside], [inside if c is b else c for c in minimal]]
                break
    return sets


def test_verify_minimal_basis_matches_component_tracking():
    # counting components per degree and the generation check decide what
    # tracking which components each binomial joins decides, on seeded
    # semigroups with q = 1-3
    rng = random.Random(71)
    verdicts = []
    for trial in range(36):
        S = random_semigroup(rng, trial % 3 + 1, h_max=5, coord_max=5)
        if not pf.toric_ideal_generators(S):
            continue
        for B in binomial_sets(rng, S):
            verdict = pf.verify_minimal_ideal_basis(S, B)
            assert verdict == minimal_by_components(S, B), (S, B)
            verdicts.append(verdict)
    assert len(verdicts) > 250 and 0.2 < sum(verdicts) / len(verdicts) < 0.8


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
        Z = sorted(pf.factorizations(example_S, m))
        assert len(Z) == 2
        assert not any(x > 0 and y > 0 for x, y in zip(*Z))


def test_indispensable_matches_oracle_counts():
    # a basis element is indispensable iff the oracle's grid DP, which shares
    # no code with fiber_size, counts exactly two factorizations of its degree
    rng = random.Random(11)
    kinds = set()
    for i in range(24):
        q = i % 3 + 1
        S = random_semigroup(rng, q, coord_max=6 if q < 3 else 3)
        G = pf.reduced_basis(S, GRLEX)
        expected = []
        for b in G.elements:
            m = pf.s_degree(S, b.lead)
            two = pf.oracle_count(S, m) == 2
            kinds.add(two)
            if two:
                expected.append(b)
        assert pf.indispensable_binomials(S) == expected, S
    assert kinds == {True, False}


def test_two_factorization_element_implies_indispensable():
    # some element with exactly two factorizations exists => indispensables exist
    for S in (pf.numerical(2, 3), pf.numerical(3, 4, 5)):
        found = any(
            pf.count_capped(S, (n,), 3) == 2 for n in range(1, 40)
        )
        assert found
        assert pf.indispensable_binomials(S)


def test_f2_23():
    assert pf.fp_general(pf.numerical(2, 3), 2) == pf.FrobeniusResult.finite((13,))


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
    box = list(itertools.product(*(range(2 * b + 1) for b in lam)))
    for gamma in rng.sample(box, 400):
        m = pf.s_degree(example_S, gamma)
        if pf.count_capped(example_S, m, 3) != 2:
            continue
        Z = sorted(pf.factorizations(example_S, m))
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
    assert pf.f0_numerical(pf.numerical(20, 30, 1001)) == pf.FrobeniusResult.finite((9019,))
    assert f0_certified((20, 30, 1001), 9019)
    with pytest.raises(pf.UnsupportedError):
        pf.f0_numerical(pf.Semigroup(2, ((1, 1),)))


def test_f0_numerical_shared_factor_random():
    # the known failure shape: the two smallest generators share a factor,
    # so their product is no bound on F_0; the generators are coprime overall
    rng = random.Random(23)
    checked = 0
    while checked < 25:
        d = rng.randint(2, 6)
        gens = [d * a for a in rng.sample(range(2, 9), 2)]
        gens += [rng.randint(max(gens) + 1, 80) for _ in range(rng.randint(1, 2))]
        S = pf.numerical(*gens)
        values = sorted(g for (g,) in S.generators)
        if gcd(*values[:2]) == 1 or gcd(*values) != 1:
            continue
        assert f0_certified(values, pf.f0_numerical(S).point[0]), S
        checked += 1


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
    box = list(itertools.product(*(range(b + 1) for b in lam)))
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


def tuple_scan_reference(S: pf.Semigroup, p: int, order: pf.OrderSpec) -> pf.FrobeniusResult:
    """F_p(S) by the scan on tuples: the standard monomials of the toric basis
    grown in prod [0, p*lambda_i) (each child c of g raises a coordinate i at
    or after g's last nonzero one, and only leads with lead_i = c_i can
    divide c but not g), bucketed by total degree, each bucket sorted
    by order.key(s_degree) when the scan reaches it, and each fiber counted
    by tuple reverse rewrites u -> u - trail + lead."""
    G = GroebnerBasis(pf.toric_ideal_generators(S))
    top = tuple(p * b for b in pf.lambda_bounds(S, G))
    leads_at: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for b in G.elements:
        for i, e in enumerate(b.lead):
            leads_at.setdefault((i, e), []).append(b.lead)
    grown = [((0,) * S.h, 0)]
    for g, last in grown:  # the list grows while it is read
        for i in range(last, S.h):
            c = g[:i] + (g[i] + 1,) + g[i + 1 :]
            if c[i] < top[i] and not any(all(map(le, lead, c)) for lead in leads_at.get((i, c[i]), ())):
                grown.append((c, i))
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for g, _ in grown:
        buckets.setdefault(sum(pf.s_degree(S, g)), []).append(g)

    def fiber(u):
        seen, stack = {u}, [u]
        while stack and len(seen) <= p:
            u = stack.pop()
            for b in G.elements:
                if all(map(le, b.trail, u)):
                    v = tuple(x - t + l for x, t, l in zip(u, b.trail, b.lead))
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
        return len(seen)

    for d in sorted(buckets, reverse=True):
        for g in sorted(buckets[d], key=lambda g: order.key(pf.s_degree(S, g)), reverse=True):
            if fiber(g) <= p:
                return pf.FrobeniusResult.finite(pf.s_degree(S, g))
    raise AssertionError("0 always has a fiber of one")


def test_fp_general_matches_tuple_scan_random_family():
    # seed 37: q = 1, 2, 3 in turn, up to 7 generators, both orders, p = 1..3
    # (q = 3 at p <= 2: the tuple scan takes up to 6 s at p = 3)
    rng = random.Random(37)
    for trial in range(12):
        S = random_finite_semigroup(rng, trial % 3 + 1)
        for p in (1, 2, 3) if S.q < 3 else (1, 2):
            for order in (GRLEX, GREVLEX):
                assert pf.fp_general(S, p, order) == tuple_scan_reference(S, p, order), (S, p, order)


@pytest.mark.parametrize("gens, p", [(g, 2) for g in BOX_SCAN] + [(NAMED_H6, 3)])
def test_fp_general_matches_tuple_scan_named(gens, p):
    S = pf.Semigroup(2, gens)
    for order in (GRLEX, GREVLEX):
        assert pf.fp_general(S, p, order) == tuple_scan_reference(S, p, order), order


def test_degree_ranks_order_as_tuple_keys():
    # sum(g_i * K_i) orders g as order.key(s_degree(S, g)), also with
    # S-degree coordinates near 2^62, where the signed digits borrow from
    # each other, and with ties in the total degree
    rng = random.Random(41)
    cmp = lambda a, b: (a > b) - (a < b)
    for trial in range(300):
        q = trial % 3 + 1
        units = [tuple(int(i == j) for j in range(q)) for i in range(q)]
        extra = {tuple(rng.choice([rng.randint(0, 9), 2**60 + rng.randint(0, 9)]) for _ in range(q)) for _ in range(2)}
        S = pf.Semigroup(q, tuple(units) + tuple(e for e in extra - set(units) if any(e)))
        near = lambda: rng.choice([rng.randint(0, 9), 2**62 + rng.randint(-9, 9)])
        g = [near() for _ in range(q)] + [rng.randint(0, 1) for _ in range(S.h - q)]
        i, j = rng.randrange(q), rng.randrange(q)
        moved = list(g)
        moved[i] += 1
        moved[j] -= 1
        swapped = rng.sample(g[:q], q) + g[q:]  # the same total degree
        others = [[near() for _ in range(q)] + g[q:], swapped, moved if moved[j] >= 0 else swapped]
        for order in (GRLEX, GREVLEX):
            ranks = _degree_ranks(S, order)
            key = lambda g: order.key(pf.s_degree(S, g))
            rank = lambda g: sum(c * r for c, r in zip(g, ranks))
            for u in others:
                assert cmp(rank(u), rank(g)) == cmp(key(u), key(g)), (S, order, u, g)


def test_fp_general_q3_p1():
    # the q = 3 semigroup with an interior generator, which no bench workload
    # has; p = 2 ((21, 45, 93), several seconds in the oracle) runs in CI
    S = pf.Semigroup(3, Q3)
    expected = pf.FrobeniusResult.finite((21, 45, 58))
    assert pf.oracle_fp(S, 1, GRLEX).result == expected
    for order in (GRLEX, GREVLEX):
        assert pf.fp_general(S, 1, order) == expected
