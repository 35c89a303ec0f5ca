from __future__ import annotations

import heapq
import itertools
import random
import time
from collections import Counter
from functools import lru_cache
from math import gcd
from operator import le, mul

import pytest

import pfrobenius as pf
from pfrobenius.core import _F0_SCOPE
from pfrobenius.frobenius import _apery_walk, _fp_groebner, _staircase
from pfrobenius.groebner import Binomial
from pfrobenius.oracle import _Budget, _direct_lambda
from conftest import (
    Q3,
    RANK2_Q3,
    f0_certified,
    random_dense_planar_semigroup,
    random_finite_semigroup,
    random_offaxis_semigroup,
    random_rank2_semigroup,
    random_semigroup,
    rays_by_fourier_motzkin,
)

GRLEX = pf.OrderSpec("grlex")
GREVLEX = pf.OrderSpec("grevlex")
NAMED_H6 = ((5, 0), (7, 0), (0, 4), (0, 9), (2, 3), (3, 1))
BOX_SCAN = (
    ((3, 0), (4, 0), (0, 5), (0, 6), (1, 1)),
    ((2, 0), (3, 0), (0, 2), (0, 3), (1, 2)),
    ((2, 0), (3, 0), (0, 2), (0, 3), (2, 1)),
)


def apery(S: pf.Semigroup, p: int, order: pf.OrderSpec = GRLEX) -> pf.FrobeniusResult:
    """The p-Apery walk ``_apery_walk`` on S and the pick of ``order`` among
    its points, as ``fp_general`` runs them past its gate."""
    points = _apery_walk(S, p)
    return pf.FrobeniusResult.finite(max(points, key=order.key)) if points else pf.INFINITE


def scan(S: pf.Semigroup, p: int, order: pf.OrderSpec = GRLEX) -> pf.FrobeniusResult:
    """The reference ``_fp_groebner``, the scan of the toric basis's standard
    monomials, on S with F_p finite, and the pick of ``order`` among its points."""
    return pf.FrobeniusResult.finite(max(_fp_groebner(S, p), key=order.key))


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
                assert lam == _direct_lambda(S, _Budget(None)), (S, order)


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


def test_candidate_degrees_rejects_non_int():
    # p = True was answered as p = 1, and a float p or bound raised a raw TypeError
    S = pf.numerical(3, 5)
    for lam, p in (((5, 3), True), ((5, 3), 1.5), ((2.5, 1), 1), ((5,), 1)):
        with pytest.raises(pf.ValidationError):
            pf.candidate_degrees(S, lam, p)


def test_candidate_degrees_overflow_guard():
    S = pf.Semigroup(1, ((2**62,), (2**62 + 1,)))
    with pytest.raises(pf.OverflowGuardError):
        pf.candidate_degrees(S, (1, 1), 1)


def test_fp_general_box_corner_overflow_guard(example_S):
    # every lambda_i is >= 2, so the corner p * lambda leaves the 64-bit
    # range at p = 2^62 and must be refused before the box is grown
    _apery_walk.cache_clear()
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


def test_one_basis_for_both_orders(monkeypatch):
    # grlex and grevlex count on the toric engine's own reduced basis:
    # Buchberger runs once per saturation step, and nothing is re-based; the
    # q = 3 semigroup's ideal, seeded with circuits, needs one run (rank <= 2
    # takes the p-Apery route and builds no basis)
    calls = {"_buchberger": 0, "reduced_basis": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(pf.groebner, "_buchberger", counted("_buchberger", pf.groebner._buchberger))
    monkeypatch.setattr(pf.groebner, "reduced_basis", counted("reduced_basis", pf.groebner.reduced_basis))
    S = pf.Semigroup(3, Q3)
    pf.toric_ideal_generators.cache_clear()
    pf.reduced_basis.cache_clear()
    _fp_groebner.cache_clear()
    for order in (GRLEX, GREVLEX):
        assert pf.fp_general(S, 1, order) == pf.oracle_fp(S, 1, order).result
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
    assert {m for b in G for m in (b.lead, b.trail)} == {(3, 0), (0, 2)}
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
        S, list(pf.reduced_basis(S, GRLEX))
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
    Z = pf.groebner.fiber(B[1].lead, tuple(B))
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
    R = list(pf.reduced_basis(S, GRLEX))
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
        for b in G:
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


def test_f0_numerical_is_fp_general_at_p0():
    # one route and one cache: on seeded draws that hold a shared gcd and
    # <1>, f0_numerical then fp_general cost one walk-cache miss and one hit
    rng = random.Random(35)
    draws = [pf.numerical(1)] + [random_semigroup(rng, 1, coord_max=12) for _ in range(60)]
    shapes = Counter("N" if S.generators == ((1,),) else "gcd > 1" if gcd(*(g for (g,) in S.generators)) > 1
                     else "gcd 1" for S in draws)
    assert min(shapes.values()) >= 5, shapes
    for S in draws:
        _apery_walk.cache_clear()
        assert pf.f0_numerical(S) == pf.fp_general(S, 0), S
        info = _apery_walk.cache_info()
        assert (info.misses, info.hits) == (1, 1), (S, info)


@pytest.mark.parametrize("call", [
    lambda S: pf.fp_general(S, 0), pf.f0_numerical, lambda S: pf.oracle_fp(S, 0),
], ids=["fp_general", "f0_numerical", "oracle_fp"])
def test_f0_refused_beyond_q1_in_one_text(call):
    S = pf.Semigroup(2, ((2, 0), (3, 0), (0, 2), (0, 3)))
    with pytest.raises(pf.UnsupportedError) as exc:
        call(S)
    assert str(exc.value) == _F0_SCOPE


def test_fp_numerical_matches_references():
    # the p-Apery route against the tuple scan on the toric basis and the
    # oracle's exact count, on seeded draws that hold the known hard shapes:
    # h = 1 after minimalization, an overall gcd above 1, and a factor shared
    # by the two smallest generators only
    rng = random.Random(1)
    shapes = Counter()
    for _ in range(80):
        S = random_semigroup(rng, 1, coord_max=30)
        values = sorted(g for (g,) in S.generators)
        shape = "h = 1" if S.h == 1 else "gcd > 1" if gcd(*values) > 1 else "shared" if gcd(*values[:2]) > 1 else "coprime"
        shapes[shape] += 1
        for p in (1, 2, 3, 5):
            if S.h == 1:  # every multiple of the one generator has one factorization
                assert pf.fp_general(S, p) == pf.INFINITE and not pf.is_fp_finite(S), S
                continue
            got = apery(S, p)
            assert got == tuple_scan_reference(S, p, GRLEX) == pf.oracle_fp(S, p).result, (S, p)
    assert len(shapes) == 4 and min(shapes.values()) >= 5, shapes


@pytest.mark.parametrize("gens, f1", [((18, 19, 20, 27, 28), 88), ((10, 11, 24, 28, 29), 46)])
def test_fp_numerical_tied_class(gens, f1):
    # F_0 + a, the largest L_r^(1), has two factorizations, so its class
    # holds no element with one and F_1 lies below F_0
    S = pf.numerical(*gens)
    assert pf.fp_general(S, 1) == pf.oracle_fp(S, 1).result == pf.FrobeniusResult.finite((f1,))
    assert f1 < pf.f0_numerical(S).point[0]


def test_fp_numerical_common_factor():
    # S = d*S' has the factorizations of S', so F_p(S) = d*F_p(S') and F_0(S)
    # is infinite: the Dijkstra runs over the 2 residues of S' = <2, 3>, not
    # over 2*10^9, and the scaled answer passes the 64-bit guard
    d = 10**9
    S = pf.numerical(2 * d, 3 * d)
    assert [pf.fp_general(S, p) for p in (0, 1, 2)] == [
        pf.INFINITE, pf.FrobeniusResult.finite((7 * d,)), pf.FrobeniusResult.finite((13 * d,))
    ]
    with pytest.raises(pf.OverflowGuardError):
        pf.fp_general(pf.numerical(2**62, 3 * 2**61), 1)


def test_fp_numerical_p0_matches_certificate():
    # p = 0 is F_0: infinite exactly when the gcd is above 1, otherwise
    # certified by plain reachability and equal to the oracle's count
    rng = random.Random(2)
    infinite = 0
    for _ in range(80):
        S = random_semigroup(rng, 1, coord_max=30)
        values = sorted(g for (g,) in S.generators)
        f0 = apery(S, 0)
        assert f0.is_infinite == (gcd(*values) > 1), S
        if f0.is_infinite:
            infinite += 1
            continue
        assert f0 == pf.oracle_fp(S, 0).result, S
        assert f0.point == (-1,) if values == [1] else f0_certified(values, f0.point[0]), S
    assert infinite >= 5


def test_apery_route_needs_no_basis(monkeypatch):
    # q = 1 at every p (the gate only at p >= 1), a q = 2 call of rank 2,
    # rank-1 calls at q = 2 and q = 3 and a q = 3 call of rank 2 pass the
    # gate, take the p-Apery walk and build no toric ideal; only the q = 3
    # semigroup of rank 3 builds one
    calls = []
    for module, name in ((pf.frobenius, "is_fp_finite"), (pf.groebner, "toric_ideal_generators")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    _apery_walk.cache_clear()
    _fp_groebner.cache_clear()
    S = pf.numerical(6, 7, 8)
    for p, expected in ((0, 17), (1, 25), (2, 33)):
        for order in (GRLEX, GREVLEX):
            assert pf.fp_general(S, p, order) == pf.FrobeniusResult.finite((expected,))
    assert calls == ["is_fp_finite"] * 4
    calls.clear()
    for p in (1, 2, 3):
        for order in (GRLEX, GREVLEX):
            pf.fp_general(pf.Semigroup(2, BOX_SCAN[1]), p, order)
    assert pf.fp_general(pf.Semigroup(2, ((4, 6), (6, 9))), 1) == pf.FrobeniusResult.finite((14, 21))
    assert pf.fp_general(pf.Semigroup(3, ((3, 6, 9), (5, 10, 15))), 1) == pf.FrobeniusResult.finite((22, 44, 66))
    assert calls == ["is_fp_finite"] * 8
    calls.clear()
    for p, expected in ((1, (1, 8, 8)), (2, (1, 14, 14))):
        for order in (GRLEX, GREVLEX):
            assert pf.fp_general(pf.Semigroup(3, RANK2_Q3), p, order) == pf.FrobeniusResult.finite(expected)
    assert calls == ["is_fp_finite"] * 4
    calls.clear()
    assert pf.fp_general(pf.Semigroup(3, Q3), 1) == pf.FrobeniusResult.finite((21, 45, 58))
    assert calls == ["is_fp_finite", "toric_ideal_generators"]


def test_orders_share_one_walk():
    # the walk does not depend on the order: grlex then grevlex on one
    # (S, p) run it once, its cache holds only the q-tuples the order picks
    # among, and each pick is the answer of the basis-and-scan reference and
    # of the oracle
    semigroups = [pf.Semigroup(2, gens) for gens in BOX_SCAN]
    semigroups += [pf.Semigroup(2, ((4, 6), (6, 9))), pf.numerical(6, 7, 8)]
    known = {(semigroups[3], 1): (14, 21), (semigroups[4], 1): (25,), (semigroups[4], 2): (33,)}
    _apery_walk.cache_clear()
    for S in semigroups:
        for p in (1, 2, 3):
            for order in (GRLEX, GREVLEX):
                got = pf.fp_general(S, p, order)
                assert got == scan(S, p, order) == pf.oracle_fp(S, p, order).result, (S, p, order)
                assert got.point == known.get((S, p), got.point), (S, p)
    assert _apery_walk.cache_info().misses == len(semigroups) * 3
    for S in semigroups:
        for p in (1, 2, 3):
            points = _apery_walk(S, p)
            assert type(points) is tuple and points, (S, p)
            assert all(type(n) is tuple and len(n) == S.q for n in points), (S, p, points)
    assert _apery_walk.cache_info().misses == len(semigroups) * 3


def test_fp_numerical_huge_p_refused():
    # the p-Apery walk would keep 2^62 + 1 sums per class, so its guard must
    # refuse p = 2^62 up front
    S = pf.numerical(3, 4, 5)
    t0 = time.perf_counter()
    with pytest.raises(pf.OverflowGuardError):
        pf.fp_general(S, 2**62)
    assert time.perf_counter() - t0 < 1


def test_fp_planar_huge_p_refused(example_S):
    # the p-Apery walk would keep p + 1 sums per class, so its guard must
    # refuse p = 2^62 up front, before the first step; also on rays
    # (1, 2) and (2, 1) off the axes
    _apery_walk.cache_clear()
    for S in (example_S, pf.Semigroup(2, ((2, 4), (3, 6), (4, 2), (6, 3), (1, 1)))):
        t0 = time.perf_counter()
        with pytest.raises(pf.OverflowGuardError):
            pf.fp_general(S, 2**62)
        assert time.perf_counter() - t0 < 1
    assert _apery_walk.cache_info().currsize == 0  # a refused walk caches nothing


def reference_walk(S: pf.Semigroup, p: int) -> tuple[tuple[int, ...], ...]:
    """``_apery_walk`` as a Dijkstra over one heap of (z_1 + z_2, z_1, z_2,
    index of the last b) tuples, every corner built before the top degree is
    kept: the reference for its level queue and its corner read.  The two
    may keep different sums of one level, where equal sums tie, but must
    return the same points."""
    (e1, *_), *plane = pf.cone.ray_generators(S)
    if plane:
        ((e2, *_),) = plane
        if e1[0] * e2[1] < e1[1] * e2[0]:
            e1, e2 = e2, e1
        D = e1[0] * e2[1] - e1[1] * e2[0]
        zs = [(e2[1] * x - e2[0] * y, e1[0] * y - e1[1] * x) for x, y in S.generators if (x, y) not in (e1, e2)]
    else:
        D = max(e1)
        i = e1.index(D)
        zs = [(b[i], 0) for b in S.generators if b != e1]
    g1, g2 = gcd(D, *(u for u, _ in zs)), gcd(D, *(v for _, v in zs))
    if p == 0 and g1 > 1:
        return ()
    m1, m2 = D // g1, D // g2
    zs = [(u // g1, v // g2) for u, v in zs]
    k = p + 1
    kept: dict[int, list[tuple[int, int]]] = {}
    heap = [(0, 0, 0, 0)]
    while heap:
        size, x, y, j = heapq.heappop(heap)
        below = kept.setdefault(x % m1 * m2 + y % m2, [])
        if sum(u <= x and v <= y for u, v in below) >= k:
            continue
        below.append((x, y))
        for i in range(j, len(zs)):
            u, v = zs[i]
            heapq.heappush(heap, (size + u + v, x + u, y + v, i))
    if not plane:
        top = max(pts[-1][0] for pts in kept.values() if not p or pts[-1] > pts[0])
        return (tuple(g1 * (top - m1) * c // D for c in e1),)
    corners = []
    for pts in kept.values():
        pts.sort()
        smallest: list[int] = []
        for (x, y), (x_next, _) in zip(pts, pts[1:]):
            heapq.heappush(smallest, -y)
            if len(smallest) > k:
                heapq.heappop(smallest)
            if x_next > x and len(smallest) == k:
                a, b = g1 * (x_next - m1), g2 * (-smallest[0] - m2)
                corners.append((a * sum(e1) + b * sum(e2), a, b))
    top = max(corners)[0]
    return tuple(((a * e1[0] + b * e2[0]) // D, (a * e1[1] + b * e2[1]) // D) for degree, a, b in corners if degree == top)


def check_walk(S: pf.Semigroup, p: int) -> None:
    """The p-Apery walk returns the points of ``reference_walk``."""
    assert set(_apery_walk(S, p)) == set(reference_walk(S, p)), (S, p)


@pytest.mark.parametrize("gens, ps", [((1,), (0,)), ((5,), (0,)), ((2, 3), (0, 1, 2, 3)), ((4, 6, 9), (1, 2))])
def test_walk_matches_reference_numerical(gens, ps):
    # <1> and <5> have no generator off the ray (<5> stops at its gcd)
    for p in ps:
        check_walk(pf.numerical(*gens), p)


def test_walk_matches_reference_planar(example_S):
    for p in (1, 2, 3):
        check_walk(example_S, p)
    for gens in BOX_SCAN + (NAMED_H6, ((4, 6), (6, 9)), ((2, 4), (3, 6), (4, 2), (6, 3), (1, 1))):
        S = pf.Semigroup(len(gens[0]), gens)
        for p in (1, 2):
            check_walk(S, p)


def staircase_reference(classes, k, m1, m2, w1, w2) -> list[tuple[int, int]]:
    """The maximal points z of {z in the class's coset: fewer than k points of
    the class at or below z}, over every class, of the largest degree
    z_1 w1 + z_2 w2, found by counting at each point of the coset in the box
    one step wider than the class on every side.  The set is closed
    downwards, so z is maximal when both steps up from it leave the set; a
    point on the box's upper edge never is, as the step out of the box counts
    the same points."""
    found = []
    for pts in classes:
        if not pts:
            continue
        xs, ys = [x for x, _ in pts], [y for _, y in pts]

        def inside(a, b):
            return sum(x <= a and y <= b for x, y in pts) < k

        for a in range(min(xs) - m1, max(xs) + m1 + 1, m1):
            for b in range(min(ys) - m2, max(ys) + m2 + 1, m2):
                if inside(a, b) and not inside(a + m1, b) and not inside(a, b + m2):
                    found.append((a, b))
    top = max((a * w1 + b * w2 for a, b in found), default=None)
    return sorted(z for z in found if z[0] * w1 + z[1] * w2 == top)


def test_staircase_matches_brute_force():
    # random classes with repeats and ties in x and in y, alone and in
    # batches over distinct cosets, against the count at every point of a box
    rng = random.Random(11)
    seen = Counter()
    for draw in range(900):
        m1, m2, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(2, 4)
        w1 = rng.randint(1, 9)
        w2 = rng.choice((w1, rng.randint(1, 9)))  # equal weights tie more degrees
        cosets = [(rng.randint(-4, 9), rng.randint(-4, 9)) for _ in range(1 if draw < 600 else rng.randint(2, 5))]
        cosets = list({(x0 % m1, y0 % m2): (x0, y0) for x0, y0 in cosets}.values())
        classes = []
        for x0, y0 in cosets:
            pts = [(x0 + m1 * rng.randint(0, 6), y0 + m2 * rng.randint(0, 6)) for _ in range(rng.randint(0, 12))]
            pts += rng.sample(pts, rng.randint(0, len(pts) // 3))  # repeats
            rng.shuffle(pts)
            classes.append(pts)
        want = staircase_reference(classes, k, m1, m2, w1, w2)
        assert sorted(_staircase([list(pts) for pts in classes], k, m1, m2, w1, w2)) == want, (classes, k, m1, m2)
        seen["classes"] += len(classes)
        seen["with a corner"] += bool(want)
        seen["several corners"] += len(want) > 1
    assert seen["classes"] >= 1000 and seen["with a corner"] >= 300 and seen["several corners"] >= 10, seen


def test_walk_level_loop_names_are_fast_locals():
    # a comprehension or lambda in _apery_walk that captures a name makes it
    # a closure cell, and the level loop would then read it through a cell
    # dereference on every popped sum
    loop = {"x", "y", "j", "c", "below", "under", "u", "v", "s", "t", "i", "level", "size", "k", "m1", "m2",
            "kept", "levels", "sizes", "tails", "pop", "push"}
    assert not loop & set(_apery_walk.__wrapped__.__code__.co_cellvars)


def apery_differential(draws: int, seed: int = 0, oracle_every: int = 10) -> Counter:
    """The p-Apery walk against the reference ``_fp_groebner``, the scan of
    the toric basis's standard monomials, on three kinds of seeded draw:
    - `draws` q = 2 semigroups of rank 2 with finite F_p, taken in turn
      from ``random_finite_semigroup``, ``random_dense_planar_semigroup``
      and ``random_offaxis_semigroup`` (rays built on two random primitive
      directions), at p = 1..3 under both orders, and against ``oracle_fp``
      on every `oracle_every`-th;
    - draws // 3 numerical semigroups, which hold the shapes h = 1 after
      minimalization, an overall gcd above 1 and a factor shared by the two
      smallest generators only: at p = 1..3, and at p = 0 against the
      oracle on every `oracle_every`-th and reachability on the rest;
    - draws // 6 rank-1 semigroups at q = 2 and q = 3, numerical ones along
      a random primitive direction, at p = 1..3 under both orders.
    Where F_p is infinite, h = 1 on the ray, ``fp_general`` must say so and
    the gate must fail.  Wherever F_p is finite the walk's points must be
    ``reference_walk``'s (counted as "walks").  On every q = 2 draw,
    ``cone.ray_generators`` must equal its Fourier-Motzkin reference
    (counted as "rays").  Returns how
    many draws of each kind were checked."""
    rng = random.Random(seed)
    seen = Counter()

    def check_rays(S):
        assert pf.cone.ray_generators(S) == rays_by_fourier_motzkin(S), S
        seen["rays"] += 1

    def walk(S, p):
        check_walk(S, p)
        seen["walks"] += 1

    while seen["draws"] < draws:
        kind = seen["draws"] % 3
        if kind == 0:
            S = random_finite_semigroup(rng, 2)
        elif kind == 1:
            S = random_dense_planar_semigroup(rng)
        else:
            S = random_offaxis_semigroup(rng)
        seen["draws"] += 1
        check_rays(S)
        seen["off-axis"] += any(all(ray[0]) for ray in pf.cone.ray_generators(S))
        for p in (1, 2, 3):
            walk(S, p)
            for order in (GRLEX, GREVLEX):
                got = apery(S, p, order)
                assert got == scan(S, p, order), (S, p, order)
                if seen["draws"] % oracle_every == 0 and p < 3:
                    assert got == pf.oracle_fp(S, p, order).result, (S, p, order)
                    seen["oracle"] += 1

    def rank_one(S, orders, kind):
        seen[kind] += 1
        if S.q == 2:
            check_rays(S)
        for p in (1, 2, 3):
            if S.h > 1:
                walk(S, p)
            for order in orders:
                if S.h == 1:
                    assert pf.fp_general(S, p, order) == pf.INFINITE and not pf.is_fp_finite(S), S
                else:
                    assert apery(S, p, order) == scan(S, p, order), (S, p, order)

    for i in range(draws // 3):
        S = random_semigroup(rng, 1, coord_max=30)
        values = sorted(g for (g,) in S.generators)
        rank_one(S, (GRLEX,), "h = 1" if S.h == 1 else "gcd > 1" if gcd(*values) > 1
                 else "shared" if gcd(*values[:2]) > 1 else "coprime")
        walk(S, 0)
        f0 = apery(S, 0)
        if gcd(*values) > 1:
            assert f0 == pf.INFINITE, S
        elif i % oracle_every == 0:
            assert f0 == pf.oracle_fp(S, 0).result, S
        else:
            assert f0.point == (-1,) if values == [1] else f0_certified(values, f0.point[0]), S
    for i in range(draws // 6):
        q = 2 + i % 2
        d = (0,) * q
        while not any(d):
            d = tuple(rng.randint(0, 3) for _ in range(q))
        d = tuple(c // gcd(*d) for c in d)
        N = random_semigroup(rng, 1, h_max=4, coord_max=9)
        rank_one(pf.Semigroup(q, tuple(tuple(a * c for c in d) for (a,) in N.generators)), (GRLEX, GREVLEX),
                 f"rank 1, q = {q}")
    return seen


def test_fp_planar_matches_groebner():
    # a slice of the p-Apery differential; CI runs 600 draws
    seen = apery_differential(30)
    assert seen["off-axis"] >= 3 and seen["oracle"] >= 6, seen
    assert seen["rays"] == seen["draws"] + seen["rank 1, q = 2"], seen
    assert seen["walks"] >= 3 * seen["draws"] + seen["draws"] // 3, seen
    kinds = ("h = 1", "gcd > 1", "shared", "coprime", "rank 1, q = 2", "rank 1, q = 3")
    assert min(seen[kind] for kind in kinds) >= 1, seen


def rank2_differential(draws: int, seed: int = 0, oracle_every: int = 10) -> Counter:
    """The p-Apery walk against the reference ``_fp_groebner`` on `draws`
    seeded semigroups of rank 2 from ``random_rank2_semigroup``, in N^3 and
    N^4 in turn, at p = 1..3: the two give the same points, ``fp_general``
    under both orders is the tests' ``scan``, and on every `oracle_every`-th
    draw from the first (each in N^3) at p <= 2 it is ``oracle_fp``'s
    answer.  Returns the number of draws, of oracle checks, and of draws
    ("other pair") whose ray generators are dependent on the coordinates
    (0, 1), so that the walk projects S onto another pair."""
    rng = random.Random(seed)
    seen = Counter()
    while seen["draws"] < draws:
        S = random_rank2_semigroup(rng, 3 + seen["draws"] % 2)
        oracle = seen["draws"] % oracle_every == 0
        seen["draws"] += 1
        (e1, *_), (e2, *_) = pf.cone.ray_generators(S)
        seen["other pair"] += e1[0] * e2[1] == e1[1] * e2[0]
        for p in (1, 2, 3):
            assert set(_apery_walk(S, p)) == set(_fp_groebner(S, p)), (S, p)
            for order in (GRLEX, GREVLEX):
                got = pf.fp_general(S, p, order)
                assert got == scan(S, p, order), (S, p, order)
                if oracle and p < 3:
                    assert got == pf.oracle_fp(S, p, order).result, (S, p, order)
                    seen["oracle"] += 1
    return seen


def test_rank2_walk_matches_groebner_beyond_the_plane():
    # every semigroup of rank 2 takes the p-Apery walk at any q; a slice of
    # the rank-2 differential, CI runs 200 draws
    seen = rank2_differential(60)
    assert seen["draws"] == 60 and seen["oracle"] == 24 and seen["other pair"] >= 5, seen


@pytest.mark.parametrize(
    "gens, expected",
    [
        (RANK2_Q3, {1: (1, 8, 8), 2: (1, 14, 14)}),
        (((2, 0, 2), (3, 0, 3), (0, 0, 2), (0, 0, 3), (1, 0, 2)), {1: (8, 0, 9), 2: (14, 0, 15), 3: (20, 0, 21)}),
        (
            ((0, 2, 0, 2), (0, 3, 0, 3), (0, 0, 0, 2), (0, 0, 0, 5), (0, 1, 0, 3)),
            {1: (0, 7, 0, 12), 2: (0, 13, 0, 18), 3: (0, 19, 0, 24)},
        ),
    ],
)
def test_rank2_walk_fixed_cases(gens, expected):
    # the last two lie in planes that collapse on the coordinates (0, 1)
    S = pf.Semigroup(len(gens[0]), gens)
    for p, point in expected.items():
        for order in (GRLEX, GREVLEX):
            got = pf.fp_general(S, p, order)
            assert got == apery(S, p, order) == pf.FrobeniusResult.finite(point) == pf.oracle_fp(S, p, order).result


@pytest.mark.parametrize("gens, expected", [((1001, 1234, 1777), 237757), ((3001, 4567, 5003, 6011), 317626)])
def test_fp_numerical_large_p(gens, expected):
    # F_10 of large numerical semigroups: the scan of the box prod [0, p*lambda_i)
    # took 4.0 s and 5.6 s on them
    S = pf.numerical(*gens)
    _apery_walk.cache_clear()
    t0 = time.perf_counter()
    assert pf.fp_general(S, 10) == pf.FrobeniusResult.finite((expected,))
    assert time.perf_counter() - t0 < 2


def test_fp_general_bool_p_misses_cache():
    # True equals 1 and hashes like it, so an untyped cache answered it as p = 1
    S = pf.numerical(3, 5)
    assert pf.fp_general(S, 1) == pf.FrobeniusResult.finite((22,))
    with pytest.raises(pf.ValidationError):
        pf.fp_general(S, True)


def test_fp_general_cache_keys_on_fields():
    # an equal semigroup built anew, by keyword, hits the walk's cache; p is
    # checked before any cache is reached, so p = True is still refused
    S = pf.numerical(3, 5)
    assert pf.fp_general(S, 1) == pf.FrobeniusResult.finite((22,))
    hits = _apery_walk.cache_info().hits
    T = pf.Semigroup(q=1, generators=((3,), (5,)))
    assert pf.fp_general(T, 1) == pf.FrobeniusResult.finite((22,))
    assert _apery_walk.cache_info().hits == hits + 1
    with pytest.raises(pf.ValidationError):
        pf.fp_general(T, True)


def test_fp_general_rejects_float_and_str_p():
    S = pf.numerical(3, 5)
    for p in (1.5, 1.0, "1"):
        with pytest.raises(pf.ValidationError):
            pf.fp_general(S, p)


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
    trails = [b.trail for b in G]
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


@lru_cache(maxsize=4)
def _tuple_scan_levels(S: pf.Semigroup, p: int):
    """The order-free part of the tuple scan, shared by both orders: the
    standard monomials of the toric basis grown in prod [0, p*lambda_i) (each
    child c of g raises a coordinate i at or after g's last nonzero one, and
    only leads with lead_i = c_i can divide c but not g), bucketed by total
    degree, and a memoized fiber count by tuple reverse rewrites
    u -> u - trail + lead, capped past p."""
    G = pf.toric_ideal_generators(S)
    top = tuple(p * b for b in pf.lambda_bounds(S, G))
    leads_at: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for b in G:
        for i, e in enumerate(b.lead):
            leads_at.setdefault((i, e), []).append(b.lead)
    grown = [((0,) * S.h, 0)]
    for g, last in grown:  # the list grows while it is read
        for i in range(last, S.h):
            c = g[:i] + (g[i] + 1,) + g[i + 1 :]
            if c[i] < top[i] and not any(all(map(le, lead, c)) for lead in leads_at.get((i, c[i]), ())):
                grown.append((c, i))
    weights = [sum(a) for a in S.generators]  # the total degree of each generator
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for g, _ in grown:
        buckets.setdefault(sum(map(mul, g, weights)), []).append(g)

    @lru_cache(maxsize=None)
    def fiber(u):
        seen, stack = {u}, [u]
        while stack and len(seen) <= p:
            u = stack.pop()
            for b in G:
                if all(map(le, b.trail, u)):
                    v = tuple(x - t + l for x, t, l in zip(u, b.trail, b.lead))
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
        return len(seen)

    return buckets, fiber


def tuple_scan_reference(S: pf.Semigroup, p: int, order: pf.OrderSpec) -> pf.FrobeniusResult:
    """F_p(S) by the scan on tuples: the buckets of _tuple_scan_levels from
    the top total degree down, each sorted by order.key(s_degree) when the
    scan reaches it, and the first monomial whose fiber holds at most p."""
    buckets, fiber = _tuple_scan_levels(S, p)
    columns = list(zip(*S.generators))

    def key(g):
        return order.key(tuple(sum(map(mul, g, c)) for c in columns))

    for d in sorted(buckets, reverse=True):
        for g in sorted(buckets[d], key=key, reverse=True):
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


def test_fp_general_q3_p1():
    # the q = 3 semigroup with an interior generator, which no bench workload
    # has; p = 2 ((21, 45, 93)) is in test_orders_share_one_scan
    S = pf.Semigroup(3, Q3)
    expected = pf.FrobeniusResult.finite((21, 45, 58))
    assert pf.oracle_fp(S, 1, GRLEX).result == expected
    for order in (GRLEX, GREVLEX):
        assert pf.fp_general(S, 1, order) == expected


def test_orders_share_one_scan():
    # the scan does not depend on the order: grlex then grevlex on one (S, p)
    # run it once, and each pick is the tuple scan's answer and the
    # oracle's; the four-ray semigroup's cone is not simplicial, and a cold
    # p = 2 oracle call takes about 0.06-0.09 s on Q3 and 0.02-0.04 s on the
    # four-ray semigroup on a shared 2-core x86 VM
    four_rays = ((0, 0, 2), (0, 0, 3), (4, 0, 2), (6, 0, 3), (0, 4, 2), (0, 6, 3), (4, 4, 2), (6, 6, 3), (1, 1, 1))
    cases = [(pf.Semigroup(3, Q3), 1, (21, 45, 58)), (pf.Semigroup(3, Q3), 2, (21, 45, 93)),
             (pf.Semigroup(3, four_rays), 2, (43, 29, 23))]
    _fp_groebner.cache_clear()
    for S, p, expected in cases:
        for order in (GRLEX, GREVLEX):
            got = pf.fp_general(S, p, order)
            assert got == tuple_scan_reference(S, p, order) == pf.FrobeniusResult.finite(expected), (S, p, order)
            assert pf.oracle_fp(S, p, order).result == got, (S, p, order)
    assert _fp_groebner.cache_info().misses == 3
