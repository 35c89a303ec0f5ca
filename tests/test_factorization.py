from __future__ import annotations

import itertools
import random
import time

import pytest

import pfrobenius as pf
from conftest import random_semigroup


def brute_force_factorizations(S: pf.Semigroup, n: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Independent enumeration: nested product loop with per-generator bounds."""
    bounds = []
    for g in S.generators:
        b = min(n[j] // g[j] for j in range(S.q) if g[j] > 0)
        bounds.append(b)
    out = set()
    for lam in itertools.product(*(range(b + 1) for b in bounds)):
        if all(
            sum(li * g[j] for li, g in zip(lam, S.generators)) == n[j]
            for j in range(S.q)
        ):
            out.add(lam)
    return out


def test_z12_of_23():
    S = pf.numerical(2, 3)
    assert pf.factorizations(S, (12,)) == {(6, 0), (3, 2), (0, 4)}


def test_unique_factorization_at_f1(example_S):
    assert pf.factorizations(example_S, (21, 4)) == {(3, 2, 0, 0, 4)}


def test_empty_below_generators():
    assert not pf.factorizations(pf.numerical(2, 3), (1,))


def test_count_capped():
    S = pf.numerical(2, 3)
    assert pf.count_capped(S, (12,), 2) == 2
    assert pf.count_capped(S, (12,), 5) == 3
    assert pf.count_capped(S, (0,), 5) == 1


def test_count_capped_example(example_S):
    assert pf.count_capped(example_S, (21, 4), 2) == 1


def test_cap_validation():
    with pytest.raises(pf.ValidationError):
        pf.count_capped(pf.numerical(2, 3), (5,), 0)


def test_contains():
    S = pf.numerical(2, 3)
    assert pf.contains(S, (5,))
    assert not pf.contains(S, (1,))


def test_contains_example(example_S):
    assert pf.contains(example_S, (2, 83))
    assert (0, 0, 15, 1, 2) in pf.factorizations(example_S, (2, 83))


def test_point_checks():
    S = pf.numerical(2, 3)
    for bad in ((5, 1), (-1,)):
        assert not pf.contains(S, bad)
        with pytest.raises(pf.ValidationError):
            pf.count_capped(S, bad, 2)
        with pytest.raises(pf.ValidationError):
            pf.factorizations(S, bad)
    # the 64-bit guard covers the factorization entry points
    with pytest.raises(pf.OverflowGuardError):
        pf.count_capped(S, (2**70,), 2)
    with pytest.raises(pf.OverflowGuardError):
        pf.factorizations(pf.Semigroup(2, ((1, 0), (0, 1))), (0, 2**70))


def test_matches_independent_enumerator():
    rng = random.Random(42)
    for i in range(60):
        q = rng.choice([1, 2, 3])
        S = random_semigroup(rng, q, h_max=5, coord_max=12 if q < 3 else 5)
        if i % 2:
            n = tuple(rng.randint(0, 30) for _ in range(q))
        else:  # a point of S, so that q = 3 draws have factorizations
            n = pf.s_degree(S, [rng.randint(0, 2) for _ in range(S.h)])
        got = pf.factorizations(S, n)
        assert got == brute_force_factorizations(S, n)
        for lam in got:
            assert pf.s_degree(S, lam) == n


def test_monotone_cap():
    rng = random.Random(1)
    S = pf.numerical(3, 4, 5)
    for _ in range(20):
        n = (rng.randint(0, 40),)
        full = len(pf.factorizations(S, n))
        for cap in (1, 2, 4, 8):
            assert pf.count_capped(S, n, cap) == min(full, cap)


def test_pumping_gives_p_plus_one_factorizations():
    # once one exponent reaches p * lambda_k, at least p+1 factorizations exist
    S = pf.numerical(2, 3)
    G = pf.reduced_basis(S, pf.OrderSpec("grlex"))
    lam = pf.lambda_bounds(S, G)
    for p in (1, 2, 3):
        for k in range(S.h):
            mult = p * lam[k] + 1
            b = tuple(mult * c for c in S.generators[k])
            assert pf.count_capped(S, b, p + 1) == p + 1


def test_closes_each_coordinate_early():
    # the interior generator touches every coordinate; each axis pair must
    # still force its multiplicity, or the search walks every prefix
    S = pf.Semigroup(3, ((3, 0, 0), (5, 0, 0), (0, 3, 0), (0, 4, 0), (0, 0, 2), (0, 0, 5), (1, 2, 1)))
    assert pf.count_capped(S, (60, 60, 60), 10**6) == 1806 == pf.oracle_count(S, (60, 60, 60))
    # a coordinate no generator touches
    assert not pf.factorizations(pf.Semigroup(2, ((2, 0), (3, 0))), (5, 1))


def test_fiber_walk_matches_search():
    # Z_n(S) is the fiber of one factorization over the toric basis: the
    # same set as the uncapped search, for elements in and out of S
    rng = random.Random(53)
    for trial in range(45):
        q = trial % 3 + 1
        S = random_semigroup(rng, q, h_max=5, coord_max=8 if q < 3 else 5)
        for _ in range(4):
            n = tuple(c + rng.randint(0, 1) for c in pf.s_degree(S, [rng.randint(0, 3) for _ in range(S.h)]))
            assert pf.factorizations(S, n) == set(pf.factorization.factor_tuples(S.generators, n, None)), (S, n)


def test_walks_the_fiber():
    # the degree (2790, 837, 3348) has 21 factorizations: the search for all
    # of them ran past 20 s, one search with cap 1 and the fiber walk over
    # the toric basis take about 0.15 s
    S = pf.Semigroup(3, ((6, 11, 6), (6, 1, 9), (10, 3, 12), (10, 4, 5), (1, 4, 5)))
    t0 = time.perf_counter()
    Z = pf.factorizations(S, (2790, 837, 3348))
    assert time.perf_counter() - t0 < 2.0
    assert len(Z) == 21 and (0, 0, 279, 0, 0) in Z
    assert all(pf.s_degree(S, lam) == (2790, 837, 3348) for lam in Z)
