from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from math import prod

import pytest

import pfrobenius as pf
from conftest import random_semigroup, unstepped_factor_tuples
from pfrobenius import factorization


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


def test_cap_must_be_an_int():
    S = pf.numerical(3, 5)
    for cap in (1.5, True, "2"):
        with pytest.raises(pf.ValidationError):
            pf.count_capped(S, (8,), cap)


def test_contains():
    S = pf.numerical(2, 3)
    assert pf.contains(S, (5,))
    assert not pf.contains(S, (1,))


def test_contains_example(example_S):
    assert pf.contains(example_S, (2, 83))
    assert (0, 0, 15, 1, 2) in pf.factorizations(example_S, (2, 83))


def test_point_checks():
    S = pf.numerical(2, 3)
    # only ints are coordinates: 5.9 is not truncated to 5, nor True read as 1
    for bad in ((5, 1), (-1,), (5.9,), ("5",), (True,)):
        assert not pf.contains(S, bad)
        with pytest.raises(pf.ValidationError):
            pf.count_capped(S, bad, 2)
        with pytest.raises(pf.ValidationError):
            pf.factorizations(S, bad)
    with pytest.raises(pf.ValidationError):
        pf.oracle_count(S, (8.5,))
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


def stepped_draws(rng: random.Random, count: int):
    """count (gens, n) pairs at q = 1-3 whose coordinates share factors, so
    that closing pairs such as (4, 0), (6, 0) meet: half of the n are points
    of the semigroup, the other half points near them.  Every tenth q = 3
    draw holds (a, b, 0), (x, 0, z), (y, 0, 0) and (0, w, 0), whose first
    step is free, 0 on the coordinate 2 that the second step closes."""
    for i in range(count):
        q = i % 3 + 1
        values = list(range(1, 25)) if q == 1 else [0, 0, 1, 2, 3, 4, 6, 8, 9, 12]
        gens, h = set(), rng.randint(1, 6 if q < 3 else 5)
        if i % 30 == 2:
            a, b, x, z, y, w = (rng.choice(values[2:]) for _ in range(6))
            gens = {(a, b, 0), (x, 0, z), (y, 0, 0), (0, w, 0)}
        while len(gens) < h:
            g = tuple(rng.choice(values) for _ in range(q))
            if any(g):
                gens.add(g)
        gens = tuple(sorted(gens, key=lambda _: rng.random()))
        n = pf.s_degree(pf.Semigroup(q, gens), [rng.randint(0, 3) for _ in gens])
        if i % 2:
            n = tuple(c + rng.randint(0, 3) for c in n)
        yield gens, n


def test_stepped_search_matches_unstepped(monkeypatch):
    # a free step walks its multiplicities by the period of the step that
    # closes its coordinate next: the lists, in their order, at every cap
    # are those of the search that tries every multiplicity, and the closing
    # step is never handed a residual it refuses for a remainder
    seen = Counter()
    search = factorization._search

    def spy(steps, idx, residual, *rest):
        if idx < len(steps):
            g, closed, (j, d, m, _), _ = steps[idx]
            if closed and idx and not steps[idx - 1][1]:  # a free step's k reached it
                assert residual[closed[0]] % g[closed[0]] == 0, (steps, residual)
                seen["handed"] += 1
            elif not closed and steps[idx + 1][1]:  # a free step with a period
                seen["shared"] += d > 1 and g[j] > 0
                seen["zero"] += g[j] == 0
                seen["period 1"] += m == 1
                seen["not divided"] += residual[j] % d > 0
        return search(steps, idx, residual, *rest)

    monkeypatch.setattr(factorization, "_search", spy)
    rng = random.Random(71)
    for gens, n in stepped_draws(rng, 1000):
        full = factorization.factor_tuples(gens, n, None)
        assert full == unstepped_factor_tuples(gens, n, None), (gens, n)
        for cap in (1, 2, 3):
            assert factorization.factor_tuples(gens, n, cap) == unstepped_factor_tuples(gens, n, cap), (gens, n, cap)
        S = pf.Semigroup(len(n), gens)
        if prod(min(c // a for c, a in zip(n, g) if a) + 1 for g in gens) <= 2000:
            assert set(full) == brute_force_factorizations(S, n) and len(set(full)) == len(full), (gens, n)
            seen["brute force"] += 1
    assert min(seen.values()) >= 100 and len(seen) == 6, seen
