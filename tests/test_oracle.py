from __future__ import annotations

import itertools
import random

import pytest

import pfrobenius as pf
from conftest import f0_certified, random_finite_semigroup
from pfrobenius.oracle import _Budget, _count_grid, _direct_lambda

GRLEX = pf.OrderSpec("grlex")
GREVLEX = pf.OrderSpec("grevlex")


def test_counts_up_to_23():
    S = pf.numerical(2, 3)
    assert pf.oracle_count(S, (0,)) == 1
    assert pf.oracle_count(S, (1,)) == 0
    assert pf.oracle_count(S, (6,)) == 2
    assert pf.oracle_count(S, (8,)) == 2
    assert pf.oracle_count(S, (5,)) == 1


def test_counts_match_factorization_module():
    rng = random.Random(19)
    for _ in range(10):
        q = rng.choice([1, 2])
        S = random_finite_semigroup(rng, q)
        bound = rng.randint(5, 18)
        for n in itertools.product(range(bound + 1), repeat=q):
            if sum(n) > bound:
                continue
            c = pf.oracle_count(S, n)
            if c == 0:
                assert not pf.contains(S, n)
            else:
                assert pf.count_capped(S, n, c + 1) == c


def test_oracle_count_checks_point(example_S):
    with pytest.raises(pf.ValidationError):
        pf.oracle_count(example_S, (4,))
    with pytest.raises(pf.ValidationError):
        pf.oracle_count(example_S, (4, -1))
    with pytest.raises(pf.OracleBudgetError):
        pf.oracle_count(example_S, (9, 6), budget_seconds=-1.0)
    assert pf.oracle_count(example_S, (9, 6)) == 3


def test_oracle_f1_23():
    report = pf.oracle_fp(pf.numerical(2, 3), 1, GRLEX)
    assert report.result == pf.FrobeniusResult.finite((7,))
    assert report.scanned_bound >= 7
    assert report.certificate


def test_oracle_f2_23():
    assert pf.oracle_fp(pf.numerical(2, 3), 2, GRLEX).result.point == (13,)


def test_oracle_f0():
    assert pf.oracle_fp(pf.numerical(6, 7, 8), 0).result.point == (17,)
    assert pf.oracle_fp(pf.numerical(1, 5), 0).result.point == (-1,)
    assert pf.oracle_fp(pf.numerical(4, 6, 101), 0).result.point == (103,)
    assert f0_certified((4, 6, 101), 103)
    with pytest.raises(pf.ValidationError):
        pf.oracle_fp(pf.numerical(2, 4), 0)


def test_oracle_rejects_infinite_case():
    S = pf.minimalize_generators([(0, 1), (1, 1), (2, 0), (3, 0)])
    with pytest.raises(pf.ValidationError):
        pf.oracle_fp(S, 1, GRLEX)


def test_oracle_agrees_with_main_pipeline():
    rng = random.Random(29)
    for _ in range(8):
        q = rng.choice([1, 2])
        S = random_finite_semigroup(rng, q)
        for p in (1, 2, 3, 4) if q == 1 else (1, 2):
            assert pf.oracle_fp(S, p, GRLEX).result == pf.fp_general(S, p, GRLEX)
    for _ in range(6):
        S = random_finite_semigroup(rng, 3)
        assert pf.oracle_fp(S, 1, GRLEX).result == pf.fp_general(S, 1, GRLEX), S


def test_oracle_agrees_with_main_pipeline_grevlex():
    # fp_general scans grevlex on the toric engine's revlex basis, not on a
    # grevlex one, so the grevlex answers get their own draws
    rng = random.Random(41)
    for i in range(12):
        q = i % 3 + 1
        S = random_finite_semigroup(rng, q)
        for p in {1: (1, 2, 3), 2: (1, 2), 3: (1,)}[q]:
            assert pf.oracle_fp(S, p, GREVLEX).result == pf.fp_general(S, p, GREVLEX), (S, p)


def test_oracle_both_orders(example_S):
    for kind in ("grlex", "grevlex"):
        order = pf.OrderSpec(kind)
        assert pf.oracle_fp(example_S, 1, order).result == pf.fp_general(
            example_S, 1, order
        )


def test_budget_error(example_S):
    with pytest.raises(pf.OracleBudgetError):
        pf.oracle_fp(example_S, 2, GRLEX, budget_seconds=0.0)


def test_budget_generous_succeeds():
    report = pf.oracle_fp(pf.numerical(3, 4), 1, GRLEX, budget_seconds=30.0)
    assert report.result.point == (17,)


def _pointwise_counts(generators, maxes):
    """#Z_n over the box [0, maxes], one point at a time, in row-major order
    (n - a comes before n)."""
    box = list(itertools.product(*(range(m + 1) for m in maxes)))
    ways = {n: int(not any(n)) for n in box}
    for a in generators:
        for n in box:
            prev = tuple(c - d for c, d in zip(n, a))
            if min(prev) >= 0:
                ways[n] += ways[prev]
    return [ways[n] for n in box]


def test_count_grid_matches_pointwise_recurrence():
    rng = random.Random(8)
    seen = set()
    for i in range(60):
        q = i % 3 + 1
        maxes = [rng.randint(0, (40, 15, 6)[q - 1]) for _ in range(q)]
        if rng.random() < 0.3:
            maxes[rng.randrange(q)] = 0
        h = rng.randint(1, 4)
        gens = []
        while len(gens) < h:
            g = tuple(rng.randint(0, 7) for _ in range(q))
            if any(g):
                gens.append(g)
        ways, strides = _count_grid(gens, tuple(maxes))
        assert ways == _pointwise_counts(gens, maxes), (gens, maxes)
        assert strides[-1] == 1
        assert all(s == t * (m + 1) for s, t, m in zip(strides, strides[1:], maxes[1:]))
        seen.update(
            ("zero coordinate" for g in gens if 0 in g),
            ("exceeds maxes" for g in gens if any(c > m for c, m in zip(g, maxes))),
            ("zero in maxes" for m in maxes if m == 0),
        )
    assert seen == {"zero coordinate", "exceeds maxes", "zero in maxes"}


def test_direct_lambda_matches_linear_search():
    # the smallest lam with lam * a_k a sum of the other generators, trying
    # lam = 1, 2, ... and counting the top corner of a box up to lam * a_k
    rng = random.Random(31)
    for i in range(18):
        S = random_finite_semigroup(rng, i % 3 + 1)
        linear = []
        for k, a in enumerate(S.generators):
            others = S.generators[:k] + S.generators[k + 1 :]
            lam = 1
            while _pointwise_counts(others, tuple(lam * c for c in a))[-1] == 0:
                lam += 1
            linear.append(lam)
        assert _direct_lambda(S) == tuple(linear), S


def test_direct_lambda_budget_error(example_S):
    with pytest.raises(pf.OracleBudgetError):
        _direct_lambda(example_S, budget=_Budget(-1.0))
