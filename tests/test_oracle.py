from __future__ import annotations

import random

import pytest

import pfrobenius as pf
from conftest import f0_certified, random_finite_semigroup

GRLEX = pf.OrderSpec("grlex")


def test_counts_up_to_23():
    counts = pf.oracle_counts_up_to(pf.numerical(2, 3), 8)
    assert counts[(0,)] == 1
    assert counts[(1,)] == 0
    assert counts[(6,)] == 2
    assert counts[(8,)] == 2
    assert counts[(5,)] == 1


def test_counts_match_factorization_module():
    rng = random.Random(19)
    for _ in range(10):
        q = rng.choice([1, 2])
        S = random_finite_semigroup(rng, q)
        bound = rng.randint(5, 18)
        for n, c in pf.oracle_counts_up_to(S, bound).items():
            if c == 0:
                assert not pf.contains(S, n)
            else:
                assert pf.count_capped(S, n, c + 1) == c


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
        # the exhaustive p >= 2 box gets big in dimension 2; keep that to q = 1
        for p in (1, 2, 3) if q == 1 else (1,):
            assert pf.oracle_fp(S, p, GRLEX).result == pf.fp_general(S, p, GRLEX)


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
