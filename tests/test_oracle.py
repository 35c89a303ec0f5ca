from __future__ import annotations

import ast
import itertools
import random
from math import gcd
from operator import le
from pathlib import Path

import pytest

import pfrobenius as pf
from conftest import criterion6_gluings, f0_certified, random_finite_semigroup
from pfrobenius.core import checked
from pfrobenius.oracle import _Budget, _count_grid, _direct_lambda

GRLEX = pf.OrderSpec("grlex")
GREVLEX = pf.OrderSpec("grevlex")


def reference_direct_lambda(S: pf.Semigroup, cap=10_000, budget=_Budget(None)) -> tuple[int, ...]:
    """The multiplier search before the support projection and the ray start:
    one grid of all other generators up to top*a_k, top = 1, 2, 4, ..."""
    out = []
    for k, a in enumerate(S.generators):
        others = [g for i, g in enumerate(S.generators) if i != k]
        top, hit = 1, None
        while hit is None:
            grid_top = tuple(checked(top * c) for c in a)
            ways, strides = _count_grid(others, grid_top, budget)
            step = sum(c * s for c, s in zip(a, strides))
            hit = next((j for j in range(1, top + 1) if ways[j * step]), None)
            if hit is None and top == cap:
                raise RuntimeError(f"no own-free multiple of generator {k} up to {cap}")
            top = min(2 * top, cap)
        out.append(hit)
    return tuple(out)


def reference_oracle_fp(S: pf.Semigroup, p: int, order: pf.OrderSpec) -> pf.FrobeniusResult:
    """F_p(S), p >= 1, the way the oracle found it before the tight box: one
    grid up to sum(p*lam_i*a_i), read only at the candidate set
    {sum(gamma_i a_i) : 0 <= gamma_i <= p*lam_i}."""
    budget = _Budget(None)
    lam = reference_direct_lambda(S, budget=budget)
    # every term is non-negative, so the top corner bounds every candidate
    corner = (sum(p * b * a[j] for b, a in zip(lam, S.generators)) for j in range(S.q))
    maxes = tuple(map(checked, corner))
    ways, strides = _count_grid(S.generators, maxes, budget=budget)
    candidates = {0}  # flat indices of sum(gamma_i a_i), 0 <= gamma_i <= p*lambda_i
    for b, a in zip(lam, S.generators):
        step = sum(c * s for c, s in zip(a, strides))
        candidates = {c + j * step for c in candidates for j in range(p * b + 1)}
    budget.check()
    hits = [tuple(i // s % (m + 1) for s, m in zip(strides, maxes))
            for i in candidates if 0 < ways[i] <= p]
    if not hits:
        raise RuntimeError("no candidate qualified; inconsistent bounds")
    return pf.FrobeniusResult.finite(max(hits, key=order.key))


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


def _parallel_draw(rng: random.Random, q: int) -> pf.Semigroup:
    """A finite-F_p semigroup with two generators of different gcd on one ray
    off the axes: two generators on each axis, g1*d and g2*d for a primitive
    d with at least two nonzero coordinates, and maybe one more generator."""
    while True:
        gens = [tuple(v if i == j else 0 for i in range(q)) for j in range(q) for v in rng.sample(range(2, 6), 2)]
        support = rng.sample(range(q), rng.randint(2, q))
        d = [rng.randint(1, 3) if j in support else 0 for j in range(q)]
        d = tuple(c // gcd(*d) for c in d)
        ray = [tuple(g * c for c in d) for g in rng.sample(range(1, 5), 2)]
        gens += ray
        if rng.random() < 0.5:
            gens.append(tuple(rng.randint(0, 4) for _ in range(q)))
        S = pf.minimalize_generators([g for g in gens if any(g)], q)
        if set(ray) <= set(S.generators) and pf.is_fp_finite(S):
            return S


def test_direct_lambda_matches_linear_search():
    # the smallest lam with lam * a_k a sum of the other generators, trying
    # lam = 1, 2, ... and counting the top corner of a box up to lam * a_k;
    # the parallel draws start the search at a ray multiplier off the axes
    rng = random.Random(31)
    draws = [random_finite_semigroup(rng, i % 3 + 1) for i in range(18)]
    draws += [_parallel_draw(rng, i % 2 + 2) for i in range(18)]
    for S in draws:
        linear = []
        for k, a in enumerate(S.generators):
            others = S.generators[:k] + S.generators[k + 1 :]
            lam = 1
            while _pointwise_counts(others, tuple(lam * c for c in a))[-1] == 0:
                lam += 1
            linear.append(lam)
        assert _direct_lambda(S) == tuple(linear), S


def test_direct_lambda_one_grid_per_paired_generator(monkeypatch):
    # a generator with another on its ray starts at a multiplier that ray
    # guarantees, so its first grid holds the hit: here every generator has one
    grids = []

    def counted(*args):
        grids.append(args[1])
        return _count_grid(*args)

    monkeypatch.setattr(pf.oracle, "_count_grid", counted)
    rng = random.Random(37)
    draws = [random_finite_semigroup(rng, 1) for _ in range(10)]
    draws += [
        pf.Semigroup(2, ((7, 0), (4, 0), (0, 6), (0, 7), (3, 6), (4, 8))),
        pf.Semigroup(3, ((7, 0, 0), (6, 0, 0), (0, 7, 0), (0, 4, 0), (0, 0, 5), (0, 0, 7), (10, 10, 5), (4, 4, 2))),
        pf.Semigroup(3, ((3, 0, 0), (7, 0, 0), (0, 5, 0), (0, 6, 0), (0, 0, 5), (0, 0, 6), (4, 8, 4), (5, 10, 5))),
    ]
    for S in draws:
        assert pf.minimalize_generators(S.generators) == S
        grids.clear()
        _direct_lambda.cache_clear()
        lam = _direct_lambda(S)
        assert len(grids) == S.h, S
        assert lam == reference_direct_lambda(S)
        # each grid spans only its generator's support
        assert [len(m) for m in grids] == [sum(map(bool, a)) for a in S.generators]


def test_direct_lambda_budget_error(example_S):
    with pytest.raises(pf.OracleBudgetError):
        _direct_lambda(example_S, budget=_Budget(-1.0))


def test_oracle_multipliers_once_per_semigroup(example_S, monkeypatch):
    # the multipliers do not depend on p: a second call on S at another p
    # counts only the grid of its box
    grids = []

    def counted(*args, **kwargs):
        grids.append(args[1])
        return _count_grid(*args, **kwargs)

    monkeypatch.setattr(pf.oracle, "_count_grid", counted)
    _direct_lambda.cache_clear()
    assert pf.oracle_fp(example_S, 1).result == reference_oracle_fp(example_S, 1, GRLEX)
    assert len(grids) > 1
    grids.clear()
    assert pf.oracle_fp(example_S, 2, GREVLEX).result == reference_oracle_fp(example_S, 2, GREVLEX)
    assert len(grids) == 1


def test_oracle_budget_error_caches_nothing(example_S):
    _direct_lambda.cache_clear()
    with pytest.raises(pf.OracleBudgetError):
        pf.oracle_fp(example_S, 1, budget_seconds=-1.0)
    assert _direct_lambda.cache_info().currsize == 0
    # the next call, without a budget, computes the multipliers afresh
    assert pf.oracle_fp(example_S, 1).result == reference_oracle_fp(example_S, 1, GRLEX)
    assert _direct_lambda(example_S) == reference_direct_lambda(example_S)


def test_oracle_matches_reference():
    # the tight box, the whole-grid read and the ray start of the multiplier
    # search give the answers of the candidate-set oracle
    rng = random.Random(59)
    for i in range(300):
        # 165 numerical draws at p = 1, 2, 3; 120 planar ones, 15 of them at
        # p = 3; 15 with q = 3, one of them at p = 2
        slot = i % 20
        if slot < 11:
            q, ps = 1, (1, 2, 3)
        elif slot < 19:
            q, ps = 2, ((1, 1, 2, 1, 2, 1, 2, 3)[slot - 11],)
        else:
            q, ps = 3, (1 + (i == 19),)
        S = random_finite_semigroup(rng, q)
        assert _direct_lambda(S) == reference_direct_lambda(S), S
        for p in ps:
            for order in (GRLEX, GREVLEX):
                assert pf.oracle_fp(S, p, order).result == reference_oracle_fp(S, p, order), (S, p, order)


def test_oracle_matches_reference_on_gluings():
    for S, spec in criterion6_gluings(random.Random(6)):
        glued = pf.glue(S, spec)
        for p in (1, 2) if S.q == 1 else (1,):
            for order in (GRLEX, GREVLEX):
                assert pf.oracle_fp(glued, p, order).result == reference_oracle_fp(glued, p, order), (glued, p)


def test_few_factorizations_lie_in_tight_box():
    # a factorization gamma with gamma_i >= p*lam_i gives p + 1 of them, so
    # every n with 1 <= #Z_n <= p lies within sum((p*lam_i - 1)*a_i); the
    # counts run over the box up to twice that corner
    rng = random.Random(53)
    for i in range(36):
        q = i % 3 + 1
        S = random_finite_semigroup(rng, q)
        lam = _direct_lambda(S)
        for p in (1, 2, 3) if q < 3 else (1,):
            corner = tuple(sum((p * b - 1) * a[j] for b, a in zip(lam, S.generators)) for j in range(q))
            maxes = tuple(2 * c for c in corner)
            ways, strides = _count_grid(S.generators, maxes)
            for idx, w in enumerate(ways):
                if 1 <= w <= p:
                    n = tuple(idx // s % (m + 1) for s, m in zip(strides, maxes))
                    assert all(map(le, n, corner)), (S, p, n)


def test_oracle_imports_no_engine():
    # the oracle is the independent reference: the domain types and the cone
    # gate only, no Groebner, F_p or factorization code
    tree = ast.parse(Path(pf.oracle.__file__).read_text(encoding="utf-8"))
    relative, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            relative.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom):
            absolute.add(node.module)
        elif isinstance(node, ast.Import):
            absolute.update(a.name for a in node.names)
    assert relative == {"core", "cone"}
    assert not any(m.split(".")[0] == "pfrobenius" for m in absolute)
