from __future__ import annotations

import ast
import importlib.util
import itertools
import random
import tracemalloc
from collections import Counter
from math import gcd, prod
from operator import le
from pathlib import Path

import pytest

import pfrobenius as pf
from conftest import (
    EXAMPLE_GENS, Q3, criterion6_gluings, f0_certified, grid_counts, pack_rows, random_finite_semigroup,
    random_offaxis_semigroup, unpack_rows,
)
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
            ways, strides = grid_counts(others, grid_top, budget)
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
    ways, strides = grid_counts(S.generators, maxes, budget)
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
    report = pf.oracle_fp(pf.numerical(2, 4), 0)
    assert report.result == pf.INFINITE
    assert report.certificate == "every generator is a multiple of 2"
    with pytest.raises(pf.UnsupportedError, match="p = 0 needs q = 1"):
        pf.oracle_fp(pf.Semigroup(2, ((2, 0), (3, 0), (0, 2), (0, 3))), 0)


def test_oracle_rejects_non_int_p():
    S = pf.numerical(3, 5)
    for p in (1.5, True, "1"):
        with pytest.raises(pf.ValidationError):
            pf.oracle_fp(S, p)


def test_oracle_rejects_infinite_case():
    # answered, not raised: the ray (0, 1) carries (0, 1) alone
    S = pf.minimalize_generators([(0, 1), (1, 1), (2, 0), (3, 0)])
    report = pf.oracle_fp(S, 1, GRLEX)
    assert report.result == pf.INFINITE
    assert report.certificate == "the extremal ray (0, 1) carries only one generator"


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


def test_budget_must_be_a_number():
    # NaN never expires, "1" fails deep inside, and True is no number of seconds
    S = pf.numerical(3, 4)
    for budget in (float("nan"), "1", True):
        with pytest.raises(pf.ValidationError, match="budget_seconds"):
            pf.oracle_fp(S, 1, budget_seconds=budget)
        with pytest.raises(pf.ValidationError, match="budget_seconds"):
            pf.oracle_count(S, (7,), budget_seconds=budget)
    # an int counts, and an infinite budget is no limit
    for budget in (30, float("inf")):
        assert pf.oracle_fp(S, 1, budget_seconds=budget).result.point == (17,)


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
        rows, bits, strides = _count_grid(gens, tuple(maxes))
        ways = unpack_rows(rows, bits, maxes[-1] + 1)
        assert ways == _pointwise_counts(gens, maxes), (gens, maxes)
        # one row per point of the other coordinates, and a spare top bit
        assert len(rows) == len(ways) // (maxes[-1] + 1)
        assert strides[-1:] in ([], [1])
        assert all(s == t * (m + 1) for s, t, m in zip(strides, strides[1:], maxes[1:-1]))
        assert max(ways) < 1 << bits - 1
        seen.update(
            ("zero coordinate" for g in gens if 0 in g),
            ("exceeds maxes" for g in gens if any(c > m for c, m in zip(g, maxes))),
            ("zero in maxes" for m in maxes if m == 0),
        )
    assert seen == {"zero coordinate", "exceeds maxes", "zero in maxes"}
    # counts that need 1-, 2-, 4-, 8- and 16-byte fields on a line at q = 1,
    # and in the rows of a grid with generators off the last axis at q = 2
    # and q = 3; at top = 2000 every grid's fields are 16 bytes wide
    widths = set()
    for steps, top in (((3, 5), 40), ((1, 2, 3), 60), ((1, 2, 3, 4), 250), (range(1, 9), 400), (range(1, 13), 2000)):
        line, _ = grid_counts([(c,) for c in steps], (top,))
        assert line == _pointwise_counts([(c,) for c in steps], (top,))
        # the bytes its largest count needs, rounded up to a power of two
        widths.add(1 << ((max(line).bit_length() + 7) // 8 - 1).bit_length())
        gens = [(c, 0) for c in steps] + [(0, 2), (1, 1)]
        assert grid_counts(gens, (top, 2))[0] == _pointwise_counts(gens, (top, 2)), gens
        gens = [(c, 0, 0) for c in steps] + [(0, 1, 0), (0, 0, 1), (1, 1, 1)]
        assert grid_counts(gens, (top, 2, 2))[0] == _pointwise_counts(gens, (top, 2, 2)), gens
    assert widths == {1, 2, 4, 8, 16}


def test_oracle_count_needs_wide_fields():
    # the README's 22-digit count: a line whose fields need more than 8 bytes
    assert pf.oracle_count(pf.numerical(*range(10, 20)), (20000,)) == 4348220030937770017981


def test_oracle_q3_memory():
    # the box of Q3 at p = 2 (about 2.5 million points) is read in place as
    # packed rows; a flat list of its counts took the traced peak to 43 MB
    S = pf.Semigroup(3, Q3)
    _direct_lambda.cache_clear()
    tracemalloc.start()
    try:
        assert pf.oracle_fp(S, 2).result.point == (21, 45, 93)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000, peak


def test_oracle_q3_grid_refused_by_size():
    # each row over [0, 2^20] takes 8 MB, but the grid over the box holds
    # about 2^40 rows: their list is refused by its size, before any memory
    # is touched, and reported as the budget's error
    S = pf.Semigroup(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(pf.OracleBudgetError, match="refused the grid"):
        pf.oracle_count(S, (2**20,) * 3)


def test_count_grid_axis_generators():
    # the generators on the last axis start row 0, and those on the other
    # axes add whole rows: 0, 1 or 2 generators per axis, some beyond maxes,
    # zeros in maxes and off-axis generators mixed in, q = 1-3
    rng = random.Random(12)
    seen = set()
    for i in range(90):
        q = i % 3 + 1
        maxes = [rng.randint(0, (30, 12, 5)[q - 1]) for _ in range(q)]
        if rng.random() < 0.2:
            maxes[rng.randrange(q)] = 0
        gens = [
            tuple(rng.randint(1, maxes[j] + 3) if t == j else 0 for t in range(q))
            for j in range(q)
            for _ in range(rng.randint(0, 2))
        ]
        gens += [tuple(rng.randint(1, 4) for _ in range(q)) for _ in range(rng.randint(0, 2) if q > 1 else 0)]
        rng.shuffle(gens)
        ways, _ = grid_counts(gens, tuple(maxes))
        assert ways == _pointwise_counts(gens, maxes), (gens, maxes)
        axis = [g for g in gens if sum(map(bool, g)) == 1]
        seen.update((q, sum(1 for g in axis if g[j])) for j in range(q))
        seen.update(
            [(q, "beyond maxes") for g in axis if any(c > m for c, m in zip(g, maxes))]
            + [(q, "off-axis") for g in gens if g not in axis]
            + [(q, "zero in maxes") for m in maxes if m == 0]
        )
    shapes = (0, 1, 2, "beyond maxes", "zero in maxes")
    assert seen == {(q, s) for q in (1, 2, 3) for s in shapes} | {(2, "off-axis"), (3, "off-axis")}


def test_count_grid_checks_budget_once_per_generator():
    # before each generator's pass, on or off the axes, fitting the box or not
    class Counting(_Budget):
        calls = 0

        def check(self):
            self.calls += 1

    for gens, maxes in (
        (((3,), (5,), (40,)), (20,)),
        (((2, 0), (0, 3), (1, 1), (9, 9), (0, 7)), (6, 5)),
        (((2, 0, 0), (1, 1, 1), (0, 0, 4), (0, 1, 2)), (3, 0, 3)),
    ):
        budget = Counting(None)
        _count_grid(gens, maxes, budget)
        assert budget.calls == len(gens)


def test_count_grid_on_bench_gluings(monkeypatch, tmp_path):
    # every grid the oracle counts for the 2-D gluings of the glue-verify
    # workload, the multiplier searches' lines included, holds the exact counts
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = workloads.glue_verify(0, tmp_path)
    gluings = {
        (tuple(map(tuple, op["gens"])), op["d"], tuple(op["gamma"]))
        for op in ops
        if op["cmd"] == "glue" and len(op["gamma"]) == 2
    }
    assert len(gluings) == workloads.GLUE_ROUNDS
    grids, wrong = [], []

    def counted(gens, maxes, budget=_Budget(None)):
        # the oracle reads the reference counts, so a wrong grid cannot
        # send a multiplier search past its hit
        rows, bits, strides = _count_grid(gens, maxes, budget)
        want = _pointwise_counts(gens, maxes)
        grids.append(maxes)
        if unpack_rows(rows, bits, maxes[-1] + 1) != want:
            wrong.append((gens, maxes))
        return pack_rows(want, bits, maxes[-1] + 1), bits, strides

    monkeypatch.setattr(pf.oracle, "_count_grid", counted)
    _direct_lambda.cache_clear()
    for gens, d, gamma in gluings:
        pf.oracle_fp(pf.glue(pf.Semigroup(2, gens), pf.GluingSpec(d, gamma)), 1)
    # each gluing's box and its multiplier search's grid, and a second grid
    # for the 13 whose off-axis lambda passes its first top of 2; every axis
    # carries two generators, whose lambda needs no line
    assert sum(len(maxes) == 2 for maxes in grids) == 2 * len(gluings) + 13
    assert sum(len(maxes) == 1 for maxes in grids) == 0
    assert wrong == []


def _linear_lambda(S: pf.Semigroup, ks=None) -> tuple[int, ...]:
    """The multipliers of the generators ks (all if None) by a linear search:
    the least lam >= 1 with lam * a_k a sum of the other generators, by the
    top corner of the pointwise counts up to lam * a_k."""
    lam = []
    for k in range(S.h) if ks is None else ks:
        a, others = S.generators[k], S.generators[:k] + S.generators[k + 1 :]
        j = 1
        while _pointwise_counts(others, tuple(j * c for c in a))[-1] == 0:
            j += 1
        lam.append(j)
    return tuple(lam)


def _first_points(q: int, k: int) -> list[tuple[int, ...]]:
    """The first k nonzero points of N^q, by degree, then lexicographically."""
    out, d = [], 0
    while len(out) < k:
        d += 1
        out += sorted(n for n in itertools.product(range(d + 1), repeat=q) if sum(n) == d)
    return out[:k]


def _count_bound(gens, maxes) -> int:
    """The bound on every count of a grid that _count_grid's docstring proves:
    the product of the ranges of all generators but the one with the largest."""
    return prod(sorted(min(m // c for c, m in zip(a, maxes) if c) + 1 for a in gens)[:-1])


# (q, field bits, k, maxes): the first k points of N^q counted over [0, maxes]
# have a count bound within 1/32 below 2^(bits - 1)
EDGE_GRIDS = [
    (1, 8, 2, (252,)), (1, 16, 3, (441,)), (1, 64, 8, (2326,)), (1, 128, 19, (1177,)),
    (2, 8, 5, (2, 12)), (2, 16, 4, (32, 58)), (2, 64, 17, (25, 58)), (2, 128, 35, (44, 45)),
    (3, 8, 5, (1, 2, 12)), (3, 16, 12, (1, 4, 4)), (3, 64, 27, (8, 9, 10)), (3, 128, 99, (4, 5, 10)),
]


def test_field_tests_at_width_edges():
    # each count bound falls just under 2^(bits-1), so one more count would
    # take the spare top bit: the field tests mark exactly the fields that
    # hold 1 to p, and 0, for p at a count and one below it (counts equal to
    # p and to p + 1) and for p >= 2^(bits-1), where no count exceeds p
    for q, bits, k, maxes in EDGE_GRIDS:
        gens = _first_points(q, k)
        top = 1 << bits - 1
        assert top - top // 32 <= _count_bound(gens, maxes) < top, (q, bits)
        rows, got_bits, _ = _count_grid(gens, maxes)
        assert got_bits == bits, (q, bits)
        width = maxes[-1] + 1
        ways = _pointwise_counts(gens, maxes)
        assert unpack_rows(rows, bits, width) == ways, (q, bits)
        cells = [ways[r : r + width] for r in range(0, len(ways), width)]
        big = max(ways)
        mid = sorted(set(ways))[len(set(ways)) // 2]
        for p in (1, big, big - 1, mid, mid - 1, top - 2, top - 1, top, 2 * top):
            low, over, high = pf.oracle._fields(bits, width, p)
            for row, counts in zip(rows, cells):
                marked = (row + low) & ~(row + over) & high
                assert marked == sum(1 << bits * i + bits - 1 for i, w in enumerate(counts) if 1 <= w <= p)
                assert ~(row + low) & high == sum(1 << bits * i + bits - 1 for i, w in enumerate(counts) if not w)
        assert pf.oracle_count(pf.Semigroup(q, gens), maxes) == ways[-1], (q, bits)
    # one point further, the top count of the line of 1 and 2 reaches 2^7,
    # so its fields are 16 bits wide, and the top bit of each stays spare
    rows, bits, _ = _count_grid([(1,), (2,)], (254,))
    assert bits == 16 and rows[0] >> 16 * 254 == 128


def test_oracle_readers_at_each_field_width(monkeypatch):
    # F_p, F_0 and the multipliers, read in place off grids of 8-, 16-, 64-
    # and 128-bit fields, equal the answers of the pointwise counts: lam by
    # a linear search, F_p as the order-maximum of the box's points with 1
    # to p factorizations, F_0 as the last zero up to the Schur bound.  p
    # itself stays below every count bound of the box, which holds each
    # generator's range p*lam_i >= 2p, so p >= 2^(bits-1) is left to the
    # edge test.  An axis with two generators needs no line, so each width of
    # the lambda line is met on a set of three or more
    seen, calls = set(), []

    def spied(gens, maxes, budget=_Budget(None)):
        rows, bits, strides = _count_grid(gens, maxes, budget)
        calls.append(bits)
        return rows, bits, strides

    monkeypatch.setattr(pf.oracle, "_count_grid", spied)
    example = pf.minimalize_generators(EXAMPLE_GENS)
    q3 = pf.Semigroup(3, ((2, 0, 0), (3, 0, 0), (0, 2, 0), (0, 3, 0), (0, 0, 5), (0, 0, 4), (3, 2, 3)))
    for S, ps in (
        (pf.numerical(2, 3), (1, 2)), (pf.numerical(3, 4, 5), (1,)), (pf.numerical(*range(5, 10)), (1,)),
        (pf.numerical(*range(6, 12)), ()),
        (pf.numerical(*range(10, 20)), (1,)), (pf.numerical(*range(20, 40)), (1,)), (example, (1, 2)), (q3, (1,)),
    ):
        lam = _linear_lambda(S)
        calls = []
        _direct_lambda.cache_clear()
        assert _direct_lambda(S, _Budget(None)) == lam, S
        seen.update((S.q, "lambda", bits) for bits in calls)
        for p in ps:
            maxes = pf.s_degree(S, [p * b - 1 for b in lam])
            box = itertools.product(*(range(m + 1) for m in maxes))
            hits = [n for n, w in zip(box, _pointwise_counts(S.generators, maxes)) if 1 <= w <= p]
            for order in (GRLEX, GREVLEX):
                calls = []
                report = pf.oracle_fp(S, p, order)
                assert report.result.point == max(hits, key=order.key), (S, p, order)
                assert report.scanned_bound == sum(maxes)
                seen.add((S.q, "F_p", calls[-1]))
        if S.q == 1:
            values = sorted(a for a, in S.generators)
            bound = (values[0] - 1) * (values[-1] - 1) - 1
            calls = []
            f0 = pf.oracle_fp(S, 0).result.point
            ways = _pointwise_counts(S.generators, (bound,))
            assert f0 == (bound - ways[::-1].index(0),) and f0_certified(values, f0[0]), S
            seen.add((1, "F_0", calls[-1]))
    assert {(1, reader, bits) for reader in ("lambda", "F_p", "F_0") for bits in (8, 16, 64, 128)} <= seen
    assert {(2, "F_p", 16), (2, "F_p", 32), (3, "lambda", 16), (3, "F_p", 32)} <= seen


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
        assert _direct_lambda(S, _Budget(None)) == _linear_lambda(S), S


def test_direct_lambda_closed_form_on_two_generator_axes(monkeypatch):
    # a generator on an axis that carries only one other has lam = top, with
    # no line; on 2100 seeded draws (q = 1-3) those multipliers equal the
    # linear search's, and every other generator keeps its grid: at q = 1
    # two generators, at q = 2 and 3 two on every axis and a grid only for
    # the generators off the axes
    grids = []

    def counted(gens, maxes, budget):
        grids.append(maxes)
        return _count_grid(gens, maxes, budget)

    monkeypatch.setattr(pf.oracle, "_count_grid", counted)
    rng = random.Random(41)
    draws = 0
    while draws < 2100:
        q = draws % 3 + 1
        if q == 1:
            a, b = rng.sample(range(2, 13), 2)
            if a % b == 0 or b % a == 0:
                continue
            S = pf.numerical(a, b)
        else:
            S = random_finite_semigroup(rng, q)
        paired = [k for j in range(q) if len(ks := [k for k, a in enumerate(S.generators) if a[j] == sum(a)]) == 2
                  for k in ks]
        assert len(paired) == 2 * q, S
        _direct_lambda.cache_clear()
        lam = _direct_lambda(S, _Budget(None))
        assert tuple(lam[k] for k in paired) == _linear_lambda(S, paired), S
        draws += 1
    assert grids and not any(len(maxes) == 1 for maxes in grids)


def test_direct_lambda_one_grid_per_paired_generator(monkeypatch):
    # every generator here has another on its ray, so its top holds the hit:
    # lam costs one line (a one-dimensional grid) of the steps of each axis
    # that carries three or more generators, none for an axis with two, and
    # one shared grid for the generators off the axes, if there are any
    counts, lines = [], 0

    def grid(gens, maxes, budget):
        counts.append(tuple(c for c, in gens) if len(maxes) == 1 else gens)
        return _count_grid(gens, maxes, budget)

    monkeypatch.setattr(pf.oracle, "_count_grid", grid)
    rng = random.Random(37)
    draws = [random_finite_semigroup(rng, 1) for _ in range(10)]
    draws += [
        pf.Semigroup(2, ((7, 0), (4, 0), (0, 6), (0, 7), (3, 6), (4, 8))),
        pf.Semigroup(3, ((7, 0, 0), (6, 0, 0), (0, 7, 0), (0, 4, 0), (0, 0, 5), (0, 0, 7), (10, 10, 5), (4, 4, 2))),
        pf.Semigroup(3, ((3, 0, 0), (7, 0, 0), (0, 5, 0), (0, 6, 0), (0, 0, 5), (0, 0, 6), (4, 8, 4), (5, 10, 5))),
    ]
    for S in draws:
        assert pf.minimalize_generators(S.generators) == S
        counts.clear()
        _direct_lambda.cache_clear()
        lam = _direct_lambda(S, _Budget(None))
        axes = [tuple(a[j] for a in S.generators if a[j] == sum(a)) for j in range(S.q)]
        off_axis = any(max(a) < sum(a) for a in S.generators)
        assert counts == [steps for steps in axes if len(steps) > 2] + [S.generators] * off_axis, S
        assert lam == reference_direct_lambda(S)
        lines += sum(len(steps) > 2 for steps in axes)
    assert lines == 4  # the numerical draws with three or four generators


def test_direct_lambda_budget_error(example_S):
    # an earlier test may have cached the running example's multipliers
    _direct_lambda.cache_clear()
    with pytest.raises(pf.OracleBudgetError):
        _direct_lambda(example_S, _Budget(-1.0))


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
    # every caller passes the budget positionally, so a direct call with
    # another budget finds the same cache entry
    _direct_lambda(example_S, _Budget(None))
    assert _direct_lambda.cache_info().misses == 1


def test_oracle_budget_error_caches_nothing(example_S):
    _direct_lambda.cache_clear()
    with pytest.raises(pf.OracleBudgetError):
        pf.oracle_fp(example_S, 1, budget_seconds=-1.0)
    assert _direct_lambda.cache_info().currsize == 0
    # the next call, without a budget, computes the multipliers afresh
    assert pf.oracle_fp(example_S, 1).result == reference_oracle_fp(example_S, 1, GRLEX)
    assert _direct_lambda(example_S, _Budget(None)) == reference_direct_lambda(example_S)


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
        assert _direct_lambda(S, _Budget(None)) == reference_direct_lambda(S), S
        for p in ps:
            for order in (GRLEX, GREVLEX):
                assert pf.oracle_fp(S, p, order).result == reference_oracle_fp(S, p, order), (S, p, order)


def test_oracle_matches_reference_on_gluings():
    for S, spec in criterion6_gluings(random.Random(6)):
        glued = pf.glue(S, spec)
        for p in (1, 2) if S.q == 1 else (1,):
            for order in (GRLEX, GREVLEX):
                assert pf.oracle_fp(glued, p, order).result == reference_oracle_fp(glued, p, order), (glued, p)


def test_oracle_scan_picks_order_maximum(monkeypatch):
    # the rows read from the top degree down give the order-maximum of every
    # point with 0 < #Z_n <= p, on made-up counts over the box of p = 1: a few
    # qualifying points share one degree level, one of them at the end of its
    # row where one is, and no point above that level qualifies
    rng = random.Random(61)
    cases = []
    for gens in (((2, 0, 0), (3, 0, 0), (0, 2, 0), (0, 3, 0), (0, 0, 2), (0, 0, 3), (1, 2, 1)), EXAMPLE_GENS):
        S = pf.minimalize_generators(gens)
        pf.oracle_fp(S, 1)  # caches lam on the true counts, before any is made up
        maxes = pf.s_degree(S, [b - 1 for b in _direct_lambda(S, _Budget(None))])
        cases.append((S, maxes, *_count_grid(S.generators, maxes)[1:]))
    misses = _direct_lambda.cache_info().misses
    for S, maxes, bits, strides in cases:
        box = list(itertools.product(*(range(m + 1) for m in maxes)))
        with monkeypatch.context() as patch:
            for _ in range(40):
                d = rng.randrange(sum(maxes) + 1)
                level = [n for n in box if sum(n) == d]
                ends = [n for n in level if n[-1] == maxes[-1]]
                picked = set(rng.sample(level, min(len(level), rng.randint(1, 3))) + ends[-1:])
                ways = [1 if n in picked else rng.choice((0, 2, 3) if sum(n) >= d else (0, 1, 2)) for n in box]
                rows = pack_rows(ways, bits, maxes[-1] + 1)
                patch.setattr(pf.oracle, "_count_grid", lambda *args, **kwargs: (rows, bits, strides))
                for order in (GRLEX, GREVLEX):
                    assert pf.oracle_fp(S, 1, order).result.point == max(picked, key=order.key), (S, d, order)
            # no multiplier was counted through the made-up grid
            assert _direct_lambda.cache_info().misses == misses, S


def test_few_factorizations_lie_in_tight_box():
    # a factorization gamma with gamma_i >= p*lam_i gives p + 1 of them, so
    # every n with 1 <= #Z_n <= p lies within sum((p*lam_i - 1)*a_i); the
    # counts run over the box up to twice that corner
    rng = random.Random(53)
    for i in range(36):
        q = i % 3 + 1
        S = random_finite_semigroup(rng, q)
        lam = _direct_lambda(S, _Budget(None))
        for p in (1, 2, 3) if q < 3 else (1,):
            corner = tuple(sum((p * b - 1) * a[j] for b, a in zip(lam, S.generators)) for j in range(q))
            maxes = tuple(2 * c for c in corner)
            ways, strides = grid_counts(S.generators, maxes)
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


def oracle_differential(draws: int, seed: int = 0) -> Counter:
    """The oracle against its independent references on `draws` seeded draws,
    taken in turn from ``random_finite_semigroup`` at q = 1, 2 and 3,
    ``random_offaxis_semigroup``, and numerical sets of two and of three to
    five generators in [2, 20]: on each, ``_direct_lambda`` must equal the
    linear search, and at p = 1..3 under both orders ``oracle_fp`` must give
    ``reference_oracle_fp``'s F_p; at q = 3 only p = 1 runs the reference,
    whose grid over the whole candidate box takes 0.3 to 1.4 s per draw at
    p = 2 and 3, and there the oracle must give ``fp_general``'s F_p.  At
    p = 0 a numerical F_0 must pass ``f0_certified``, or be infinite where
    the generators share a factor, and q >= 2 must be refused.  Returns how
    many of each were checked."""
    rng = random.Random(seed)
    seen = Counter()
    while seen["draws"] < draws:
        kind = seen["draws"] % 6
        if kind < 3:
            S = random_finite_semigroup(rng, kind + 1)
        elif kind == 3:
            S = random_offaxis_semigroup(rng)
        else:  # drawn again until minimalization leaves two, or three or more
            S = pf.numerical(*rng.sample(range(2, 21), 2 if kind == 4 else rng.randint(3, 5)))
            if (S.h == 2) != (kind == 4) or S.h < 2:
                continue
        seen["draws"] += 1
        seen[f"q = {S.q}, h = {S.h}" if S.q == 1 else f"q = {S.q}"] += 1
        _direct_lambda.cache_clear()
        if pf.is_fp_finite(S):
            assert _direct_lambda(S, _Budget(None)) == _linear_lambda(S), S
            seen["lambda"] += 1
        for p in (0, 1, 2, 3):
            for order in (GRLEX, GREVLEX):
                if p == 0 and S.q > 1:
                    with pytest.raises(pf.UnsupportedError):
                        pf.oracle_fp(S, 0, order)
                    continue
                got = pf.oracle_fp(S, p, order).result
                if p == 0:
                    values = [a for a, in S.generators]
                    assert got == pf.INFINITE if gcd(*values) > 1 else f0_certified(values, got.point[0]), S
                elif S.q == 3 and p > 1:
                    assert got == pf.fp_general(S, p, order), (S, p, order)
                    seen["fp_general"] += 1
                elif pf.is_fp_finite(S):
                    assert got == reference_oracle_fp(S, p, order), (S, p, order)
                    seen["reference"] += 1
                else:
                    assert got == pf.INFINITE, (S, p)
                seen[f"p = {p}"] += 1
    return seen


def test_oracle_differential():
    # a few draws of each kind; CI runs 360 (the Oracle differential step)
    seen = oracle_differential(24, seed=1)
    assert seen["draws"] == 24 and seen["lambda"] == 24 and seen["p = 3"] == 48, seen
