"""Brute-force reference implementations, deliberately independent of the
Groebner engine: factorizations are counted by a coin-counting dynamic
program over a flat grid of points (no depth-first search, no normal forms,
no bases), each generator's multiplier bound is read off a grid of the other
generators on its support, and F_p is read off one grid over the tight box.
In any disagreement with the optimized algorithms, these routines are
trusted.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import gcd, prod
from operator import add

from .cone import is_fp_finite, primitive_direction
from .core import FrobeniusResult, OrderSpec, Semigroup, ValidationError, _as_point, checked


class OracleBudgetError(Exception):
    """The oracle's time budget ran out, or the allocator refused its grid."""


@dataclass(frozen=True)
class OracleReport:
    result: FrobeniusResult
    scanned_bound: int
    certificate: str


class _Budget:
    def __init__(self, seconds: float | None):
        self.deadline = None if seconds is None else time.monotonic() + seconds

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise OracleBudgetError("oracle time budget exhausted")

    # a budget bounds a call's time, not its answer: every budget is one
    # cache key, so _direct_lambda's cache keys on S alone
    def __eq__(self, other) -> bool:
        return isinstance(other, _Budget)

    def __hash__(self) -> int:
        return 0


def _count_grid(generators, maxes, budget=_Budget(None)) -> tuple[list, tuple]:
    """Exact #Z_n for every n componentwise below maxes, by the standard
    one-generator-at-a-time counting recurrence ways[n] += ways[n - a], and
    the strides: the grid is one flat list in row-major order, n at
    sum(n_j * strides[j]), so n - a comes before n.  A row holds the points
    that differ only in the last coordinate; each row of the sub-box
    [a, maxes] adds its source row, shifted by a, in one slice operation.  A
    generator on the last axis is its own source: its recurrence is a running
    sum over each residue class mod a_last of the row, one slice each.
    """
    strides = tuple(prod(m + 1 for m in maxes[j + 1 :]) for j in range(len(maxes)))
    width = maxes[-1] + 1
    try:
        ways = [0] * prod(m + 1 for m in maxes)
    except MemoryError:
        raise OracleBudgetError(f"the allocator refused the grid over [0, {maxes}]") from None
    ways[0] = 1
    for a in generators:
        budget.check()
        if any(c > m for c, m in zip(a, maxes)):
            continue  # no point of the grid has a factorization using a
        *head, al = a
        rows = [0]
        for c, m, s in zip(head, maxes, strides):
            rows = [r + i * s for r in rows for i in range(c, m + 1)]
        back = sum(c * s for c, s in zip(head, strides))
        for r in rows:
            end = r + width
            if back:
                src = ways[r - back : end - back - al]
                ways[r + al : end] = map(add, ways[r + al : end], src)
            else:
                for i in range(r, r + al):
                    ways[i:end:al] = accumulate(ways[i:end:al])
    return ways, strides


@lru_cache(maxsize=256)
def _direct_lambda(S: Semigroup, budget=_Budget(None)) -> tuple[int, ...]:
    """Smallest multiplier per generator whose multiple avoids that generator.

    A multiple j*a_k is a sum of those other generators whose support lies in
    a_k's, so the grid spans only a_k's support and holds them projected onto
    it: an axis generator gets one row.  One grid up to top*a_k holds every
    j*a_k, j <= top, and top doubles until one of them is reached.  It starts
    at the multiplier a generator on the ray of a_k guarantees: with
    a_k = g_k*d and a_m = g_m*d, (g_m / gcd(g_k, g_m))*a_k lies in <a_m>, so
    that first grid holds a hit.  The multipliers do not depend on p, so they
    are cached per semigroup; a call that raises caches nothing.

    Past the finite gate every search ends, so only the budget bounds it: a
    generator on an extremal ray shares it, so has the hit above, and any
    other is a non-negative rational combination of others inside its
    support, so some multiple of it factors over them.
    """
    out = []
    for k, a in enumerate(S.generators):
        support = [j for j, c in enumerate(a) if c]
        outside = [j for j, c in enumerate(a) if not c]
        a = tuple(a[j] for j in support)
        others = [
            tuple(g[j] for j in support)
            for i, g in enumerate(S.generators)
            if i != k and not any(g[j] for j in outside)
        ]
        d = primitive_direction(a)
        gk = a[0] // d[0]  # a is positive on its support
        ray = [g[0] // d[0] for g in others if primitive_direction(g) == d]
        top = min(gm // gcd(gk, gm) for gm in ray) if ray else 1
        hit = None
        while hit is None:
            grid_top = tuple(checked(top * c) for c in a)
            ways, strides = _count_grid(others, grid_top, budget)
            step = sum(c * s for c, s in zip(a, strides))
            hit = next((j for j in range(1, top + 1) if ways[j * step]), None)
            top *= 2
        out.append(hit)
    return tuple(out)


def oracle_count(S: Semigroup, n, budget_seconds: float | None = None) -> int:
    """Exact #Z_n(S): the top corner of one grid over the box [0, n]."""
    ways, _ = _count_grid(S.generators, _as_point(n, S.q), _Budget(budget_seconds))
    return ways[-1]


def oracle_fp(
    S: Semigroup,
    p: int,
    order: OrderSpec = OrderSpec(),
    budget_seconds: float | None = None,
) -> OracleReport:
    """F_p(S) by an exact count of every point of one box.

    If a factorization gamma of n has gamma_i >= p*lam_i, n has p + 1
    distinct ones (see fp_general), so every n with 1 <= #Z_n <= p lies in
    the box [0, sum((p*lam_i - 1)*a_i)].  F_p is the order-maximum of the
    points of that box with 0 < #Z_n <= p; 0 is one of them.
    """
    budget = _Budget(budget_seconds)
    if p < 0:
        raise ValidationError("p must be >= 0")
    if p == 0:
        return _oracle_f0(S, budget)
    if not is_fp_finite(S):
        raise ValidationError("oracle_fp requires finite F_p; check is_fp_finite")
    lam = _direct_lambda(S, budget=budget)
    corner = (sum((p * b - 1) * a[j] for b, a in zip(lam, S.generators)) for j in range(S.q))
    maxes = tuple(map(checked, corner))
    ways, strides = _count_grid(S.generators, maxes, budget=budget)
    budget.check()
    # only the last coordinate moves along a row, so under a graded order the
    # row's last point with 0 < #Z_n <= p outranks its others
    qualifies = bytes(map(range(1, p + 1).__contains__, ways))
    width = maxes[-1] + 1
    lasts = (qualifies.rfind(1, r, r + width) for r in range(0, len(ways), width))
    best = max(
        (tuple(i // s % (m + 1) for s, m in zip(strides, maxes)) for i in lasts if i >= 0),
        key=order.key,
    )
    return OracleReport(
        FrobeniusResult.finite(best),
        scanned_bound=sum(maxes),
        certificate=f"all {len(ways)} points of the box [0, {maxes}] (lambda = {lam}, "
        f"p = {p}) counted exactly",
    )


def _oracle_f0(S: Semigroup, budget: _Budget) -> OracleReport:
    if S.q != 1:
        raise ValidationError("oracle p = 0 supports numerical semigroups only")
    values = sorted(g[0] for g in S.generators)
    if gcd(*values) != 1:
        raise ValidationError("oracle p = 0 needs gcd 1 (finite gap set)")
    if values[0] == 1:
        return OracleReport(FrobeniusResult.finite((-1,)), 0, "no gaps: S = N")
    bound = checked((values[0] - 1) * (values[-1] - 1) - 1)  # Schur (Brauer 1942)
    ways, _ = _count_grid(S.generators, (bound,), budget=budget)
    return OracleReport(
        FrobeniusResult.finite((max(n for n, c in enumerate(ways) if c == 0),)),
        scanned_bound=bound,
        certificate=f"all integers up to {bound} counted exactly",
    )
