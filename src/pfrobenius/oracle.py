"""Brute-force reference implementations, deliberately independent of the
Groebner engine: factorizations are counted by a coin-counting dynamic
program (no depth-first search, no normal forms, no bases).  A grid is a
list of rows, each one Python int of fixed-width fields over the last
coordinate; a generator is counted by one shift, add and mask per row it
reaches, and at q = 1 the grid is one row, a line.  The multiplier bounds
are read off one line per axis and one grid shared by the other
generators, and F_p off one grid over the tight box, from its top degree
down.  A budget covers the whole call, the multiplier search included, and
is checked once per generator; a grid is allocated before the first check,
so one the allocator grants is bounded only by the machine.  In any
disagreement with the optimized algorithms, these routines are trusted.
"""
from __future__ import annotations

import sys
import time
from functools import lru_cache
from math import gcd, isnan, prod
from operator import mul

from .cone import _direction, is_fp_finite, unpaired_rays
from .core import INFINITE, FrobeniusResult, OrderSpec, Record, Semigroup, UnsupportedError, ValidationError
from .core import _F0_SCOPE, _as_int, _as_order, _as_point, checked, s_degree


class OracleBudgetError(Exception):
    """The oracle's time budget ran out, or the allocator refused its grid."""


class OracleReport(Record):
    __slots__ = ("result", "scanned_bound", "certificate")

    def __init__(self, result: FrobeniusResult, scanned_bound: int, certificate: str) -> None:
        self._set(result, scanned_bound, certificate)


class _Budget:
    def __init__(self, seconds: float | None):
        # a NaN deadline never passes, and a bool or a string is no number of
        # seconds; a negative budget is already spent, an infinite one no limit
        if seconds is not None and (type(seconds) not in (int, float) or isnan(seconds)):
            raise ValidationError(f"budget_seconds must be None or a number of seconds, got {seconds!r}")
        self.deadline = None if seconds is None else time.monotonic() + seconds

    def check(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise OracleBudgetError("oracle time budget exhausted")

    # a budget bounds a call's time, not its answer: every budget is one
    # cache key, and _direct_lambda takes it positionally with no default, so
    # its cache keys on S alone
    def __eq__(self, other) -> bool:
        return isinstance(other, _Budget)

    def __hash__(self) -> int:
        return 0


def _count_grid(generators, maxes, budget=_Budget(None)) -> tuple[list, tuple]:
    """Exact #Z_n for every n componentwise below maxes, and the strides: the
    grid is one flat list in row-major order, n at sum(n_j * strides[j]).

    A row holds the points that differ only in the last coordinate, and is
    counted as one int of k-byte fields, field i at bit 8k*i.  Row 0 starts
    as the line of the generators on the last axis: each such c multiplies
    it by 1/(1 - x^c) = (1 + x^c)(1 + x^2c)(1 + x^4c)..., one shift and add
    per factor while the shift stays on the row.  Every other generator a
    multiplies the grid by 1/(1 - t^a): each row of the sub-box [a, maxes],
    in ascending order, adds its source row, already final as a's nonzero
    head puts it earlier, shifted by a's last coordinate.  Each sum is
    masked back to the row; shifts only move counts up the row, so the
    fields the mask drops past maxes feed nothing in the box.  No field
    carries: each field counts factorizations of its point n over some of
    the generators (those on the last axis, mid-product, fewer than 2^(i+1)
    times), so at most #Z_n.  A factorization of n uses a at most
    min_j(n_j // a_j) times, and given the multiplicities of all generators
    but one, n fixes the last, so #Z_n is at most the product of the ranges
    min_j(maxes_j // a_j) + 1 of all generators but the one with the
    largest range; k is the smallest power of two whose fields hold it.
    Each row is decoded by one memoryview cast, or field by field past 8
    bytes.  A grid the allocator refuses, by memory or by size, is the
    budget's error.
    """
    strides = tuple(prod(m + 1 for m in maxes[j + 1 :]) for j in range(len(maxes)))
    width = maxes[-1] + 1
    row_strides = [s // width for s in strides[:-1]]
    bound = prod(sorted([min([m // c for c, m in zip(a, maxes) if c]) + 1 for a in generators])[:-1])
    k = 1
    while bound >> 8 * k:
        k *= 2
    bits = 8 * k
    try:
        ways = [0] * prod(m + 1 for m in maxes)
        rows = [0] * (len(ways) // width)
        mask = (1 << bits * width) - 1
        line, off = 1, []
        for a in generators:
            *head, c = a
            if any(head):
                off.append(a)
                continue
            budget.check()
            while c < width:
                line = (line + (line << bits * c)) & mask
                c *= 2
        rows[0] = line
        for a in off:
            budget.check()
            if any(c > m for c, m in zip(a, maxes)):
                continue  # no point of the grid has a factorization using a
            *head, c = a
            sub = [0]
            for h, m, s in zip(head, maxes, row_strides):
                sub = [r + i * s for r in sub for i in range(h, m + 1)]
            back = sum(map(mul, head, row_strides))
            shift = bits * c
            for r in sub:
                rows[r] = (rows[r] + (rows[r - back] << shift)) & mask
        for r, row in enumerate(rows):
            raw = row.to_bytes(k * width, sys.byteorder)
            if k > 8:
                cells = [int.from_bytes(raw[i : i + k], sys.byteorder) for i in range(0, len(raw), k)]
            else:
                cells = memoryview(raw).cast({1: "B", 2: "H", 4: "I", 8: "Q"}[k]).tolist()
            # a big-endian machine writes the last field first
            ways[r * width : (r + 1) * width] = cells if sys.byteorder == "little" else cells[::-1]
    except (MemoryError, OverflowError):
        raise OracleBudgetError(f"the allocator refused the grid over [0, {maxes}]") from None
    return ways, strides


@lru_cache(maxsize=256)
def _direct_lambda(S: Semigroup, budget: _Budget) -> tuple[int, ...]:
    """lam_k, the least j with j*a_k a sum of the other generators, for each k.

    That is the least j >= 2 with #Z_{j*a_k}(S) >= 2, so grids of all of S
    serve every generator.  An atom never has lam = 1; and if c != j*e_k
    also factors j*a_k with c_k = i >= 1, then (j - i)*a_k has the two
    factorizations (j - i)*e_k and c - i*e_k, with j - i < j (j - i = 1
    would make a_k no atom).  If a_m = g_m*d shares a_k = g_k*d's ray,
    top_k = g_m / gcd(g_k, g_m) puts top_k*a_k in <a_m>; else top_k = 2.
    The finite gate pairs every axis generator, so those on axis j read lam
    off one line, a one-dimensional grid of that axis's steps up to their
    largest top_k*a_k, which no other generator reaches.  The rest share one
    grid over the componentwise max
    of top_k*a_k, and only the unresolved tops double: past the finite gate
    an unpaired generator is a non-negative rational combination of others
    in its support, so some multiple of it factors over them, and only the
    budget bounds the search.  The axis tops stay off that grid, which they
    would stretch along every axis.  The multipliers do not depend on p, so
    they are cached per semigroup; a call that raises caches nothing.
    """
    gens = S.generators
    on_ray = [(_direction(a), gcd(*a)) for a in gens]  # a = g*d
    rays = {}
    for d, g in on_ray:
        rays.setdefault(d, []).append(g)
    tops = [min((m // gcd(g, m) for m in rays[d] if m != g), default=2) for d, g in on_ray]
    lam = [None] * S.h
    axes = [[k for k, a in enumerate(gens) if a[j] == sum(a)] for j in range(S.q)]
    for j, ks in enumerate(axes + [[k for k, a in enumerate(gens) if max(a) < sum(a)]]):
        while ks:
            maxes = tuple(max(checked(tops[k] * gens[k][i]) for k in ks) for i in range(S.q))
            if j < S.q:  # the line of axis j, read at a[j] = a . e_j
                ways, _ = _count_grid([(gens[k][j],) for k in axes[j]], (maxes[j],), budget)
                strides = tuple(int(i == j) for i in range(S.q))
            else:
                ways, strides = _count_grid(gens, maxes, budget)
            for k in ks:
                step = sum(map(mul, gens[k], strides))
                lam[k] = next((i for i in range(2, tops[k] + 1) if ways[i * step] >= 2), None)
                tops[k] *= 2
            ks = [k for k in ks if lam[k] is None]
    return tuple(lam)


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
    the box [0, sum((p*lam_i - 1)*a_i)], whose corner is an s_degree,
    checked against 64 bits before any count.  F_p is the order-maximum of the
    points of that box with 0 < #Z_n <= p; 0 is one of them.  A graded order
    ranks a higher degree first, so the scan reads F_p from the top degree
    down.  A row holds the points that differ only in the last coordinate,
    one point per degree; the rows are read in decreasing order of their top
    degree, each only down to the best degree found so far, where one
    min(filter(...)) tells whether the row holds such a point at all, and the
    scan stops at the first row whose top lies below that degree.  An
    infinite F_p is an answer too, certified by an extremal ray that carries
    only one generator (p >= 1) or by the gcd the generators share (p = 0).
    """
    budget = _Budget(budget_seconds)
    _as_int(p, "p", 0)
    _as_order(order)
    if p == 0:
        return _oracle_f0(S, budget)
    if not is_fp_finite(S):
        ray = unpaired_rays(S)[0]
        return OracleReport(
            INFINITE, 0, f"the extremal ray {ray} carries only one generator"
        )
    lam = _direct_lambda(S, budget)
    maxes = s_degree(S, [p * b - 1 for b in lam])
    ways, strides = _count_grid(S.generators, maxes, budget=budget)
    budget.check()
    width = maxes[-1] + 1
    rows = [(0, 0)]  # the degree and the index of each row's first point
    for m, s in zip(maxes[:-1], strides):
        rows = [(t + i, b + i * s) for t, b in rows for i in range(m + 1)]
    rows.sort(reverse=True)
    top, hits = 0, []  # the best degree so far and its points, one per row
    for t, b in rows:
        if t + width <= top:
            break
        lo = b + max(0, top - t)
        row = ways[lo : b + width]  # the row's points of degree >= top
        if min(filter(None, row), default=p + 1) <= p:
            i = next(i for i in range(len(row) - 1, -1, -1) if 0 < row[i] <= p)
            if t + lo - b + i > top:
                top, hits = t + lo - b + i, []
            hits.append(lo + i)
    best = max(
        (tuple(i // s % (m + 1) for s, m in zip(strides, maxes)) for i in hits),
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
        raise UnsupportedError(_F0_SCOPE)
    values = sorted(g[0] for g in S.generators)
    if (g := gcd(*values)) != 1:
        return OracleReport(INFINITE, 0, f"every generator is a multiple of {g}")
    if values[0] == 1:
        return OracleReport(FrobeniusResult.finite((-1,)), 0, "no gaps: S = N")
    bound = checked((values[0] - 1) * (values[-1] - 1) - 1)  # Schur (Brauer 1942)
    ways, _ = _count_grid(S.generators, (bound,), budget=budget)
    return OracleReport(
        FrobeniusResult.finite((len(ways) - 1 - ways[::-1].index(0),)),  # the last gap
        scanned_bound=bound,
        certificate=f"all integers up to {bound} counted exactly",
    )
